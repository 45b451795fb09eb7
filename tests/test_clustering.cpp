// Property-clustering tests (the structure-aware grouping from the
// paper's related work, which the sharded scheduler partitions by):
// partition validity and similarity behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/synthetic.h"
#include "mp/clustering.h"

namespace javer::mp {
namespace {

bool is_partition(const std::vector<std::vector<std::size_t>>& clusters,
                  std::size_t k) {
  std::vector<bool> seen(k, false);
  for (const auto& c : clusters) {
    if (c.empty()) return false;
    for (std::size_t p : c) {
      if (p >= k || seen[p]) return false;
      seen[p] = true;
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

TEST(Clustering, PartitionCoversAllProperties) {
  gen::SyntheticSpec spec;
  spec.seed = 4;
  spec.rings = 3;
  spec.ring_size = 6;
  spec.ring_props = 18;
  spec.pair_props = 4;
  spec.unreachable_props = 5;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  auto clusters = cluster_properties(ts);
  EXPECT_TRUE(is_partition(clusters, ts.num_properties()));
}

TEST(Clustering, RingPropertiesClusterByRing) {
  // Properties of the same ring share their entire cone; different rings
  // share nothing. Expect exactly `rings` clusters for a pure ring design
  // with no counters in the property cones.
  gen::SyntheticSpec spec;
  spec.seed = 6;
  spec.rings = 3;
  spec.ring_size = 5;
  spec.ring_props = 15;
  spec.pair_props = 0;
  spec.unreachable_props = 0;
  spec.shuffle_properties = false;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  ClusterOptions opts;
  opts.min_similarity = 0.9;
  auto clusters = cluster_properties(ts, opts);
  EXPECT_EQ(clusters.size(), 3u);
  for (const auto& c : clusters) EXPECT_EQ(c.size(), 5u);
}

TEST(Clustering, ThresholdOneSplitsUnrelated) {
  // Pair properties have disjoint cones (own aux/mirror latches +
  // depending on a wcnt bit): with a high threshold each pair property
  // that differs in cone lands alone or with true twins only.
  gen::SyntheticSpec spec;
  spec.seed = 8;
  spec.rings = 0;
  spec.ring_props = 0;
  spec.pair_props = 6;
  spec.unreachable_props = 0;
  aig::Aig aig = gen::make_synthetic(spec);
  ts::TransitionSystem ts(aig);
  ClusterOptions strict;
  strict.min_similarity = 0.99;
  auto clusters = cluster_properties(ts, strict);
  EXPECT_GE(clusters.size(), 2u);

  ClusterOptions loose;
  loose.min_similarity = 0.0;
  auto one = cluster_properties(ts, loose);
  EXPECT_EQ(one.size(), 1u);  // everything merges at threshold 0
}

TEST(Clustering, MaxClusterSizeRespected) {
  aig::Aig aig = gen::make_ring(12);
  ts::TransitionSystem ts(aig);
  ClusterOptions opts;
  opts.min_similarity = 0.0;
  opts.max_cluster_size = 4;
  auto clusters = cluster_properties(ts, opts);
  for (const auto& c : clusters) EXPECT_LE(c.size(), 4u);
  EXPECT_TRUE(is_partition(clusters, ts.num_properties()));
}

}  // namespace
}  // namespace javer::mp
