// Structure-aware property clustering, after the grouping approach the
// paper's related work discusses (Cabodi/Nocco [8], Camurati et al. [10]):
// group properties with similar cones of influence. The sharded scheduler
// (mp/shard) builds its partition from these clusters, composing the
// grouping with JA-verification: local proofs and clause re-use apply
// within a cluster unchanged.
#ifndef JAVER_MP_CLUSTERING_H
#define JAVER_MP_CLUSTERING_H

#include <cstdint>
#include <vector>

#include "ts/transition_system.h"

namespace javer::mp {

struct ClusterOptions {
  // Minimum Jaccard similarity of two properties' latch cones for them to
  // share a cluster (agglomerative, single-link).
  double min_similarity = 0.5;
  std::size_t max_cluster_size = 64;
  // Optional behavior-similarity term (mp/simfilter): per-property
  // simulation signatures, indexed by property. Properties with equal
  // nonzero signatures behaved identically on every simulated pattern —
  // candidate-equivalent — and are unioned before the structural Jaccard
  // pass (still subject to max_cluster_size). Empty = structural only.
  std::vector<std::uint64_t> signatures;
};

// Partitions property indices into clusters of structurally similar
// properties. Every property appears in exactly one cluster. When
// `signature_merges` is non-null it receives the number of extra unions
// the signature term contributed.
std::vector<std::vector<std::size_t>> cluster_properties(
    const ts::TransitionSystem& ts, const ClusterOptions& opts = {},
    std::size_t* signature_merges = nullptr);

}  // namespace javer::mp

#endif  // JAVER_MP_CLUSTERING_H
