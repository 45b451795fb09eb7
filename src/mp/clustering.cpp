#include "mp/clustering.h"

#include <algorithm>

#include "ts/cone_view.h"

namespace javer::mp {

namespace {

// Latch-cone bitset per property.
std::vector<std::vector<bool>> property_cones(
    const ts::TransitionSystem& ts) {
  std::vector<std::vector<bool>> cones;
  cones.reserve(ts.num_properties());
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    std::vector<bool> latch_cone(ts.num_latches(), false);
    for (int l : ts::cone_latches(ts.aig(), {ts.property_lit(p)})) {
      latch_cone[l] = true;
    }
    cones.push_back(std::move(latch_cone));
  }
  return cones;
}

double jaccard(const std::vector<bool>& a, const std::vector<bool>& b) {
  std::size_t inter = 0, uni = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] && b[i]) inter++;
    if (a[i] || b[i]) uni++;
  }
  // Two empty cones (purely combinational properties) are "similar".
  if (uni == 0) return 1.0;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

std::vector<std::vector<std::size_t>> cluster_properties(
    const ts::TransitionSystem& ts, const ClusterOptions& opts,
    std::size_t* signature_merges) {
  std::size_t k = ts.num_properties();
  auto cones = property_cones(ts);

  // Single-link agglomeration via union-find.
  std::vector<std::size_t> parent(k);
  for (std::size_t i = 0; i < k; ++i) parent[i] = i;
  std::vector<std::size_t> size(k, 1);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // Behavior term first: properties with equal nonzero simulation
  // signatures are candidate-equivalent, so force them together before
  // structural similarity gets a vote (the cap still binds).
  std::size_t sig_merges = 0;
  if (!opts.signatures.empty()) {
    for (std::size_t i = 0; i < k && i < opts.signatures.size(); ++i) {
      if (opts.signatures[i] == 0) continue;
      for (std::size_t j = i + 1; j < k && j < opts.signatures.size(); ++j) {
        if (opts.signatures[j] != opts.signatures[i]) continue;
        std::size_t ri = find(i), rj = find(j);
        if (ri == rj) continue;
        if (size[ri] + size[rj] > opts.max_cluster_size) continue;
        parent[rj] = ri;
        size[ri] += size[rj];
        sig_merges++;
      }
    }
  }
  if (signature_merges != nullptr) *signature_merges = sig_merges;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j) {
      std::size_t ri = find(i), rj = find(j);
      if (ri == rj) continue;
      if (size[ri] + size[rj] > opts.max_cluster_size) continue;
      if (jaccard(cones[i], cones[j]) >= opts.min_similarity) {
        parent[rj] = ri;
        size[ri] += size[rj];
      }
    }
  }

  std::vector<std::vector<std::size_t>> clusters;
  std::vector<int> cluster_of(k, -1);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t root = find(i);
    if (cluster_of[root] < 0) {
      cluster_of[root] = static_cast<int>(clusters.size());
      clusters.emplace_back();
    }
    clusters[cluster_of[root]].push_back(i);
  }
  return clusters;
}

}  // namespace javer::mp
