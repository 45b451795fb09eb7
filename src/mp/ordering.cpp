#include "mp/ordering.h"

#include <algorithm>

#include "base/rng.h"
#include "ts/cone_view.h"

namespace javer::mp {

std::vector<std::size_t> design_order(const ts::TransitionSystem& ts) {
  std::vector<std::size_t> order(ts.num_properties());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

std::size_t property_cone_latches(const ts::TransitionSystem& ts,
                                  std::size_t prop) {
  return ts::cone_latches(ts.aig(), {ts.property_lit(prop)}).size();
}

std::vector<std::size_t> order_by_cone_size(const ts::TransitionSystem& ts) {
  std::vector<std::size_t> order = design_order(ts);
  std::vector<std::size_t> cone(ts.num_properties());
  for (std::size_t i = 0; i < cone.size(); ++i) {
    cone[i] = property_cone_latches(ts, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cone[a] < cone[b];
                   });
  return order;
}

std::vector<std::size_t> shuffled_order(const ts::TransitionSystem& ts,
                                        std::uint64_t seed) {
  std::vector<std::size_t> order = design_order(ts);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

}  // namespace javer::mp
