// Table IV reproduction: designs where all properties hold — the family
// that *favours* joint verification. Paper shape: joint is competitive
// and often slightly better; JA with clause re-use stays in the same
// ballpark. Includes the Section 9-C observation that the property order
// matters for JA (an extra ordering series). The designs are made one
// component (gen::single_component) so that every JA task assumes every
// other property, as in the paper; on the separate components JA's tasks
// would run on small closures and the comparison would no longer be the
// paper's.
#include <cstdio>

#include "base/rng.h"
#include "bench_util.h"
#include "mp/ja_verifier.h"
#include "mp/joint_verifier.h"
#include "ts/transition_system.h"

using namespace javer;

int main() {
  bench::BenchJson json("table04");
  bench::print_title(
      "Table IV",
      "All-true designs: joint vs JA (clause re-use) vs JA with a "
      "shuffled verification order (§9-C: order matters).");

  double joint_limit = bench::budget(10.0);
  double ja_prop_limit = bench::budget(3.0);

  std::printf("%9s %5s %5s | %10s | %7s %10s | %7s %10s\n", "name", "#lat",
              "#prop", "joint time", "JA #un", "time", "ord #un", "time");
  std::printf("----------------------+------------+--------------------+----"
              "---------------\n");

  int joint_wins = 0;
  int rows = 0;
  bool everything_solved = true;
  double joint_total = 0, ja_total = 0;

  for (const auto& d : bench::all_true_family()) {
    aig::Aig design = gen::single_component(gen::make_synthetic(d.spec));
    ts::TransitionSystem ts(design);

    mp::JointOptions jopts;
    jopts.total_time_limit = joint_limit;
    bench::Summary joint = bench::summarize(mp::JointVerifier(ts, jopts).run());
    bench::record_row(d.name, "joint", joint);

    mp::JaOptions japts;
    japts.time_limit_per_property = ja_prop_limit;
    bench::Summary ja = bench::summarize(mp::JaVerifier(ts, japts).run());
    bench::record_row(d.name, "ja-design-order", ja);

    // Shuffled order (seeded by design) to show order sensitivity.
    mp::JaOptions shuffled = japts;
    {
      std::vector<std::size_t> order(ts.num_properties());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      Rng rng(d.spec.seed * 31 + 7);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      shuffled.order = order;
    }
    bench::Summary ord = bench::summarize(mp::JaVerifier(ts, shuffled).run());
    bench::record_row(d.name, "ja-shuffled-order", ord);

    std::printf("%9s %5zu %5zu | %10s | %7zu %10s | %7zu %10s\n",
                d.name.c_str(), design.num_latches(), design.num_properties(),
                bench::fmt_time(joint.seconds).c_str(), ja.num_unsolved,
                bench::fmt_time(ja.seconds).c_str(), ord.num_unsolved,
                bench::fmt_time(ord.seconds).c_str());

    rows++;
    if (joint.seconds < ja.seconds) joint_wins++;
    everything_solved &= (joint.num_unsolved == 0 && joint.num_false == 0 &&
                          ja.num_unsolved == 0 && ja.num_false == 0);
    joint_total += joint.seconds;
    ja_total += ja.seconds;
  }

  bench::print_shape("all properties proved by both approaches",
                     everything_solved);
  bench::print_shape(
      "joint verification is competitive on all-true designs (wins or is "
      "within 3x overall)",
      joint_wins >= rows / 2 || joint_total < 3.0 * ja_total);
  return 0;
}
