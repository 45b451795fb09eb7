// Table IX reproduction: lifting respecting vs ignoring property
// constraints on the all-true designs. Paper shape: here the relaxed
// (ignoring) version is usually faster — respecting the constraints
// shrinks lifted cubes, so proofs enumerate far more predecessor states;
// in the paper three benchmarks went from timeout to finishing. The
// designs are made one component (gen::single_component): a task keeps
// every other property as an assumption only when they share its
// closure, and the constraints lifting respects are those assumptions.
#include <cstdio>

#include "bench_util.h"
#include "mp/ja_verifier.h"
#include "ts/transition_system.h"

using namespace javer;

namespace {

std::uint64_t total_obligations(const mp::MultiResult& result) {
  std::uint64_t n = 0;
  for (const auto& pr : result.per_property) {
    n += pr.engine_stats.obligations;
  }
  return n;
}

}  // namespace

int main() {
  bench::BenchJson json("table09");
  bench::print_title(
      "Table IX",
      "JA-verification with lifting respecting vs ignoring property "
      "constraints, all-true designs. #obl counts proof obligations — "
      "smaller lifted cubes mean more obligations.");

  double prop_limit = bench::budget(3.0);

  std::printf("%9s %6s | %8s %10s %8s | %8s %10s %8s\n", "name", "#prop",
              "resp#un", "time", "#obl", "ign#un", "time", "#obl");
  std::printf("-----------------+-----------------------------+------------"
              "-----------------\n");

  double respect_total = 0, ignore_total = 0;
  std::uint64_t respect_obl = 0, ignore_obl = 0;
  bool ignore_never_less_complete = true;

  for (const auto& d : bench::all_true_family()) {
    aig::Aig design = gen::single_component(gen::make_synthetic(d.spec));
    ts::TransitionSystem ts(design);

    mp::JaOptions respect;
    respect.lifting_respects_constraints = true;
    respect.time_limit_per_property = prop_limit;
    mp::MultiResult r_respect = mp::JaVerifier(ts, respect).run();
    bench::Summary s_respect = bench::summarize(r_respect);
    bench::record_row(d.name, "lifting-respect", s_respect);

    mp::JaOptions ignore;
    ignore.lifting_respects_constraints = false;
    ignore.time_limit_per_property = prop_limit;
    mp::MultiResult r_ignore = mp::JaVerifier(ts, ignore).run();
    bench::Summary s_ignore = bench::summarize(r_ignore);
    bench::record_row(d.name, "lifting-ignore", s_ignore);

    std::printf("%9s %6zu | %8zu %10s %8llu | %8zu %10s %8llu\n",
                d.name.c_str(), design.num_properties(),
                s_respect.num_unsolved,
                bench::fmt_time(s_respect.seconds).c_str(),
                static_cast<unsigned long long>(total_obligations(r_respect)),
                s_ignore.num_unsolved,
                bench::fmt_time(s_ignore.seconds).c_str(),
                static_cast<unsigned long long>(total_obligations(r_ignore)));

    respect_total += s_respect.seconds;
    ignore_total += s_ignore.seconds;
    respect_obl += total_obligations(r_respect);
    ignore_obl += total_obligations(r_ignore);
    ignore_never_less_complete &=
        (s_ignore.num_unsolved <= s_respect.num_unsolved);
  }

  std::printf("\ntotals: respecting %s (%llu obligations), ignoring %s "
              "(%llu obligations)\n",
              bench::fmt_time(respect_total).c_str(),
              static_cast<unsigned long long>(respect_obl),
              bench::fmt_time(ignore_total).c_str(),
              static_cast<unsigned long long>(ignore_obl));
  bench::print_shape("relaxed lifting never loses completeness here",
                     ignore_never_less_complete);
  bench::print_shape(
      "relaxed (ignoring) lifting does not blow up the obligation count "
      "(paper: it is usually the faster configuration)",
      ignore_obl <= respect_obl * 2);
  return 0;
}
