// Table XV (extension, not from the paper): the resilience substrate's
// cost and contract (src/fault + the schedulers' quarantine/retry
// machinery) over the Table III failing family.
//
// Four configs per design:
//  * clean      — no fault plan installed (the production fast path);
//  * inject-off — a plan whose one entry can never fire: measures the
//                 pure instrumentation overhead (one atomic load per
//                 site), which must be ~0 and must not perturb verdicts;
//  * targeted   — a persistent ic3.consecution fault pinned to one
//                 holding property: the run must complete with exactly
//                 that property Unknown (N-1 solved) and byte-identical
//                 verdicts everywhere else;
//  * recover    — the same fault one-shot: the retry ladder must absorb
//                 it and reproduce the clean verdicts exactly.
// The binary exits nonzero if any of those contracts is violated.
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mp/sched/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ts/transition_system.h"

using namespace javer;

namespace {

mp::sched::SchedulerOptions run_opts(const std::string& fault_plan,
                                     double prop_limit, obs::Tracer* tracer,
                                     obs::MetricsRegistry* metrics) {
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.engine.time_limit_per_property = prop_limit;
  so.engine.fault_plan = fault_plan;
  so.engine.tracer = tracer;
  so.engine.metrics = metrics;
  return so;
}

bool same_verdicts(const mp::MultiResult& a, const mp::MultiResult& b,
                   long long except = -1) {
  if (a.per_property.size() != b.per_property.size()) return false;
  for (std::size_t p = 0; p < a.per_property.size(); ++p) {
    if (static_cast<long long>(p) == except) continue;
    if (a.per_property[p].verdict != b.per_property[p].verdict) return false;
  }
  return true;
}

// The first holding property whose fault-free engine asked consecution
// queries of its own: it started from the shard prelude another engine
// built, so its queries were not the prelude's mining, which runs once
// per shard in whichever engine starts up first. Its engines on every
// retry rung ask them again, so an ic3.consecution fault pinned to it
// fires.
long long first_holding_property(const mp::MultiResult& r) {
  for (std::size_t p = 0; p < r.per_property.size(); ++p) {
    const mp::PropertyResult& pr = r.per_property[p];
    if ((pr.verdict == mp::PropertyVerdict::HoldsLocally ||
         pr.verdict == mp::PropertyVerdict::HoldsGlobally) &&
        pr.engine_stats.consecution_queries > 0 &&
        pr.engine_stats.prelude_builds == 0) {
      return static_cast<long long>(p);
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out FILE]\n", argv[0]);
      return 2;
    }
  }
  obs::Tracer tracer;
  obs::Tracer* tracer_ptr = trace_out.empty() ? nullptr : &tracer;

  bench::BenchJson json("table15");
  bench::print_title(
      "Table XV",
      "Resilience under deterministic fault injection on the Table III "
      "failing family: instrumentation overhead with a never-firing plan, "
      "quarantine of a persistently faulted property, and retry-ladder "
      "recovery from a one-shot fault. unk = unsolved properties; "
      "retries = retry-ladder rungs climbed across the run.");

  double prop_limit = bench::budget(2.0);

  std::printf("%9s %5s | %10s | %10s %4s | %10s %4s %7s | %10s %7s\n",
              "", "", "clean", "inject-off", "inj", "targeted", "unk",
              "caught", "recover", "retries");
  std::printf("%9s %5s | %10s | %10s %4s | %10s %4s %7s | %10s %7s\n",
              "name", "#prop", "time", "time", "", "time", "", "", "time",
              "");
  std::printf("----------------+------------+-----------------+------------"
              "-------------+-------------------\n");

  bool off_identical = true;
  bool off_never_fired = true;
  bool targeted_exact = true;
  bool recover_identical = true;
  double clean_total = 0.0, off_total = 0.0;
  std::uint64_t targeted_unknowns = 0, recover_retries = 0;
  std::uint64_t designs = 0;

  for (const auto& d : bench::failing_family()) {
    aig::Aig design = gen::make_synthetic(d.spec);
    ts::TransitionSystem ts(design);
    designs++;

    // clean: the production fast path (no injector installed at all).
    mp::MultiResult clean =
        mp::sched::Scheduler(ts, run_opts("", prop_limit, tracer_ptr, nullptr))
            .run();
    bench::Summary clean_sum = bench::summarize(clean);
    bench::record_row(d.name, "clean", clean_sum);
    clean_total += clean_sum.seconds;

    // inject-off: plan installed, entry unreachable (hit ordinal 1e9).
    obs::MetricsRegistry off_metrics;
    mp::MultiResult off =
        mp::sched::Scheduler(ts, run_opts("sat.alloc@1000000000", prop_limit,
                                          tracer_ptr, &off_metrics))
            .run();
    bench::Summary off_sum = bench::summarize(off);
    bench::record_row(d.name, "inject-off", off_sum);
    off_total += off_sum.seconds;
    std::uint64_t off_injected =
        off_metrics.snapshot().counter("fault.injected");
    off_identical &= same_verdicts(clean, off);
    off_never_fired &= (off_injected == 0);

    long long target = first_holding_property(clean);
    if (target < 0) {
      std::fprintf(stderr, "error: %s has no holding property to target\n",
                   d.name.c_str());
      return 2;
    }

    // targeted: a persistent engine fault pinned to one holding property.
    obs::MetricsRegistry tgt_metrics;
    mp::MultiResult targeted =
        mp::sched::Scheduler(
            ts, run_opts("ic3.consecution@1+:prop=" + std::to_string(target),
                         prop_limit, tracer_ptr, &tgt_metrics))
            .run();
    bench::Summary tgt_sum = bench::summarize(targeted);
    bench::record_row(d.name, "targeted", tgt_sum);
    std::uint64_t caught = tgt_metrics.snapshot().counter("fault.caught");
    bool tgt_ok =
        same_verdicts(clean, targeted, target) &&
        targeted.per_property[target].verdict == mp::PropertyVerdict::Unknown &&
        tgt_sum.num_unsolved == 1;
    targeted_exact &= tgt_ok;
    targeted_unknowns += tgt_sum.num_unsolved;

    // recover: the same fault once; the ladder absorbs it.
    obs::MetricsRegistry rec_metrics;
    mp::MultiResult recover =
        mp::sched::Scheduler(
            ts, run_opts("ic3.consecution@1:prop=" + std::to_string(target),
                         prop_limit, tracer_ptr, &rec_metrics))
            .run();
    bench::Summary rec_sum = bench::summarize(recover);
    bench::record_row(d.name, "recover", rec_sum);
    std::uint64_t retries = rec_metrics.snapshot().counter("retry.attempts");
    recover_identical &= same_verdicts(clean, recover) && retries > 0;
    recover_retries += retries;

    std::printf("%9s %5zu | %10s | %10s %4llu | %10s %4zu %7llu | %10s "
                "%7llu\n",
                d.name.c_str(), design.num_properties(),
                bench::fmt_time(clean_sum.seconds).c_str(),
                bench::fmt_time(off_sum.seconds).c_str(),
                static_cast<unsigned long long>(off_injected),
                bench::fmt_time(tgt_sum.seconds).c_str(),
                tgt_sum.num_unsolved,
                static_cast<unsigned long long>(caught),
                bench::fmt_time(rec_sum.seconds).c_str(),
                static_cast<unsigned long long>(retries));
  }

  std::printf("\ntotals: clean %s, inject-off %s; %llu targeted unknown(s) "
              "across %llu design(s), %llu recovery retr%s\n",
              bench::fmt_time(clean_total).c_str(),
              bench::fmt_time(off_total).c_str(),
              static_cast<unsigned long long>(targeted_unknowns),
              static_cast<unsigned long long>(designs),
              static_cast<unsigned long long>(recover_retries),
              recover_retries == 1 ? "y" : "ies");
  bench::record_metric("designs", static_cast<double>(designs));
  bench::record_metric("targeted_unknowns",
                       static_cast<double>(targeted_unknowns));
  bench::record_metric("recover_retries",
                       static_cast<double>(recover_retries));
  bench::record_metric("clean_total_seconds", clean_total);
  bench::record_metric("inject_off_total_seconds", off_total);

  bench::print_shape(
      "a never-firing plan injects nothing and leaves verdicts "
      "byte-identical",
      off_identical && off_never_fired);
  bench::print_shape(
      "instrumentation wall-time overhead with injection off is ~0",
      off_total <= clean_total * 1.25 + 0.05);
  bench::print_shape(
      "a persistent targeted fault quarantines exactly the targeted "
      "property (N-1 solved, siblings byte-identical)",
      targeted_exact);
  bench::print_shape(
      "a one-shot fault recovers through the retry ladder to "
      "byte-identical verdicts",
      recover_identical);

  if (tracer_ptr != nullptr) {
    std::ofstream out(trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   trace_out.c_str());
      return 2;
    }
    tracer.write_chrome_trace(out);
    std::printf("trace: %zu event(s) -> %s\n", tracer.event_count(),
                trace_out.c_str());
  }
  // Any violated contract fails the bench (and CI) outright; the
  // overhead shape is wall-clock and advisory (bench_diff skips it).
  bool ok = off_identical && off_never_fired && targeted_exact &&
            recover_identical;
  return ok ? 0 : 1;
}
