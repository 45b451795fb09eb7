// EngineOptions: the engine configuration every verification mode shares.
// Before the scheduler refactor these fields were copy-pasted across
// SeparateOptions / JaOptions / JointOptions / ParallelJaOptions; the
// legacy option structs now inherit this one, so existing field accesses
// keep compiling while the scheduler consumes one uniform type. IC3 has
// one solver topology and one encoding path, so the two ic3_* selectors
// below are inert.
#ifndef JAVER_MP_SCHED_ENGINE_OPTIONS_H
#define JAVER_MP_SCHED_ENGINE_OPTIONS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mp/simfilter/options.h"

namespace javer::ic3 {
// IC3's one solver topology (ic3/frames.h): the type of the inert
// EngineOptions::ic3_solver below.
enum class Ic3SolverMode : std::uint8_t { Monolithic };
}  // namespace javer::ic3

namespace javer::obs {
class Tracer;
class MetricsRegistry;
class ProgressBoard;
class PhaseProfiler;
}  // namespace javer::obs

namespace javer::mp::sched {

struct EngineOptions {
  // Accumulate/seed strengthening clauses through a ClauseDb (§6-B/§7-B).
  bool clause_reuse = true;
  // Inert: IC3 has one solver topology and every context replays a
  // cnf::CnfTemplate. Both fields stay declared only because the
  // javerbench driver still assigns them; nothing reads them.
  ic3::Ic3SolverMode ic3_solver = ic3::Ic3SolverMode::Monolithic;
  bool ic3_use_template = true;
  // Warm-start persistence (src/persist): directory for the on-disk cache
  // of CNF templates and shard ClauseDb snapshots, keyed by design
  // fingerprint. Empty = no persistence. A re-run of an unchanged design
  // skips the encode+simplify pass and seeds shards from the previous
  // run's proven invariants; everything loaded is re-validated, so a
  // stale or corrupted cache degrades to a cold run, never a wrong
  // verdict.
  std::string cache_dir;
  // §7-A: lifting respects the assumed-property constraints from the
  // start (no spurious local CEXs) instead of the detect-and-retry loop.
  bool lifting_respects_constraints = false;
  // Simplify each IC3 template and BMC unrolling frame (sat/simp/).
  bool simplify = false;
  double time_limit_per_property = 0.0;  // seconds; 0 = unlimited
  double total_time_limit = 0.0;         // seconds; 0 = unlimited
  std::uint64_t conflict_budget_per_query = 0;
  // Verification order (property indices); empty = design order, the
  // paper's default ("properties are verified in the order they are
  // given").
  std::vector<std::size_t> order;
  // Bit-parallel simulation prefilter (mp/simfilter): runs before any SAT
  // work in the task-based schedulers, falsifying shallow properties with
  // certified replayed counterexamples, harvesting behavior signatures
  // for clustering, and (Full mode) seeding BmcSweep with near-miss
  // prefix states. Off by default; javer_cli --sim-prefilter.
  simfilter::SimFilterOptions sim_filter;
  // Observability (src/obs), both non-owning and optional. `tracer`
  // collects per-slice timeline spans and instant events (Chrome-trace /
  // JSONL export); `metrics` absorbs the run's counters (Ic3Stats, SAT
  // backend, LemmaBus, persist, worker pool) behind one snapshot API and
  // receives a heartbeat snapshot per scheduler round. Null = off: every
  // instrumentation site reduces to one pointer test. Must outlive the
  // run.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  // Run-health monitor (obs/monitor.h): when set, every PropertyTask and
  // BmcSweep registers a progress cell and publishes state / frames /
  // depth / slice scale / activity lock-free; a ProgressMonitor sampling
  // the board renders live reports and runs the stall watchdog (which
  // may request soft preemption through the IC3 budget poll).
  obs::ProgressBoard* progress = nullptr;
  // Phase profiler (obs/profile.h): per-(phase, shard, property) latency
  // histograms for SAT queries and engine phases; --profile-out.
  obs::PhaseProfiler* profiler = nullptr;
  // Deterministic fault injection (src/fault): a --fault-inject spec the
  // task-based schedulers parse into the run's FaultPlan and install for
  // the run's duration. Empty = no injection (the default; every
  // instrumented site then costs one relaxed atomic load).
  std::string fault_plan;
  // Degrade-and-retry ladder: how many times a task whose slice threw
  // (engine exception, bad_alloc, injected fault) is retried — with a
  // fresh engine under a progressively safer config each rung — before
  // it lands at PropertyVerdict::Unknown with its failure chain. 0 =
  // quarantine on the first failure.
  int max_task_retries = 4;
};

}  // namespace javer::mp::sched

#endif  // JAVER_MP_SCHED_ENGINE_OPTIONS_H
