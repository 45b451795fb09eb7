// javerbench_driver: the in-process half of the javer benchmark
// (javerbench/run.py is the other half). It links libjaver and makes
// exactly the public calls a user of javer_cli triggers:
//
//   javerbench_driver gen --workload W --seed N --out design.aag
//       writes the seeded synthetic design of workload W as ASCII AIGER.
//   javerbench_driver verify --workload W --seed N --aiger design.aag
//                            [--cache-dir DIR] [--trace]
//       reads the AIGER file (kSetupReps times, to time set-up), runs the
//       workload's engine once, checks every verdict with an untimed
//       oracle and prints one JSON object on stdout.
//   javerbench_driver cli-flags --workload W [--cache-dir DIR]
//       prints the javer_cli arguments that select the same engine
//       configuration, one per line (the cross-check test uses them).
//
// With --trace the run attaches the program's own obs::PhaseProfiler,
// obs::MetricsRegistry and obs::Tracer through EngineOptions and reports
// the per-layer ledger; without it every observability pointer is null,
// as in a plain javer_cli run.
//
// Exit code: 0 when every property got the expected, re-checked verdict;
// 1 when the oracle found a wrong, unchecked or missing verdict; 2 on a
// usage or input error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aiger_io.h"
#include "cnf/template.h"
#include "gen/synthetic.h"
#include "ic3/certify.h"
#include "mp/clause_db.h"
#include "mp/clustering.h"
#include "mp/ja_verifier.h"
#include "mp/report.h"
#include "mp/shard/sharded_scheduler.h"
#include "mp/simfilter/sim_filter.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace {

using namespace javer;

// One benchmark workload: the generator spec (its seed is replaced by
// the run's seed) and the javer_cli engine configuration it is run with.
// javerbench/README.md explains why each workload was chosen.
struct Workload {
  const char* name;
  std::uint64_t default_seed;
  gen::SyntheticSpec spec;
  bool sharded;      // false: --engine ja; true: --engine sharded
  unsigned threads;  // 1 for ja, which runs single-threaded
  bool sim_full;     // --sim-prefilter full
};

gen::SyntheticSpec failing_shape(std::size_t wrap_bits,
                                 std::size_t gated_failures) {
  gen::SyntheticSpec s;
  s.wrap_counter_bits = wrap_bits;
  s.sat_counter_bits = 8;
  s.rings = 7;
  s.ring_size = 8;
  s.ring_props = 56;
  s.pair_props = 36;
  s.unreachable_props = 36;
  s.unreachable_stride = 2;
  s.chain_props = 10;
  s.det_fail_props = 1;
  s.input_fail_props = gated_failures;
  s.masked_fail_props = 4;
  return s;
}

gen::SyntheticSpec proof_shape() {
  gen::SyntheticSpec s;
  s.sat_counter_bits = 8;
  s.rings = 4;
  s.ring_size = 16;
  s.ring_props = 16;
  s.ring_prop_stride = 4;
  s.pair_props = 40;
  s.unreachable_props = 60;
  s.unreachable_stride = 2;
  s.chain_props = 32;
  s.chain_depth = 24;
  return s;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"ja-debugset", 400, failing_shape(14, 4), false, 1, false},
      {"sharded-cold", 380, failing_shape(13, 12), true, 4, true},
      // run.py warms a --cache-dir for this one (run.WARM).
      {"sharded-warm", 24, proof_shape(), true, 4, true},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

gen::SyntheticSpec seeded_spec(const Workload& w, std::uint64_t seed) {
  gen::SyntheticSpec s = w.spec;
  s.seed = seed;
  return s;
}

// The javer_cli arguments equivalent to fill_engine and sharded_options
// below. Every value not listed here is a javer_cli default.
std::vector<std::string> cli_flags(const Workload& w,
                                   const std::string& cache_dir) {
  if (!w.sharded) return {"--engine", "ja"};
  std::vector<std::string> f = {"--engine", "sharded", "--threads",
                                std::to_string(w.threads)};
  if (w.sim_full) {
    f.push_back("--sim-prefilter");
    f.push_back("full");
  }
  if (!cache_dir.empty()) {
    f.push_back("--cache-dir");
    f.push_back(cache_dir);
  }
  return f;
}

// javer_cli's defaults, restated: --time-limit 60, --bmc-depth 64,
// --sim-depth 32, --sim-patterns 256, --seed 1, --cluster-threshold 0.5,
// --max-cluster-size 64, --lemma-exchange units, monolithic IC3 with the
// CNF template, clause re-use on, lax lifting, no preprocessing, design
// order, no fault plan.
constexpr double kCliTimeLimit = 60.0;
constexpr int kCliBmcDepth = 64;

// Set-up repetitions per verify process; set-up takes about a millisecond,
// so one sample is noise and the median of these is reported.
constexpr int kSetupReps = 25;

struct Observability {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::PhaseProfiler* profiler = nullptr;
};

void fill_engine(mp::sched::EngineOptions& e, const Workload& w,
                 const std::string& cache_dir, const Observability& o) {
  e.time_limit_per_property = kCliTimeLimit;
  e.clause_reuse = true;
  e.lifting_respects_constraints = false;
  e.simplify = false;
  e.ic3_solver = ic3::Ic3SolverMode::Monolithic;
  e.ic3_use_template = true;
  e.cache_dir = cache_dir;
  e.sim_filter.mode = w.sim_full ? mp::simfilter::SimFilterMode::Full
                                 : mp::simfilter::SimFilterMode::Off;
  e.sim_filter.depth = 32;
  e.sim_filter.patterns = 256;
  e.sim_filter.seed = 1;
  e.tracer = o.tracer;
  e.metrics = o.metrics;
  e.profiler = o.profiler;
}

mp::shard::ShardedOptions sharded_options(const Workload& w,
                                          const std::string& cache_dir,
                                          const Observability& o) {
  mp::shard::ShardedOptions opts;
  opts.base.proof_mode = mp::sched::ProofMode::Local;
  opts.base.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  opts.base.num_threads = w.threads;
  opts.base.bmc_max_depth = kCliBmcDepth;
  fill_engine(opts.base.engine, w, cache_dir, o);
  opts.clustering.min_similarity = 0.5;
  opts.clustering.max_cluster_size = 64;
  opts.exchange = mp::exchange::ExchangeMode::Units;
  return opts;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- untimed verdict oracle -------------------------------------------------

struct OracleReport {
  std::size_t failed = 0;  // properties whose verdict did not check out
  std::size_t class_counts[3] = {0, 0, 0};
  std::vector<std::string> failures;  // first few, for the log

  void fail(std::size_t p, const std::string& why) {
    ++failed;
    if (failures.size() < 8) {
      std::string line = "P";
      line += std::to_string(p);
      line += ": ";
      failures.push_back(line + why);
    }
  }
};

bool verdict_matches(int expected_class, mp::PropertyVerdict v) {
  switch (expected_class) {
    case 0:
      return v == mp::PropertyVerdict::HoldsGlobally ||
             v == mp::PropertyVerdict::HoldsLocally;
    case 1:
      return v == mp::PropertyVerdict::FailsLocally;
    case 2:
      return v == mp::PropertyVerdict::HoldsLocally;
    default:
      return false;
  }
}

// Compares every verdict with the generator's class, re-certifies every
// Holds with fresh SAT queries under the assumed set javer_cli --certify
// uses, and re-simulates every Fails trace.
OracleReport check_verdicts(const ts::TransitionSystem& ts,
                            const aig::Aig& design,
                            const aig::Aig& generated,
                            const mp::MultiResult& result) {
  OracleReport rep;
  const std::vector<int> classes = gen::synthetic_expected_classes(generated);
  const std::size_t n = ts.num_properties();
  if (generated.num_properties() != n || result.per_property.size() != n) {
    rep.fail(0, "property count differs from the generated design");
    return rep;
  }
  for (std::size_t p = 0; p < n; ++p) {
    if (design.properties()[p].name != generated.properties()[p].name) {
      rep.fail(p, "AIGER file differs from the generated design");
      return rep;
    }
    rep.class_counts[classes[p]]++;
  }
  cnf::TemplateCache certifier_templates(ts);
  for (std::size_t p = 0; p < n; ++p) {
    const mp::PropertyResult& pr = result.per_property[p];
    if (pr.verdict == mp::PropertyVerdict::Unknown) {
      rep.fail(p, "unsolved");
      continue;
    }
    if (!verdict_matches(classes[p], pr.verdict)) {
      rep.fail(p, std::string("verdict ") + mp::to_string(pr.verdict) +
                      " but generator class " + std::to_string(classes[p]));
      continue;
    }
    const bool local = pr.verdict == mp::PropertyVerdict::HoldsLocally ||
                       pr.verdict == mp::PropertyVerdict::FailsLocally;
    std::vector<std::size_t> assumed;
    if (local) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j != p && !ts.expected_to_fail(j)) assumed.push_back(j);
      }
    }
    if (pr.verdict == mp::PropertyVerdict::HoldsLocally ||
        pr.verdict == mp::PropertyVerdict::HoldsGlobally) {
      ic3::CertificateCheck check = ic3::certify_strengthening(
          ts, p, assumed, pr.invariant, &certifier_templates);
      if (!check.ok()) rep.fail(p, "certificate: " + check.failure);
      continue;
    }
    if (pr.cex.steps.empty()) {
      rep.fail(p, "failing verdict without a trace");
      continue;
    }
    const ts::TraceAnalysis a = ts::analyze_trace(ts, pr.cex);
    const int last = static_cast<int>(pr.cex.steps.size()) - 1;
    bool ok = a.starts_initial && a.transitions_valid && a.constraints_ok &&
              a.first_failure[p] == last;
    for (std::size_t j : assumed) {
      if (a.first_failure[j] >= 0 && a.first_failure[j] < last) ok = false;
    }
    if (!ok) rep.fail(p, "witness does not replay");
  }
  return rep;
}

// --- the verify command -----------------------------------------------------

struct Args {
  std::string command;
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::string aiger;
  std::string out;
  std::string cache_dir;
  bool trace = false;
};

// JSON numbers with every digit the measurement has.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct JsonObject {
  std::ostringstream out;
  bool first = true;
  void key(const char* k) {
    out << (first ? "" : ",") << '"' << k << "\":";
    first = false;
  }
  void add(const char* k, double v) {
    key(k);
    out << num(v);
  }
  void add_raw(const char* k, const std::string& json) {
    key(k);
    out << json;
  }
  std::string str() const { return "{" + out.str() + "}"; }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  obs::detail::append_json_escaped(out, s);
  return out + "\"";
}

int verify(const Workload& w, std::uint64_t seed, const Args& args) {
  // Set-up: the AIGER reader plus the TransitionSystem constructor, the
  // two public calls every verification starts with. Repeated so the
  // millisecond-scale figure is a median, not one noisy sample.
  std::vector<double> read_times, build_times, setup_times;
  aig::Aig design;
  std::optional<ts::TransitionSystem> ts;
  for (int r = 0; r < kSetupReps; ++r) {
    ts.reset();
    const double t0 = now_s();
    design = aig::read_aiger_file(args.aiger);
    const double t1 = now_s();
    ts.emplace(design);
    const double t2 = now_s();
    read_times.push_back(t1 - t0);
    build_times.push_back(t2 - t1);
    setup_times.push_back(t2 - t0);
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PhaseProfiler profiler;
  Observability o;
  if (args.trace) o = {&tracer, &metrics, &profiler};
  obs::TraceSink bench_sink(o.tracer);

  mp::ClauseDb db;
  mp::MultiResult result;
  std::size_t shards = 0;
  mp::exchange::ExchangeStats xs;
  std::optional<mp::shard::ShardedOptions> sopts;
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    obs::TraceSpan span(bench_sink, "bench", "run");
    if (w.sharded) {
      sopts = sharded_options(w, args.cache_dir, o);
      mp::shard::ShardedScheduler engine(*ts, *sopts);
      result = engine.run(db);
      shards = engine.num_shards();
      xs = engine.exchange_stats();
    } else {
      mp::JaOptions opts;
      fill_engine(opts, w, args.cache_dir, o);
      result = mp::JaVerifier(*ts, opts).run(db);
    }
  }
  const double verify_seconds = now_s() - t0;
  const double run_cpu = cpu_s() - cpu0;
  const double rss = peak_rss_mb();

  // The clustering layer, timed on the same TS with the clustering
  // options run() used. With the simulation prefilter on, run() adds the
  // sweep's behavior signatures, so the sweep is repeated here, untimed
  // and on this thread (its outcome does not depend on the thread count).
  double cluster_seconds = 0.0;
  if (args.trace && sopts) {
    mp::ClusterOptions copts = sopts->clustering;
    const mp::simfilter::SimFilterOptions& sim = sopts->base.engine.sim_filter;
    if (sim.mode != mp::simfilter::SimFilterMode::Off) {
      mp::simfilter::SimFilter filter(
          *ts, sim, sopts->base.proof_mode == mp::sched::ProofMode::Local,
          nullptr, nullptr);
      std::vector<std::size_t> targets(ts->num_properties());
      std::iota(targets.begin(), targets.end(), std::size_t{0});
      filter.run(targets, nullptr);
      copts.signatures = filter.signatures();
    }
    std::size_t merges = 0;
    obs::TraceSpan span(bench_sink, "bench", "cluster_properties");
    const double c0 = now_s();
    const std::size_t replayed =
        mp::cluster_properties(*ts, copts, &merges).size();
    cluster_seconds = now_s() - c0;
    if (replayed != shards || merges != result.sim_stats.signature_merges) {
      throw std::runtime_error(
          "timed clustering differs from the run's: " +
          std::to_string(replayed) + " shards, " + std::to_string(merges) +
          " signature merges vs " + std::to_string(shards) + ", " +
          std::to_string(result.sim_stats.signature_merges));
    }
  }

  // Untimed oracle.
  const double o0 = now_s();
  OracleReport rep;
  {
    obs::TraceSpan span(bench_sink, "bench", "oracle");
    const aig::Aig generated = gen::make_synthetic(seeded_spec(w, seed));
    rep = check_verdicts(*ts, design, generated, result);
  }
  const double oracle_seconds = now_s() - o0;

  JsonObject j;
  j.add_raw("workload", json_string(w.name));
  j.add("seed", static_cast<double>(seed));
  j.add("properties", static_cast<double>(ts->num_properties()));
  j.add_raw("class_counts",
            "[" + std::to_string(rep.class_counts[0]) + "," +
                std::to_string(rep.class_counts[1]) + "," +
                std::to_string(rep.class_counts[2]) + "]");
  j.add("proved", static_cast<double>(result.num_proved()));
  j.add("failed", static_cast<double>(result.num_failed()));
  j.add("unsolved", static_cast<double>(result.num_unsolved()));
  j.add("debugging_set", static_cast<double>(result.debugging_set().size()));
  j.add("ops_failed", static_cast<double>(rep.failed));
  std::string failures = "[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    if (i > 0) failures += ',';
    failures += json_string(rep.failures[i]);
  }
  j.add_raw("oracle_failures", failures + "]");
  j.add("oracle_s", oracle_seconds);
  j.add("verify_s", verify_seconds);
  j.add("setup_s", median(setup_times));
  j.add("peak_rss_mb", rss);

  if (args.trace) {
    auto phase_s = [&](const char* phase) {
      return static_cast<double>(profiler.phase_total_us(phase)) * 1e-6;
    };
    auto c = [&](const char* name) {
      return static_cast<double>(metrics.counter(name));
    };
    const mp::simfilter::SimFilterStats& ss = result.sim_stats;
    const double threads = w.threads;
    JsonObject L;
    L.add("aig.read_s", median(read_times));
    L.add("ts.build_s", median(build_times));
    // Profiled layers of the run; each is the summed wall time of its
    // phase's samples across every engine and thread.
    const char* const phases[][2] = {
        {"cnf.replay_s", "cnf/replay"},     {"cnf.encode_s", "cnf/encode"},
        {"ic3.consecution_s", "ic3/consecution"},
        {"ic3.mic_s", "ic3/mic"},           {"ic3.push_s", "ic3/push"},
        {"ic3.bad_query_s", "ic3/bad_query"}, {"ic3.lift_s", "ic3/lift"},
        {"bmc.solve_s", "bmc/solve"},       {"persist.load_s", "persist/load"},
        {"persist.store_s", "persist/store"},
    };
    double profiled = 0.0;
    for (const auto& ph : phases) {
      const double s = phase_s(ph[1]);
      profiled += s;
      L.add(ph[0], s);
    }
    L.add("sim.s", ss.seconds);
    L.add("cnf.replays", static_cast<double>(profiler.phase_count("cnf/replay")));
    for (const char* name :
         {"sat.propagations", "sat.conflicts", "sat.decisions",
          "ic3.consecution_queries", "ic3.clauses_added",
          "ic3.solver_contexts_created",
          "ic3.lift_queries", "ic3.seed_clauses_kept",
          "ic3.seed_clauses_dropped", "bmc.sweeps", "bmc.cex_found",
          "pool.items_stolen", "pool.idle_wakeups", "task.slices",
          "persist.templates_loaded", "persist.dbs_loaded",
          "persist.cubes_loaded", "persist.dbs_stored"}) {
      L.add(name, c(name));
    }
    L.add("ic3.peak_live_solvers", metrics.gauge("ic3.peak_live_solvers"));
    L.add("ic3.seed_keep_rate",
          ratio(c("ic3.seed_clauses_kept"),
                c("ic3.seed_clauses_kept") + c("ic3.seed_clauses_dropped")));
    L.add("sim.kills", static_cast<double>(ss.kills));
    L.add("sim.candidates", static_cast<double>(ss.candidates));
    L.add("sim.kill_rate", ratio(static_cast<double>(ss.kills),
                                 static_cast<double>(ss.candidates)));
    L.add("cluster.s", cluster_seconds);
    L.add("cluster.shards", static_cast<double>(shards));
    L.add("exchange.published", static_cast<double>(xs.published));
    L.add("exchange.delivered", static_cast<double>(xs.delivered));
    L.add("exchange.imported", static_cast<double>(xs.imported));
    L.add("exchange.rejected", static_cast<double>(xs.rejected));
    L.add("exchange.import_rate", xs.hit_rate());
    L.add("sched.threads", threads);
    L.add("sched.cpu_s", run_cpu);
    L.add("sched.utilization", ratio(run_cpu, threads * verify_seconds));
    // The ledger's residual, out of the run's thread-seconds (threads x
    // verify_s): time not covered by a profiled phase or the simulation
    // sweep, i.e. scheduler and generalization work, idle workers, and
    // time the OS gave to other processes. Phase samples are wall-clock,
    // so CPU time is not the whole they add up to: on a contended host a
    // preempted SAT query counts in its phase but not in the CPU total.
    L.add("unattributed_s", threads * verify_seconds - profiled - ss.seconds);
    L.add("trace_events", static_cast<double>(tracer.event_count()));
    L.add("trace_dropped", static_cast<double>(tracer.dropped_events()));
    // Thread-seconds inside the engine's own work spans, from the Tracer
    // rather than the profiler: every IC3 phase sample is taken inside a
    // task slice and every BMC solve inside a sweep, so these bound the
    // profiled phases independently of the ledger's whole.
    double slice_us = 0.0, sweep_us = 0.0;
    for (const obs::TraceEvent& ev : tracer.events()) {
      const std::string_view cat = ev.category, name = ev.name;
      if (cat == "task" && name == "slice") slice_us += ev.dur_us;
      if (cat == "bmc" && name == "sweep") sweep_us += ev.dur_us;
    }
    L.add("span.task_slice_s", slice_us * 1e-6);
    L.add("span.bmc_sweep_s", sweep_us * 1e-6);
    j.add_raw("layers", L.str());
  }
  std::printf("%s\n", j.str().c_str());
  return rep.failed == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--trace") {
      a.trace = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '-' || end == v || *end != '\0') return false;
    } else if (arg == "--aiger") {
      a.aiger = v;
    } else if (arg == "--out") {
      a.out = v;
    } else if (arg == "--cache-dir") {
      a.cache_dir = v;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: javerbench_driver gen|verify|cli-flags --workload W "
                 "[--seed N] [--out F] [--aiger F] [--cache-dir D] "
                 "[--trace]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "javerbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::uint64_t seed = args.seed.value_or(w->default_seed);
  try {
    if (args.command == "gen" && !args.out.empty()) {
      const aig::Aig design = gen::make_synthetic(seeded_spec(*w, seed));
      aig::write_aiger_file(args.out, design, false);
      std::size_t counts[3] = {0, 0, 0};
      for (int c : gen::synthetic_expected_classes(design)) counts[c]++;
      std::printf("{\"seed\":%llu,\"class_counts\":[%zu,%zu,%zu]}\n",
                  static_cast<unsigned long long>(seed), counts[0], counts[1],
                  counts[2]);
      return 0;
    }
    if (args.command == "cli-flags") {
      for (const std::string& f : cli_flags(*w, args.cache_dir)) {
        std::printf("%s\n", f.c_str());
      }
      return 0;
    }
    if (args.command == "verify" && !args.aiger.empty()) {
      if (!args.cache_dir.empty()) {
        std::filesystem::create_directories(args.cache_dir);
      }
      return verify(*w, seed, args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "javerbench_driver: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "javerbench_driver: bad arguments for '%s'\n",
               args.command.c_str());
  return 2;
}
