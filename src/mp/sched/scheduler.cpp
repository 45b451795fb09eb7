#include "mp/sched/scheduler.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "aig/sim.h"
#include "base/log.h"
#include "base/timer.h"
#include "fault/fault.h"
#include "mp/joint_verifier.h"
#include "mp/sched/bmc_sweep.h"
#include "mp/sched/worker_pool.h"
#include "mp/simfilter/sim_filter.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "persist/persist.h"
#include "ts/cone_view.h"

namespace javer::mp::sched {

namespace {

// The Jnt-ver loop: one IC3 run per iteration on the conjunction of the
// unsolved properties (every property in design order at first), each
// bounded by what is left of the total budget.
void run_aggregate(const ts::TransitionSystem& ts,
                   const SchedulerOptions& opts, const Timer& total,
                   MultiResult& result) {
  const obs::TraceSink sink(opts.engine.tracer);
  obs::MetricsRegistry* metrics = opts.engine.metrics;
  const double total_limit = opts.engine.total_time_limit;
  std::vector<std::size_t> unsolved(ts.num_properties());
  std::iota(unsolved.begin(), unsolved.end(), std::size_t{0});

  // Live progress: one run-level cell (property -1, as for a BMC sweep)
  // that the aggregate engines' budget polls heartbeat into, and one
  // cell per property, running until an iteration closes it. The
  // property cells take their activity from the engine cell, so the
  // stall watchdog sees them move while the engine does.
  obs::ProgressBoard* board = opts.engine.progress;
  std::vector<obs::TaskProgress*> cells;
  obs::TaskProgress* engine_cell = nullptr;
  auto publish = [&](const std::vector<std::size_t>& props,
                     obs::ProgressState state) {
    if (board == nullptr) return;
    for (std::size_t p : props) cells[p]->set_state(state);
  };
  if (board != nullptr) {
    engine_cell = board->register_task(/*property=*/-1);
    for (std::size_t p : unsolved) {
      cells.push_back(board->register_task(static_cast<long long>(p),
                                           /*shard=*/-1, engine_cell));
    }
    engine_cell->set_state(obs::ProgressState::kRunning);
    publish(unsolved, obs::ProgressState::kRunning);
  }

  while (!unsolved.empty()) {
    double remaining = 0.0;
    if (total_limit > 0) {
      remaining = total_limit - total.seconds();
      if (remaining <= 0) break;
    }

    auto [agg_aig, agg_index] = make_aggregate(ts.aig(), unsolved);
    ts::TransitionSystem agg_ts(agg_aig);
    // No shared cache: each iteration checks a fresh aggregate TS, but the
    // engine's private template still serves all of its contexts.
    ic3::Ic3Options engine_opts = make_ic3_options(opts.engine, -1, -1);
    engine_opts.time_limit_seconds = remaining;
    engine_opts.progress = engine_cell;

    const std::uint64_t iter_begin = sink.begin();
    Timer iteration;
    ic3::Ic3 engine(agg_ts, agg_index, engine_opts);
    ic3::Ic3Result er = engine.run();
    double spent = iteration.seconds();
    if (sink.enabled()) {
      sink.complete("sched", "joint_iteration", iter_begin, -1,
                    "\"unsolved\":" + std::to_string(unsolved.size()));
    }
    if (metrics != nullptr) metrics->heartbeat(total.seconds());

    const bool holds = er.status == CheckStatus::Holds;
    if (!holds && er.status != CheckStatus::Fails) break;  // budget gone
    // A proof closes every unsolved property. A counterexample refutes
    // every unsolved property false at its final step (the prefix
    // satisfied all of them, so these are exactly the first-failing ones
    // of this trace); the loop restarts on the rest.
    std::vector<std::size_t> closed;
    std::vector<std::size_t> next;
    if (holds) {
      closed = std::move(unsolved);
    } else {
      aig::Simulator sim(ts.aig());
      const ts::Step& last = er.cex.steps.back();
      sim.eval(last.state, last.inputs);
      for (std::size_t p : unsolved) {
        (sim.value(ts.property_lit(p)) ? next : closed).push_back(p);
      }
      if (closed.empty()) {
        // Should be impossible for a genuine aggregate CEX; avoid looping.
        JAVER_LOG(Info) << "sched: aggregate cex refutes no property; "
                           "stopping";
        break;
      }
    }
    for (std::size_t p : closed) {
      PropertyResult& pr = result.per_property[p];
      pr.verdict = holds ? PropertyVerdict::HoldsGlobally
                         : PropertyVerdict::FailsGlobally;
      pr.seconds = spent;
      pr.frames = er.frames;
      if (!holds) pr.cex = er.cex;
      if (board != nullptr) cells[p]->set_frames(er.frames);
    }
    publish(closed, holds ? obs::ProgressState::kHolds
                          : obs::ProgressState::kFails);
    // The iteration's engine stats go to one property only, so summing
    // engine_stats over per_property counts each IC3 run once. The fold
    // mirrors that, which keeps the registry totals equal to the sum.
    result.per_property[closed.front()].engine_stats = er.stats;
    if (metrics != nullptr) ic3::fold_stats(*metrics, er.stats);
    unsolved = std::move(next);
    JAVER_LOG(Verbose) << "sched: joint iteration closed " << closed.size()
                       << ", " << unsolved.size() << " remaining";
  }
  // Whatever the budget left open stays Unknown; the engine cell has no
  // verdict of its own and goes terminal with the run.
  publish(unsolved, obs::ProgressState::kUnknown);
  if (engine_cell != nullptr) {
    engine_cell->set_state(obs::ProgressState::kUnknown);
  }
}

}  // namespace

Scheduler::Scheduler(const ts::TransitionSystem& ts, SchedulerOptions opts,
                     std::optional<Sharding> sharding)
    : ts_(ts), opts_(std::move(opts)), sharding_(std::move(sharding)) {
  if (sharding_ && opts_.dispatch == DispatchPolicy::JointAggregate) {
    throw std::invalid_argument(
        "sched: the JointAggregate policy runs on the one-shard partition "
        "only");
  }
}

std::vector<std::size_t> Scheduler::assumptions_for(std::size_t prop) const {
  if (opts_.proof_mode != ProofMode::Local) return {};
  return local_assumptions(ts_, prop);
}

std::vector<std::vector<std::size_t>> Scheduler::partition(
    std::vector<std::uint64_t> signatures,
    std::size_t* signature_merges) const {
  const std::vector<std::size_t>& order = opts_.engine.order;
  if (!sharding_) {
    if (!order.empty()) return {order};
    std::vector<std::size_t> all(ts_.num_properties());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return {all};
  }
  ClusterOptions copts = sharding_->clustering;
  if (!signatures.empty()) copts.signatures = std::move(signatures);
  auto clusters = cluster_properties(ts_, copts, signature_merges);
  if (!order.empty()) {
    // Honor the verification order within each cluster (properties absent
    // from the order keep design order, after the ordered ones).
    std::vector<std::size_t> rank(ts_.num_properties(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] < rank.size()) rank[order[i]] = i;
    }
    for (auto& cluster : clusters) {
      std::sort(cluster.begin(), cluster.end(),
                [&](std::size_t a, std::size_t b) {
                  return rank[a] != rank[b] ? rank[a] < rank[b] : a < b;
                });
    }
  }
  return clusters;
}

MultiResult Scheduler::run() {
  ClauseDb db;
  return run(db);
}

MultiResult Scheduler::run(ClauseDb& db) {
  Timer total;
  MultiResult result;
  result.per_property.resize(ts_.num_properties());
  exchange_stats_ = {};
  // The aggregate policy takes no clause database.
  if (opts_.dispatch == DispatchPolicy::JointAggregate) {
    num_shards_ = 1;
    run_aggregate(ts_, opts_, total, result);
  } else {
    run_tasks(db, total, result);
  }
  result.total_seconds = total.seconds();
  if (obs::MetricsRegistry* metrics = opts_.engine.metrics) {
    // raise(): repeated runs folding the same tracer's cumulative drop
    // counter stay idempotent instead of double-counting.
    obs::Tracer* tracer = opts_.engine.tracer;
    if (tracer != nullptr && tracer->dropped_events() > 0) {
      metrics->raise("obs.trace_dropped", tracer->dropped_events());
    }
    result.metrics = metrics->snapshot(result.total_seconds);
  }
  return result;
}

void Scheduler::run_tasks(ClauseDb& db, const Timer& total,
                          MultiResult& result) {
  const obs::TraceSink sink(opts_.engine.tracer);
  obs::MetricsRegistry* metrics = opts_.engine.metrics;
  const EngineOptions& engine = opts_.engine;

  // Fault injection (src/fault): parse EngineOptions::fault_plan and
  // install the injector for the run's duration. A malformed plan throws
  // here, before any work — that is a configuration error, not a fault
  // to isolate. Declared before every task/pool/sweep object so the scope
  // outlives all instrumented call paths.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!engine.fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(engine.fault_plan));
    injector->set_observability(engine.tracer, metrics);
  }
  fault::ScopedInjection injection(injector.get());

  const bool sharded = sharding_.has_value();
  const bool local = opts_.proof_mode == ProofMode::Local;
  const bool hybrid = opts_.dispatch == DispatchPolicy::HybridBmcIc3;

  WorkerPool pool(
      resolve_worker_count(opts_.num_threads, ts_.num_properties()));
  pool.set_observability(sink, metrics);

  // Simulation prefilter (mp/simfilter) runs before the partition: its
  // kills close tasks with oracle-certified counterexamples, its near-miss
  // seeds feed the shard sweeps, and its behavior signatures join the
  // clustering similarity — properties that behaved identically on every
  // simulated pattern are candidate-equivalent and share a shard.
  std::unique_ptr<simfilter::SimFilter> filter;
  if (engine.sim_filter.mode != simfilter::SimFilterMode::Off) {
    filter = std::make_unique<simfilter::SimFilter>(
        ts_, engine.sim_filter, local, engine.tracer, metrics);
    std::vector<std::size_t> targets(ts_.num_properties());
    std::iota(targets.begin(), targets.end(), std::size_t{0});
    filter->run(targets, &pool);
    result.sim_stats = filter->stats();
  }

  std::size_t sig_merges = 0;
  const auto clusters = partition(
      filter ? filter->signatures() : std::vector<std::uint64_t>{},
      &sig_merges);
  num_shards_ = clusters.size();
  result.sim_stats.signature_merges = sig_merges;
  if (metrics != nullptr && sig_merges > 0) {
    metrics->add("sim.signature_merges", sig_merges);
  }

  exchange::LemmaBus bus(
      clusters.size(),
      sharded ? sharding_->exchange : exchange::ExchangeMode::Off);
  bus.set_trace(sink);
  ShardedClauseDb dbs(clusters.size());
  if (engine.clause_reuse) dbs.seed_all(db.snapshot());
  // Cone-restricted task engines (ts/cone_view.h): every target runs on
  // its closure, the latches its cone shares transitively with the cones
  // of the properties it assumes and of the design constraints. One view
  // per distinct closure smaller than the design, built on first use and
  // shared by every task with that closure; a closure holding every
  // latch runs on the design itself. Declared before the template memo
  // and the tasks, which point into the views.
  std::vector<bool> assumable(ts_.num_properties(), false);
  for (std::size_t j = 0; local && j < assumable.size(); ++j) {
    assumable[j] = !ts_.expected_to_fail(j);  // local_assumptions' rule
  }
  const ts::ClosureIndex closures(ts_, assumable);
  std::map<std::vector<int>, std::unique_ptr<ts::ConeView>> views;
  auto view_for = [&](std::size_t p) -> const ts::ConeView* {
    std::vector<int> closure = closures.closure(p);
    if (closure.size() == ts_.num_latches()) return nullptr;
    std::unique_ptr<ts::ConeView>& view = views[closure];
    if (!view) view = std::make_unique<ts::ConeView>(ts_, closures, closure);
    return view.get();
  };
  // One template memo for the whole run, shared by every shard's tasks:
  // templates are keyed by (design fingerprint, {target} ∪ assumed) —
  // which in local mode is the same property set for every non-ETF target
  // of a closure, regardless of shard — so sibling tasks stop re-encoding
  // the transition relation. Thread-safe; the pool hits it concurrently.
  cnf::TemplateCache templates(ts_);

  // Warm-start persistence (EngineOptions::cache_dir): the shared
  // template replays from disk, and every shard's ClauseDb is seeded from
  // the previous run's snapshot for the same (design, shard-member-set)
  // key — for the trivial partition, the full property set — so an
  // unchanged design with unchanged partition starts each shard from its
  // proven invariants. Engines re-validate every seeded cube, so cache
  // corruption can only cost warmth, never soundness.
  std::unique_ptr<persist::PersistCache> cache;
  if (!engine.cache_dir.empty()) {
    try {
      cache = std::make_unique<persist::PersistCache>(engine.cache_dir);
    } catch (const std::exception& e) {
      JAVER_LOG(Info) << "sched: warm-start cache unusable, running cold: "
                      << e.what();
    }
  }
  const std::uint64_t fp =
      cache && engine.clause_reuse ? aig::fingerprint(ts_.aig()) : 0;
  auto shard_key = [&](std::size_t i) {
    return persist::index_set_signature(clusters[i]);
  };
  if (cache) {
    cache->set_trace(sink);
    cache->set_profile(obs::ProfileSink(engine.profiler));
    templates.attach_store(cache.get());
    for (std::size_t i = 0; engine.clause_reuse && i < clusters.size(); ++i) {
      if (auto cubes = cache->load_clause_db(ts_, fp, shard_key(i))) {
        dbs.shard(i).add(*cubes);
      }
    }
  }

  // One shard per cluster: its own task pool, ClauseDb shard, start-up
  // preludes, and (for the hybrid policy) its own shared-unrolling BMC
  // sweep.
  struct Shard {
    std::size_t id = 0;
    int tag = -1;  // trace/profile/progress shard tag; -1 = unsharded
    // Declared before `tasks`, whose engines point into them.
    std::vector<std::unique_ptr<ic3::Ic3PreludeMemo>> preludes;
    std::vector<std::unique_ptr<PropertyTask>> tasks;
    std::unique_ptr<BmcSweep> sweep;
  };
  std::vector<Shard> shards(clusters.size());
  std::vector<int> shard_of(ts_.num_properties(), -1);
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    Shard& s = shards[i];
    s.id = i;
    s.tag = sharded ? static_cast<int>(i) : -1;
    for (std::size_t p : clusters[i]) {
      auto task = std::make_unique<PropertyTask>(ts_, p, assumptions_for(p),
                                                 engine, local, s.tag);
      if (bus.enabled()) task->attach_exchange(&bus, i);
      task->attach_templates(&templates);
      task->attach_view(view_for(p));
      s.tasks.push_back(std::move(task));
      shard_of[p] = static_cast<int>(i);
    }
    if (hybrid) s.sweep = std::make_unique<BmcSweep>(ts_, opts_, s.tag);

    // One start-up prelude per view and path conjunction that two or
    // more of the shard's tasks share (under local proofs, every non-ETF
    // target of a closure: the view restricts their common conjunction
    // alike), over the seeds the shard's database holds before dispatch,
    // projected into the view. ETF targets and global proofs have
    // conjunctions of their own, so their engines build private preludes.
    std::map<std::pair<const ts::ConeView*, std::vector<std::size_t>>,
             std::vector<PropertyTask*>>
        by_path;
    for (auto& t : s.tasks) {
      std::vector<std::size_t> path = t->assumed();
      path.push_back(t->prop());
      std::sort(path.begin(), path.end());
      by_path[{t->view(), std::move(path)}].push_back(t.get());
    }
    const auto start_seeds =
        engine.clause_reuse
            ? dbs.shard(i).shared_snapshot()
            : std::make_shared<const std::vector<ts::Cube>>();
    for (const auto& [key, group] : by_path) {
      if (group.size() < 2) continue;
      const ts::ConeView* view = key.first;
      s.preludes.push_back(std::make_unique<ic3::Ic3PreludeMemo>(
          view != nullptr ? std::make_shared<const std::vector<ts::Cube>>(
                                view->project(*start_seeds))
                          : start_seeds));
      for (PropertyTask* t : group) t->attach_prelude(s.preludes.back().get());
    }
  }

  // Prefilter results: close every killed task (the cex is already
  // oracle-certified) and route each near-miss seed to its property's
  // owning shard sweep.
  if (filter != nullptr) {
    for (const simfilter::SimKill& k : filter->kills()) {
      if (shard_of[k.prop] < 0) continue;
      for (auto& t : shards[shard_of[k.prop]].tasks) {
        if (t->prop() == k.prop && t->open()) t->resolve_fails(k.cex, k.depth);
      }
    }
    for (simfilter::NearMissSeed& sd : filter->take_seeds()) {
      if (hybrid && shard_of[sd.prop] >= 0) {
        shards[shard_of[sd.prop]].sweep->add_near_miss_seeds({std::move(sd)});
      }
    }
  }

  const double total_limit = engine.total_time_limit;
  auto out_of_time = [&] {
    return total_limit > 0 && total.seconds() >= total_limit;
  };
  auto open_in = [](Shard& s) {
    std::vector<PropertyTask*> open;
    for (auto& t : s.tasks) {
      if (t->open()) open.push_back(t.get());
    }
    return open;
  };
  // Every open task, paired with the ClauseDb shard it seeds from and
  // publishes into.
  auto open_tasks = [&] {
    std::vector<std::pair<ClauseDb*, PropertyTask*>> open;
    for (Shard& s : shards) {
      for (PropertyTask* t : open_in(s)) open.emplace_back(&dbs.shard(s.id), t);
    }
    return open;
  };
  if (!hybrid) {  // RunToCompletion: every task drains on the pool
    // With one thread the pool drains on the caller in index order, so
    // this is also the classic sequential separate/JA loop.
    const auto items = open_tasks();
    pool.run(items.size(), [&](std::size_t i) {
      if (out_of_time()) return;  // stays open; closed Unknown below
      auto [db, t] = items[i];
      while (t->open()) t->run_slice(TaskBudget{}, db);
    });
  } else {  // HybridBmcIc3 rounds, two pool passes per round
    const TaskBudget slice{opts_.ic3_slice_seconds, opts_.ic3_slice_conflicts};
    int round = 0;
    while (!out_of_time()) {
      const std::uint64_t round_begin = sink.begin();
      std::vector<Shard*> live;
      for (Shard& s : shards) {
        if (!open_in(s).empty()) live.push_back(&s);
      }
      if (live.empty()) break;

      // Pass 1: per-shard BMC sweeps, each publishing its prefix units.
      pool.run(live.size(), [&](std::size_t i) {
        Shard& s = *live[i];
        // Recompute the remaining budget per item: with fewer workers
        // than shards the sweeps serialize, and each must only get what
        // is actually left, not the round's opening balance.
        if (out_of_time()) return;
        double remaining =
            total_limit > 0 ? total_limit - total.seconds() : 0.0;
        // An exhausted sweep can neither find failures nor produce
        // units; skip its bus traffic. (The harvest still runs on the
        // round the sweep exhausts.)
        const bool exchange = bus.enabled() && !s.sweep->exhausted();
        try {
          s.sweep->sweep(open_in(s), remaining);
          if (exchange) bus.publish(s.id, s.sweep->harvest_unit_candidates());
        } catch (const std::exception& e) {
          // A sweep failure is quarantined to its shard: mark the sweep
          // exhausted and let the shard's IC3 tasks finish on their own.
          JAVER_LOG(Info) << "sched: shard " << s.id
                          << ": BMC sweep failed, disabling: " << e.what();
          s.sweep->disable();
          if (metrics != nullptr) metrics->add("fault.caught");
          sink.with_shard(s.tag).instant("fault", "sweep_failure", round);
        }
      });

      // Pass 2: one IC3 slice for every still-open task, shard-agnostic
      // on the pool (this is where shard load-balancing happens).
      const auto open = open_tasks();
      if (open.empty() || out_of_time()) break;
      pool.run(open.size(), [&](std::size_t i) {
        open[i].second->run_slice(slice, open[i].first);
      });
      if (metrics != nullptr) {
        metrics->add("sched.rounds");
        metrics->heartbeat(total.seconds());
      }
      if (sink.enabled()) {
        std::string args = "\"round\":" + std::to_string(round);
        if (sharded) args += ",\"shards\":" + std::to_string(live.size());
        args += ",\"open\":" + std::to_string(open.size());
        sink.complete("sched", "round", round_begin, -1, std::move(args));
      }
      round++;
    }
  }

  // Every task closes exactly once, including ones the budget never let
  // start.
  for (Shard& s : shards) {
    for (auto& t : s.tasks) {
      if (t->open()) t->close_unknown();
      result.per_property[t->prop()] = std::move(t->result());
    }
    if (s.sweep != nullptr) {
      result.sim_stats.seed_hits += s.sweep->seed_hits();
      result.sim_stats.seed_discarded += s.sweep->seed_discarded();
    }
  }

  if (engine.clause_reuse) db.add(dbs.merged_snapshot());
  if (cache) {
    for (std::size_t i = 0; engine.clause_reuse && i < clusters.size(); ++i) {
      const std::vector<ts::Cube> snap = dbs.shard(i).snapshot();
      if (!snap.empty()) cache->store_clause_db(fp, shard_key(i), snap);
    }
    result.cache_stats = cache->stats();
    if (metrics != nullptr) persist::fold_stats(*metrics, result.cache_stats);
  }
  exchange_stats_ = bus.stats();
  if (sharded) {
    // The trivial partition has no exchange to report; its outputs keep
    // the unsharded shape.
    result.exchange_per_shard.reserve(bus.num_shards());
    for (std::size_t i = 0; i < bus.num_shards(); ++i) {
      result.exchange_per_shard.push_back(bus.channel_stats(i));
    }
    if (metrics != nullptr) {
      metrics->add("exchange.published", exchange_stats_.published);
      metrics->add("exchange.duplicates", exchange_stats_.duplicates);
      metrics->add("exchange.delivered", exchange_stats_.delivered);
      metrics->add("exchange.imported", exchange_stats_.imported);
      metrics->add("exchange.rejected", exchange_stats_.rejected);
      metrics->add("exchange.redundant", exchange_stats_.redundant);
    }
  }
}

}  // namespace javer::mp::sched
