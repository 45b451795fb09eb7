// IC3/PDR engine with the features the paper's study needs:
//  * "just assume" constraints: other properties asserted on all non-final
//    steps, implementing local proofs w.r.t. the projection T_P (§4, §7-A);
//  * state lifting that either respects or ignores the assumed-property
//    constraints (§7-A, ablated in Tables VIII/IX);
//  * strengthening-clause re-use: seed clauses from earlier runs are
//    re-validated (largest self-inductive subset) and installed at F_∞
//    (§6-B, §7-B, ablated in Table VII), through a start-up "prelude"
//    that engines sharing a path conjunction compute once (Ic3PreludeMemo);
//  * inductive invariant export for the clause database;
//  * counterexample traces built from lifted obligation chains, with the
//    universal-lifting property making reconstruction purely simulative.
// Queries run on one activation-literal context for every frame plus a
// lift companion (ic3/frames.h), each a replay of the engine's CNF
// template.
#ifndef JAVER_IC3_IC3_H
#define JAVER_IC3_IC3_H

#include <memory>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "base/timer.h"
#include "cnf/template.h"
#include "ic3/frames.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ts/trace.h"
#include "ts/transition_system.h"

namespace javer::obs {
class MetricsRegistry;
class TaskProgress;
}  // namespace javer::obs

namespace javer::ic3 {

// IC3's start-up facts for one path conjunction (the target plus the
// assumed properties) over one seed set: what an engine installs at F_inf
// before its first bad-state query. They depend on the conjunction and the
// seeds only, never on which member is the target, so every engine of a
// JA shard can start from one copy.
struct Ic3Prelude {
  // F_inf: the seeds' largest self-inductive subset in seed order (the
  // first `seeds_kept` cubes), then the mined singleton invariants in
  // mining order.
  std::vector<ts::Cube> inf_cubes;
  std::size_t seeds_kept = 0;
  // The seeds left out of F_inf (empty, meeting I, or dropped by the
  // fixpoint), sorted. A larger seed set that adds nothing else keeps
  // exactly the same subset.
  std::vector<ts::Cube> seeds_dropped;
  // What is known about each singleton's F_inf consecution query once
  // F_inf is `inf_cubes`, indexed by 2·latch + value (Ic3::unit_stamps_).
  std::vector<std::uint32_t> unit_stamps;
};

// A shard's prelude for one path conjunction, over the seed snapshot the
// shard's ClauseDb held before dispatch. The first engine that starts up
// builds it in its own contexts, under the memo's lock, inside its own
// run() slice, and publishes what it installed; a build cut short by a
// budget expiry or a fault leaves the memo empty and the next engine
// builds it again. Engines whose seeds grew past the snapshot extend it.
// Thread-safe; must outlive its engines.
class Ic3PreludeMemo {
 public:
  explicit Ic3PreludeMemo(std::shared_ptr<const std::vector<ts::Cube>> seeds)
      : seeds_(std::move(seeds)) {}

  // The built prelude, or null before the first complete build.
  std::shared_ptr<const Ic3Prelude> prelude() const {
    base::MutexLock lock(mutex_);
    return prelude_;
  }

 private:
  friend class Ic3;
  const std::shared_ptr<const std::vector<ts::Cube>> seeds_;
  mutable base::Mutex mutex_;
  std::shared_ptr<const Ic3Prelude> prelude_ GUARDED_BY(mutex_);
};

struct Ic3Options {
  // Property indices assumed to hold on non-final steps (local proofs).
  // Empty = global proof.
  std::vector<std::size_t> assumed;
  // §7-A: when true, lifted predecessor cubes are guaranteed to satisfy
  // the assumed properties (no spurious local CEXs, smaller cubes); when
  // false, lifting ignores them (larger cubes, possible spurious CEXs that
  // the caller must detect and retry in respecting mode).
  bool lifting_respects_constraints = false;
  // Candidate invariant clauses from earlier runs, as cubes (clause =
  // negation of cube). Re-validated before use.
  std::vector<ts::Cube> seed_clauses;
  // Shared start-up (see Ic3PreludeMemo) for engines whose {target} ∪
  // assumed set is the memo's. Used only when `seed_clauses` contain the
  // memo's snapshot; otherwise, or when null, the engine builds its own
  // prelude from `seed_clauses`.
  Ic3PreludeMemo* prelude_memo = nullptr;
  // Simplify the engine's transition-relation template once at build time
  // (subsumption + bounded variable elimination, sat/simp/).
  bool simplify = false;

  // Optional shared template memo (cnf/template.h). Every context this
  // engine creates (frames, lift, seed checkers, rebuilds) replays one
  // template; the schedulers pass one memo per run so sibling engines with
  // the same {target} ∪ assumed set share the encoding; null = the engine
  // keeps a private one. Must outlive the engine; thread-safe.
  cnf::TemplateCache* template_cache = nullptr;

  double time_limit_seconds = 0.0;
  std::uint64_t conflict_budget_per_query = 0;
  int max_frames = 100000;
  std::size_t max_obligations = 2u << 20;
  // Rebuild a context once this many activation literals retired (the
  // frame context scales it by its frame count); garbage accumulates in
  // the solver until then.
  int rebuild_threshold = 500;
  // Observability (src/obs): instant events for solver rebuilds and
  // F_inf lemma installs, tagged with the caller's (shard, property). A
  // default (disabled) sink costs one branch per would-be event; the
  // heavyweight per-query counters stay in Ic3Stats regardless.
  obs::TraceSink trace;
  // Phase profiler (obs/profile.h): per-SAT-query latency histograms for
  // consecution / bad_query / lift / mic / push plus CNF replay,
  // keyed by this sink's (shard, property). The sample counts of the
  // query phases equal the matching Ic3Stats counters exactly; seed
  // validation queries are profiled under ic3/seed_validate and the
  // mining simulation sweep under ic3/mine_sim, neither counted in
  // Ic3Stats. Disabled sink = one branch per query, no clock reads.
  obs::ProfileSink profile;
  // Live progress cell (obs/monitor.h): the budget poll publishes
  // frames/obligations/activity through it, and a pending soft-preempt
  // request makes the poll suspend exactly like an exhausted slice
  // budget (resumable Unknown). Null = disabled.
  obs::TaskProgress* progress = nullptr;
};

struct Ic3Stats {
  std::uint64_t obligations = 0;
  std::uint64_t clauses_added = 0;
  std::uint64_t consecution_queries = 0;
  std::uint64_t mic_queries = 0;
  std::uint64_t bad_queries = 0;
  std::uint64_t lift_queries = 0;
  std::uint64_t seed_clauses_kept = 0;
  std::uint64_t seed_clauses_dropped = 0;
  std::uint64_t solver_rebuilds = 0;
  std::uint64_t mined_invariants = 0;
  // Singleton-mining candidates the simulation sweep settled (seen on a
  // live path, hence never inductive) without a SAT query.
  std::uint64_t mining_sim_settled = 0;
  // Start-up: preludes this engine built from scratch (each one
  // simulation sweep, seed fixpoint and mining pass), and starts from a
  // memo prelude another engine built. A finished start-up counts one of
  // the two.
  std::uint64_t prelude_builds = 0;
  std::uint64_t prelude_reused = 0;
  // Encode-reuse accounting (cnf/template.h). A "context" is any SAT
  // solver this engine constructed (frame, lift, seed checker — including
  // rebuilds), each a template replay; encode_seconds is the wall-clock
  // spent constructing them plus template builds this engine performed.
  std::uint64_t solver_contexts_created = 0;
  std::uint64_t peak_live_solvers = 0;
  std::uint64_t template_builds = 0;          // encoded from scratch
  std::uint64_t template_instantiations = 0;  // contexts replayed from one
  double encode_seconds = 0.0;
  // Cross-engine lemma exchange (mp/exchange): candidates offered via
  // add_lemma_candidates that survived re-validation and were installed
  // at F_inf, candidates that failed it, and candidates that were already
  // subsumed by F_inf (e.g. they arrived through the ClauseDb seeds too).
  std::uint64_t lemmas_imported = 0;
  std::uint64_t lemmas_rejected = 0;
  std::uint64_t lemmas_known = 0;
  // Rejected unit candidates settled without a SAT query: their
  // consecution answer was already known (see Ic3::unit_stamps_). Always
  // <= lemmas_rejected.
  std::uint64_t lemmas_settled = 0;
  // Aggregated over every SAT context this run created (including retired
  // and rebuilt ones).
  std::uint64_t sat_propagations = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  // Preprocessing totals of the templates this engine built (zero unless
  // Ic3Options::simplify).
  std::uint64_t simp_vars_eliminated = 0;
  std::uint64_t simp_clauses_in = 0;
  std::uint64_t simp_clauses_out = 0;
};

// Folds one engine's cumulative stats into an obs::MetricsRegistry under
// the canonical "ic3." / "sat." / "simp." counter names. The schedulers
// call this exactly once per closed PropertyTask (and once per joint
// iteration), so the registry's totals reconcile exactly with the summed
// per-property Ic3Stats of the MultiResult.
void fold_stats(obs::MetricsRegistry& metrics, const Ic3Stats& stats);

// The singleton-mining prefilter. Simulates random input sequences from I
// (X resets drawn at random), 64 patterns per word, and flags every
// candidate literal that some pattern shows on a live path: one whose
// earlier steps all satisfied the design constraints, the target and
// every `assumed` property — the path constraints of a consecution query.
// Candidates must contradict their latch's reset. A flagged literal is
// reachable in the constrained system, so its negation holds in no valid
// F_inf and its consecution query would answer Sat. Returns one flag per
// candidate; deterministic in the path conjunction {target} ∪ assumed (not
// in which member is the target), so engines sharing it share the sweep.
std::vector<char> settle_by_simulation(
    const ts::TransitionSystem& ts, std::size_t target,
    const std::vector<std::size_t>& assumed,
    const std::vector<ts::StateLit>& candidates);

// A resource slice for one resumable run() call. Zero fields are
// unlimited. Time is wall-clock for this slice; conflicts count SAT
// conflicts across every solver context the engine owns.
struct Ic3Budget {
  double time_slice_seconds = 0.0;
  std::uint64_t conflict_slice = 0;
};

struct Ic3Result {
  CheckStatus status = CheckStatus::Unknown;
  // Unknown verdicts only: true when the engine merely exhausted its
  // run-slice budget and kept its frames, so another run() call continues
  // where this one stopped; false when a hard limit (overall time limit,
  // max_frames, obligation cap, per-query conflict budget outside a
  // slice) ended the run for good.
  bool resumable = false;
  // Number of time frames unfolded when the engine stopped (the paper's
  // "#time frames" metric, Tables I and X).
  int frames = 0;
  ts::Trace cex;  // valid when status == Fails
  // On Holds: cubes whose negations, conjoined, form an inductive
  // strengthening: I → Inv, Inv ∧ constr ∧ assumed ∧ T → Inv',
  // Inv ∧ constr → P.
  std::vector<ts::Cube> invariant;
  // On Holds: how many leading invariant cubes are kept seed clauses
  // (members of Ic3Options::seed_clauses, which the caller already has).
  std::size_t invariant_seeds = 0;
  // Cumulative over the whole engine lifetime, not just the last slice.
  Ic3Stats stats;
};

class Ic3 {
 public:
  Ic3(const ts::TransitionSystem& ts, std::size_t target_prop,
      Ic3Options opts = {});
  ~Ic3();

  // One-shot run bounded only by Ic3Options limits.
  Ic3Result run();
  // Budgeted, resumable run: does at most `budget` worth of work, then
  // returns Unknown with resumable=true, keeping frames, F_inf clauses and
  // solver contexts. In-flight proof obligations are discarded on suspend
  // (sound: the pending bad state is re-derived by the next slice's
  // query). Call repeatedly until the result is terminal or not resumable.
  Ic3Result run(const Ic3Budget& budget);

  // --- cross-engine lemma exchange (mp/exchange) ---

  // Queues candidate invariant cubes (e.g. a sibling BMC sweep's learned
  // prefix units). Nothing is trusted: at the start of the next run()
  // call each candidate is re-validated in this engine's own context —
  // init disjointness plus consecution relative to F_inf under this
  // engine's assumption set — and only survivors are installed at F_inf,
  // so arbitrary (even unsound) candidates can never flip a verdict.
  void add_lemma_candidates(std::vector<ts::Cube> cubes);

  // F_inf in insertion order: validated seeds, mined singletons, promoted
  // obligations, accepted lemmas. Each is invariant under this engine's
  // assumption set. After start-up the vector only grows, so a caller can
  // take the cubes a slice added as the suffix past the previous size.
  const std::vector<ts::Cube>& inf_lemmas() const { return inf_cubes_; }
  // The singleton query stamps (see unit_stamps_); empty before start-up.
  const std::vector<std::uint32_t>& unit_stamps() const {
    return unit_stamps_;
  }

 private:
  struct Timeout {};  // internal control-flow signal: hard budget expiry
  struct Suspend {};  // internal control-flow signal: slice budget expiry

  // Where a resumed run() picks up. Each stage is idempotent or keeps its
  // progress in member state, so replaying a suspended stage is sound.
  enum class Phase : std::uint8_t {
    // start_up: fetch or build the prelude, installing F_inf and the
    // unit stamps. A suspended start-up restarts from a clean slate (and
    // may then find the memo filled by a sibling).
    StartUp,
    Depth0,  // initial-state property check
    Main,    // blocking / propagation loop
    Done,    // terminal verdict reached
  };

  struct Obligation {
    ts::Cube cube;
    std::vector<bool> state;   // concrete witness state in `cube`
    std::vector<bool> inputs;  // input driving every cube state onward
    int frame = 0;
    int parent = -1;  // index into pool_, towards the bad state
    int depth = 0;    // distance to the bad obligation
  };

  // --- solver contexts ---
  // Level addressing F_inf in the queries below.
  static constexpr int kLevelInf = MonolithicFrameSolver::kFrameInf;

  // All engine logic goes through these; only construction and rebuild
  // code touches a context directly.
  sat::SolveResult consecution(int k, const ts::Cube& cube,
                               bool add_negation,
                               std::vector<std::size_t>* core);
  sat::SolveResult bad_query(int k);
  // Model extraction for the last Sat frame query. Never triggers a
  // rebuild (the model must survive the query that produced it).
  std::vector<bool> model_state() const { return mono_->model_state(); }
  std::vector<bool> model_inputs() const { return mono_->model_inputs(); }
  ts::Cube lift_predecessor(const std::vector<bool>& state,
                            const std::vector<bool>& inputs,
                            const ts::Cube& target, bool respect_assumed);
  ts::Cube lift_bad(const std::vector<bool>& state,
                    const std::vector<bool>& inputs);

  // Lifting context: lift queries need a context free of blocking clauses
  // (see the MonolithicFrameSolver header note), so the engine keeps this
  // one companion solver beside its frame context.
  FrameSolver& lift_ctx();
  // The frame context, created on first use and rebuilt once its retired
  // activations pass the threshold.
  MonolithicFrameSolver& mono();
  // (Re)creates mono_ with `frames` frames and replays the F_inf and
  // delta-frame clause lists into it.
  void install_mono(int frames);
  StepContext::Config base_config();
  // A frame-free context: the lift companion (no constraint units) or a
  // throwaway seed checker for the fixpoint rounds.
  std::unique_ptr<FrameSolver> make_solver(bool constraint_units);
  // The engine's transition-relation template: fetched from the shared
  // cache (or a private one) on first use.
  const cnf::CnfTemplate* acquire_template();
  // Folds construction cost/counters of a just-created context into
  // stats_. `extra_live` covers contexts not (yet) stored in a member —
  // a solver still in the caller's hands or a throwaway seed checker —
  // so peak_live_solvers counts every simultaneously-live context.
  void note_context_created(double seconds, std::uint64_t extra_live);
  void ensure_frame(int k);

  // --- blocking ---
  // Returns false when a counterexample was found (cex_ is set).
  bool block_from_bad_state();
  bool block_obligation(int root_index);
  void enqueue(int obligation_index);
  int pop_min_frame();
  // Highest level >= `from` whose clause set already blocks `cube`
  // (syntactic subsumption), or from-1 if none; INT_MAX for F_inf.
  int highest_blocked_level(const ts::Cube& cube, int from) const;
  void add_blocked_cube(const ts::Cube& cube, int level);
  // Installs a cube at F_inf: its negation is inductive relative to the
  // path constraints alone (PDR's "push to infinity").
  void add_inf_cube(const ts::Cube& cube);

  // --- generalization (generalize.cpp) ---
  ts::Cube shrink_with_core(const ts::Cube& cube,
                            const std::vector<std::size_t>& core) const;
  ts::Cube repair_init_intersection(const ts::Cube& shrunk,
                                    const ts::Cube& original) const;
  // MIC literal dropping with consecution checked at `level` (a frame
  // index, or kLevelInf for the F_inf context).
  ts::Cube mic(ts::Cube cube, int level);
  int push_forward(const ts::Cube& cube, int from_level);

  // --- phase profiling (obs/profile.h) ---
  // Counted consecution call: bumps stats_.consecution_queries (or
  // mic_queries via the mic histogram site) and samples `histo`. Every
  // *counted* SAT query goes through these wrappers so the profiler's
  // per-phase sample counts reconcile exactly with Ic3Stats.
  sat::SolveResult counted_consecution(obs::LatencyHisto* histo,
                                       std::uint64_t Ic3Stats::*counter,
                                       int k, const ts::Cube& cube,
                                       bool add_negation,
                                       std::vector<std::size_t>* core);

  // --- counterexamples ---
  // Builds the trace: `init_state` -[first_inputs]-> chain(ob) ... bad.
  void build_cex(const std::vector<bool>& init_state,
                 const std::vector<bool>& first_inputs, int chain_start);
  // An initial state contained in `cube` (which intersects I).
  std::vector<bool> initial_state_in_cube(const ts::Cube& cube) const;

  // --- start-up (the prelude) ---
  // Installs F_inf and the unit stamps. With a memo whose snapshot the
  // seeds contain, from its prelude: the first engine builds it over the
  // snapshot in its own contexts and publishes it, the others adopt it,
  // and seeds grown past the snapshot extend it (build_prelude with a
  // base). Otherwise the engine builds its own.
  void start_up();
  // Builds the prelude for `seeds` in this engine's contexts:
  //  * the Houdini fixpoint keeps the seeds' largest self-inductive subset
  //    (one checker context per round; a round that drops nothing ends
  //    it), each query one ic3/seed_validate sample;
  //  * mine_singletons installs the inductive singletons.
  // With `base` (a prelude over seeds that `seeds` contain), F_inf starts
  // as base's. Only the seeds base did not keep are re-checked, with its
  // kept cubes as fixed clauses — a Houdini fixpoint never drops a member
  // of an inductive subset of its candidates, so the kept set is still
  // exactly the seeds' — and base's sweep is reused. When no seed is new
  // to base, base is adopted as is, stamps included. Returns the dropped
  // seeds, sorted (the memo keeps them to spot new seeds).
  std::vector<ts::Cube> build_prelude(const std::vector<ts::Cube>& seeds,
                                      const Ic3Prelude* base);
  void adopt_prelude(const Ic3Prelude& prelude);
  // The start-up stats of an F_inf that holds `kept` seeds; every other
  // F_inf cube was mined.
  void finish_start_up(std::size_t kept);
  // Singleton mining: installs every latch literal that contradicts its
  // reset and is one-step inductive relative to the path constraints as
  // an F_inf clause. Under JA assumptions this catches the "other
  // property forbids the trigger" invariants instantly (e.g. a stage
  // latch that can only rise when an assumed property has already
  // failed), which frame-relative generalization discovers only slowly.
  // With `sweep`, one simulation sweep (ic3/mine_sim) first settles the
  // candidates seen on a live path; candidates already stamped live are
  // skipped without a query either way.
  void mine_singletons(bool sweep);

  // --- proof ---
  // Drains lemma_queue_: re-validates each candidate and installs the
  // survivors at F_inf. Runs after start-up so F_inf plumbing exists; on
  // budget expiry the untested remainder is dropped (lemma traffic is
  // best-effort). A unit candidate whose stamp already answers its query
  // (unit_settled) is rejected without one.
  void absorb_lemma_candidates();
  // unit_stamps_ slot of a singleton cube {l}.
  std::uint32_t& unit_stamp(const ts::StateLit& l) {
    return unit_stamps_[2 * static_cast<std::size_t>(l.latch) +
                        (l.value ? 1 : 0)];
  }
  // The stamp of a Sat F_inf query on a singleton made now.
  std::uint32_t sat_stamp() const {
    return static_cast<std::uint32_t>(inf_cubes_.size()) + 1;
  }
  // True when F_inf holds the singleton {l}.
  bool unit_held(const ts::StateLit& l) { return unit_stamp(l) == kHeld; }
  // True when {l}'s F_inf consecution query is known to answer Sat.
  bool unit_settled(const ts::StateLit& l) {
    const std::uint32_t s = unit_stamp(l);
    return s == kLive || s == sat_stamp();
  }
  void propagate_and_check_fixpoint();
  sat::SolveResult checked(sat::SolveResult r) const;

  // --- budget slicing ---
  // Installs the effective deadline for this run() call: the tighter of
  // the overall time limit and the slice. Solver contexts poll it.
  void begin_slice(const Ic3Budget& budget);
  // Throws Timeout on overall expiry, Suspend on slice expiry.
  void poll_budget() const;
  std::uint64_t total_conflicts() const;

  // --- statistics ---
  // Folds a retiring solver context's SAT counters into stats_.
  void absorb_stats(const StepContext& fs);
  // stats_ plus the counters of the still-live solver contexts; pure, so
  // every slice can report cumulative totals.
  Ic3Stats finalize_stats() const;

  const ts::TransitionSystem& ts_;
  std::size_t target_prop_;
  Ic3Options opts_;
  Deadline deadline_;  // overall limit, ticking since construction
  // Effective deadline of the current run() call (overall ∧ slice). All
  // solver contexts hold a pointer to this member; reassigned per slice.
  Deadline slice_deadline_;
  bool slicing_ = false;
  std::uint64_t slice_conflict_limit_ = 0;  // absolute; 0 = unlimited
  Phase phase_ = Phase::StartUp;
  CheckStatus final_status_ = CheckStatus::Unknown;
  // Encode-once transition relation shared by every context this engine
  // creates; from opts_.template_cache or the private own_cache_.
  std::shared_ptr<const cnf::CnfTemplate> tmpl_;
  std::unique_ptr<cnf::TemplateCache> own_cache_;

  std::unique_ptr<FrameSolver> lift_solver_;
  std::unique_ptr<MonolithicFrameSolver> mono_;
  std::vector<std::vector<ts::Cube>> frame_cubes_;  // delta encoding
  std::vector<ts::Cube> inf_cubes_;  // F_inf: seeds + globally inductive
  // The leading inf_cubes_ that are kept seeds (set at start-up).
  std::size_t inf_seed_prefix_ = 0;
  std::vector<ts::Cube> lemma_queue_;   // candidates pending re-validation
  // What is known about the F_inf consecution query of each singleton
  // cube {l}, indexed by 2·latch + value (installed from the prelude):
  //   kLive  the mining sweep saw l on a live path: Sat under every F_inf;
  //   kHeld  F_inf holds {l} (add_inf_cube keeps this current), so l is
  //          no mining candidate and a delivered {l} is already known;
  //   g + 1  the query answered Sat while inf_cubes_.size() == g;
  //   0      nothing known.
  // A g + 1 stamp stays exact while the size is still g: F_inf queries
  // see only the F_inf clauses and the path constraints, the constraints
  // are fixed for the engine's life, and after start-up inf_cubes_ only
  // grows (add_inf_cube appends, nothing erases), so an equal size means
  // the same formula and hence the same answer. An engine that starts
  // from a prelude's F_inf and stamps and then appends to F_inf keeps the
  // stamps: every g + 1 among them falls below the new size and never
  // matches again.
  static constexpr std::uint32_t kLive = ~std::uint32_t{0};
  static constexpr std::uint32_t kHeld = kLive - 1;
  std::vector<std::uint32_t> unit_stamps_;

  std::vector<Obligation> pool_;
  // Min-heap entries: (frame, insertion order, pool index).
  std::vector<std::tuple<int, std::uint64_t, int>> queue_;
  std::uint64_t queue_ticket_ = 0;

  int top_frame_ = 0;  // N: the current working frame
  bool fixpoint_found_ = false;
  int fixpoint_level_ = -1;
  ts::Trace cex_;
  Ic3Stats stats_;

  // Profiler slots, resolved once at construction (null = profiling
  // off). Stable for the profiler's lifetime.
  obs::LatencyHisto* prof_consecution_ = nullptr;
  obs::LatencyHisto* prof_bad_ = nullptr;
  obs::LatencyHisto* prof_lift_ = nullptr;
  obs::LatencyHisto* prof_mic_ = nullptr;
  obs::LatencyHisto* prof_push_ = nullptr;
  obs::LatencyHisto* prof_seed_validate_ = nullptr;
  obs::LatencyHisto* prof_mine_sim_ = nullptr;
  obs::LatencyHisto* prof_replay_ = nullptr;
};

}  // namespace javer::ic3

#endif  // JAVER_IC3_IC3_H
