// MetricsRegistry (src/obs): the counter half of the observability
// layer. One registry per run absorbs today's scattered stats structs —
// ic3::Ic3Stats, SAT-backend counters, LemmaBus traffic, PersistStats,
// WorkerPool steal/idle counts — behind a single named-counter snapshot
// API, so consumers (heartbeats, the CLI --metrics-out log, the ROADMAP
// daemon's admission control) read one table instead of five structs.
//
// Counters are monotonic uint64 accumulators (add only); gauges are
// doubles with sum/set/max update modes (time totals, peaks). snapshot()
// is a consistent point-in-time copy; heartbeat() appends a timestamped
// snapshot to an in-registry history the schedulers tick once per round,
// exported as JSONL.
//
// Thread-safe; update calls are mutex-guarded map lookups, so the
// intended call rate is per-slice / per-round, not per-SAT-conflict (the
// hot engines keep their plain struct counters and fold them in here at
// task close).
#ifndef JAVER_OBS_METRICS_H
#define JAVER_OBS_METRICS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/sync.h"

namespace javer::obs {

// A consistent point-in-time copy of the registry, sorted by name.
struct MetricsSnapshot {
  double elapsed_seconds = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  bool empty() const { return counters.empty() && gauges.empty(); }
  // 0 / 0.0 for names never touched.
  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Monotonic counter: adds `delta` (counters only ever grow).
  void add(std::string_view name, std::uint64_t delta = 1);
  // Monotonic counter fed from an external cumulative total: keeps the
  // max of the current value and `value`, so re-folding the same
  // source (e.g. Tracer::dropped_events() from repeated runs) is
  // idempotent instead of double-counting.
  void raise(std::string_view name, std::uint64_t value);
  // Gauge updates: accumulate a double total, overwrite, or keep-max.
  void add_gauge(std::string_view name, double delta);
  void set_gauge(std::string_view name, double value);
  void max_gauge(std::string_view name, double value);

  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;

  MetricsSnapshot snapshot(double elapsed_seconds = 0.0) const;

  // Appends a timestamped record to the heartbeat history. Cheap by
  // construction: the name tables are shared (copy-on-write snapshots
  // taken once per *new-name insertion*, not per heartbeat), so under
  // the mutex a heartbeat only copies the raw value arrays; the
  // name/value pairing is materialized outside the lock at export time.
  // Cost per beat is O(live metrics), independent of history length.
  void heartbeat(double elapsed_seconds);
  std::vector<MetricsSnapshot> heartbeats() const;
  // Distinct counter name-tables referenced by the stored heartbeats —
  // 1 when no counter name was introduced mid-history (tests pin the
  // sharing so heartbeat() can't silently regress to full map copies).
  std::size_t heartbeat_name_tables() const;

  // One JSON object per line: every heartbeat, then the current state as
  // a final record.
  void write_jsonl(std::ostream& out) const;

 private:
  using NameTable = std::shared_ptr<const std::vector<std::string>>;

  // One heartbeat: shared (sorted) name tables + aligned value arrays
  // copied under the mutex. Materialized into a MetricsSnapshot lazily.
  struct HeartbeatRec {
    double elapsed_seconds = 0.0;
    NameTable counter_names;
    std::vector<std::uint64_t> counter_values;
    NameTable gauge_names;
    std::vector<double> gauge_values;
  };

  MetricsSnapshot snapshot_locked(double elapsed_seconds) const
      REQUIRES(mu_);
  static MetricsSnapshot materialize(const HeartbeatRec& rec);

  mutable base::Mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_ GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ GUARDED_BY(mu_);
  // Sorted key snapshots, rebuilt only when a new name is inserted;
  // aligned with the maps' iteration order.
  NameTable counter_names_ GUARDED_BY(mu_);
  NameTable gauge_names_ GUARDED_BY(mu_);
  std::vector<HeartbeatRec> heartbeats_ GUARDED_BY(mu_);
};

}  // namespace javer::obs

#endif  // JAVER_OBS_METRICS_H
