#include "mp/shard/sharded_scheduler.h"

#include <utility>

namespace javer::mp::shard {

ShardedScheduler::ShardedScheduler(const ts::TransitionSystem& ts,
                                   ShardedOptions opts)
    : scheduler_(ts, std::move(opts.base),
                 std::move(static_cast<sched::Sharding&>(opts))) {}

MultiResult ShardedScheduler::run() { return scheduler_.run(); }

MultiResult ShardedScheduler::run(ClauseDb& db) { return scheduler_.run(db); }

}  // namespace javer::mp::shard
