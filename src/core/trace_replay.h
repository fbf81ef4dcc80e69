/**
 * @file
 * Trace replay: feed a timestamped query trace (paper §5) through a
 * query system and report throughput and the response-time
 * distribution. replayTrace drives a live DeepStore through its
 * asynchronous submit path: arrivals become event-queue events at
 * their trace timestamps, queries overlap on the accelerator complex
 * under the scheduler's sharing model, and per-query response times
 * come from real completion ticks.
 */

#ifndef DEEPSTORE_CORE_TRACE_REPLAY_H
#define DEEPSTORE_CORE_TRACE_REPLAY_H

#include <optional>

#include "core/deepstore.h"
#include "workloads/trace.h"

namespace deepstore::core {

/** Response-time statistics from a replay. */
struct ReplayStats
{
    std::uint64_t queries = 0;
    double missRate = 0.0;   ///< 1.0 when no cache is configured
    double meanSeconds = 0.0;
    double p50Seconds = 0.0;
    double p95Seconds = 0.0;
    double p99Seconds = 0.0;
    double maxSeconds = 0.0;
    /** Server busy fraction over the trace span. */
    double utilization = 0.0;
    /** Completed-work rate (queries/second of wall time). */
    double throughput = 0.0;
};

/** How replayTrace turns trace records into queries. */
struct EngineReplayConfig
{
    std::size_t k = 5;
    std::uint64_t modelId = 0;
    std::uint64_t dbId = 0;
    std::uint64_t dbStart = 0;
    /** 0 = scan to the end of the database. */
    std::uint64_t dbEnd = 0;
    std::optional<Level> level;
    /** QFVs come from universe->featureOf(queryId, featureDim). */
    std::int64_t featureDim = 0;
    const workloads::QueryUniverse *universe = nullptr;
};

/**
 * Replay the trace on a live engine: each record's query is
 * submitted asynchronously at its arrival tick, queries interleave on
 * the accelerator complex, and response times are completion -
 * arrival in simulated time. The engine's own Query
 * Cache (setQC) decides hits/misses. Note `utilization` here reports
 * accelerator-time occupancy over the span — it can exceed 1 when
 * scans overlap.
 */
ReplayStats replayTrace(DeepStore &store,
                        const workloads::QueryTrace &trace,
                        const EngineReplayConfig &config);

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_TRACE_REPLAY_H
