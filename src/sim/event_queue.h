/**
 * @file
 * Discrete-event simulation kernel for the SSD simulator.
 *
 * A single EventQueue orders callbacks by (tick, insertion sequence) so
 * simultaneous events fire deterministically in schedule order, which
 * keeps runs reproducible regardless of container internals. The API
 * is schedule / scheduleAfter / cancel; multi-stage flows (the query
 * scheduler's per-query state machine) schedule each next stage from
 * the callback of the previous one.
 */

#ifndef DEEPSTORE_SIM_EVENT_QUEUE_H
#define DEEPSTORE_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.h"

namespace deepstore::sim {

/** Handle to a scheduled event; usable to cancel it before it fires. */
using EventId = std::uint64_t;

/**
 * Tick-ordered event queue. Not thread-safe; the whole simulator is
 * single-threaded by design (as SSD-Sim and SCALE-Sim are).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     * @pre when >= now().
     * @return an id usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule a callback `delay` ticks from now. */
    EventId scheduleAfter(Tick delay, Callback cb);

    /**
     * Cancel a pending event. Returns false when the event already
     * fired, was already cancelled, or never existed.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return liveEvents_; }

    /**
     * Run a single event (the earliest pending one).
     * @return false when the queue was empty.
     */
    bool step();

    /** Run until the queue drains. @return the final tick. */
    Tick run();

    /**
     * Run until the queue drains or simulated time would pass `limit`.
     * Events scheduled exactly at `limit` still fire.
     */
    Tick runUntil(Tick limit);

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        EventId id;
        // Ordered min-first by (when, seq).
        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    std::vector<Callback> callbacks_;
    std::vector<bool> cancelled_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t liveEvents_ = 0;
};

} // namespace deepstore::sim

#endif // DEEPSTORE_SIM_EVENT_QUEUE_H
