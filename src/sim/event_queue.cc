#include "sim/event_queue.h"

#include "common/logging.h"

namespace deepstore::sim {

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < now_)
        panic("scheduling event in the past (when=%llu, now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    EventId id = callbacks_.size();
    callbacks_.push_back(std::move(cb));
    cancelled_.push_back(false);
    queue_.push(Entry{when, nextSeq_++, id});
    ++liveEvents_;
    return id;
}

EventId
EventQueue::scheduleAfter(Tick delay, Callback cb)
{
    return schedule(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    if (id >= callbacks_.size() || cancelled_[id] || !callbacks_[id])
        return false;
    cancelled_[id] = true;
    callbacks_[id] = nullptr;
    --liveEvents_;
    return true;
}

bool
EventQueue::step()
{
    while (!queue_.empty()) {
        Entry e = queue_.top();
        queue_.pop();
        if (cancelled_[e.id])
            continue;
        now_ = e.when;
        Callback cb = std::move(callbacks_[e.id]);
        callbacks_[e.id] = nullptr;
        cancelled_[e.id] = true; // consumed
        --liveEvents_;
        ++executed_;
        cb();
        return true;
    }
    return false;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (!queue_.empty()) {
        // Peek past cancelled entries without executing.
        Entry e = queue_.top();
        if (cancelled_[e.id]) {
            queue_.pop();
            continue;
        }
        if (e.when > limit)
            break;
        step();
    }
    if (now_ < limit)
        now_ = limit;
    return now_;
}

} // namespace deepstore::sim
