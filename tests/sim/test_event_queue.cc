/** @file Unit tests for the discrete-event kernel. */

#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/event_queue.h"

namespace deepstore::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleAfter(4, [&] {
            ++fired;
            q.scheduleAfter(5, [&] { ++fired; });
        });
    });
    Tick end = q.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(end, 10u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_THROW(q.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(ran);
    // A cancelled or consumed event cannot be cancelled again.
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterExecutionReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, PendingAndEmptyTrackLiveEvents)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(20, [&] { fired.push_back(20); });
    q.schedule(30, [&] { fired.push_back(30); });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(fired.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 1000);
        q.schedule(when, [&, when] {
            monotonic = monotonic && (when >= last);
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
}

} // namespace
} // namespace deepstore::sim
