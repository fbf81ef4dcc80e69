/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator (engine set-up, query(), appendDB(), step(), completion
 * callbacks and feature lookups) and around its calibration runs.
 *
 * Spans are timed on the steady (wall) clock, which is cheap to read
 * millions of times. Self times are accumulated online as spans close:
 * a span's self time is its duration minus the time covered by its
 * child spans, and every span counts. Closed spans are kept in memory
 * and written out at the end as Chrome trace-event JSON. Past a fixed
 * record budget, childless step and feature spans are no longer
 * stored (a 10 s traced run makes millions of them, hundreds of MB as
 * JSON), so the file is incomplete on long runs; it states how many
 * spans were left out.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using HostClock = std::chrono::steady_clock;

/** Seconds elapsed on the host clock since `t0`. */
double secondsSince(HostClock::time_point t0);

/** CPU seconds the calling thread has run. The simulator runs on one
 *  thread, so differences of this clock are its host time without the
 *  time a shared machine gives to other work (steal, preemption). */
double threadCpuSeconds();

/** What a span wraps. */
enum class SpanKind : std::uint8_t
{
    Construct,   ///< DeepStore constructor
    WriteDb,     ///< writeDB()
    LoadModel,   ///< loadModel()
    SetQc,       ///< setQC()
    Query,       ///< query(): QC probe, evaluateModel, scatter
    Append,      ///< appendDB()
    StepFinish,  ///< a step() that completed at least one query
    StepIdle,    ///< a step() that completed no query
    Callback,    ///< the benchmark's onComplete callback
    Feature,     ///< the delegating FeatureSource::featureAt
    Calibrate,   ///< the benchmark's machine-speed calibration kernel
    Count_
};

constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::Count_);

/** Span recorder. A disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }
    /** Switch recording on or off; only while no span is open. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; spans nest strictly (close in reverse order). */
    void open(SpanKind kind, std::uint64_t query_id = 0);
    /** Close the innermost span; `relabel` (unless Count_) replaces
     *  the kind it was opened with. */
    void close(SpanKind relabel = SpanKind::Count_);
    /** Set the query id of the innermost open span. */
    void tagQuery(std::uint64_t query_id)
    {
        stack_.back().queryId = query_id;
    }

    /** Summed self time per kind, in seconds. */
    double selfSeconds(SpanKind kind) const;
    /** Summed self time over every kind, in seconds. */
    double totalSelfSeconds() const;
    std::uint64_t spanCount(SpanKind kind) const
    {
        return counts_[static_cast<std::size_t>(kind)];
    }

    /** Write every stored span as Chrome trace-event JSON. @return
     *  false when the file cannot be written. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Open
    {
        SpanKind kind;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t queryId;
        std::int64_t startNs;
        std::int64_t childNs;
        bool hasChildren;
    };
    struct Record
    {
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t queryId;
        std::int64_t startNs;
        std::int64_t endNs;
        SpanKind kind;
    };

    std::int64_t nowNs() const;

    bool enabled_;
    HostClock::time_point epoch_ = HostClock::now();
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::uint64_t nextId_ = 1;
    std::uint64_t dropped_ = 0;
    std::array<std::int64_t, kSpanKinds> selfNs_{};
    std::array<std::uint64_t, kSpanKinds> counts_{};
};

/** RAII span; a no-op when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, SpanKind kind, std::uint64_t query_id = 0)
        : tracer_(tracer)
    {
        if (tracer_.enabled())
            tracer_.open(kind, query_id);
    }
    ~Span()
    {
        if (tracer_.enabled())
            tracer_.close(kind_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Label the span differently when it closes. */
    void relabel(SpanKind kind) { kind_ = kind; }
    /** Attach the query id once the wrapped call has returned it. */
    void
    tagQuery(std::uint64_t query_id)
    {
        if (tracer_.enabled())
            tracer_.tagQuery(query_id);
    }

  private:
    Tracer &tracer_;
    SpanKind kind_ = SpanKind::Count_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
