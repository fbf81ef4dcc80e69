#include "trace.h"

#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

/** Stored-span budget (~40 B each). Set-up, query, append, callback
 *  and completing-step spans are always stored; childless idle steps
 *  and feature lookups stop being stored past it. */
constexpr std::size_t kStoredSpanBudget = 100'000;

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Construct:
        return "core.setup.construct";
      case SpanKind::WriteDb:
        return "core.setup.write_db";
      case SpanKind::LoadModel:
        return "core.setup.load_model";
      case SpanKind::SetQc:
        return "core.setup.set_qc";
      case SpanKind::Query:
        return "core.submit";
      case SpanKind::Append:
        return "core.append";
      case SpanKind::StepFinish:
        return "core.finish";
      case SpanKind::StepIdle:
        return "sim.step";
      case SpanKind::Callback:
        return "bench.callback";
      case SpanKind::Feature:
        return "workloads.feature";
      case SpanKind::Calibrate:
        return "bench.calibrate";
      case SpanKind::Count_:
        break;
    }
    return "?";
}

} // namespace

double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               HostClock::now() - epoch_)
        .count();
}

void
Tracer::open(SpanKind kind, std::uint64_t query_id)
{
    std::uint64_t parent = 0;
    if (!stack_.empty()) {
        parent = stack_.back().id;
        stack_.back().hasChildren = true;
    }
    stack_.push_back(
        Open{kind, nextId_++, parent, query_id, nowNs(), 0, false});
}

void
Tracer::close(SpanKind relabel)
{
    const std::int64_t end = nowNs();
    Open s = stack_.back();
    stack_.pop_back();
    if (relabel != SpanKind::Count_)
        s.kind = relabel;
    const std::int64_t dur = end - s.startNs;
    const auto k = static_cast<std::size_t>(s.kind);
    selfNs_[k] += dur - s.childNs;
    ++counts_[k];
    if (!stack_.empty())
        stack_.back().childNs += dur;

    const bool bulky =
        !s.hasChildren &&
        (s.kind == SpanKind::StepIdle || s.kind == SpanKind::Feature);
    if (bulky && records_.size() >= kStoredSpanBudget) {
        ++dropped_;
        return;
    }
    records_.push_back(
        Record{s.id, s.parent, s.queryId, s.startNs, end, s.kind});
}

double
Tracer::selfSeconds(SpanKind kind) const
{
    return static_cast<double>(selfNs_[static_cast<std::size_t>(kind)]) *
           1e-9;
}

double
Tracer::totalSelfSeconds() const
{
    std::int64_t sum = 0;
    for (std::int64_t v : selfNs_)
        sum += v;
    return static_cast<double>(sum) * 1e-9;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":"
                    "{\"unstoredSpans\":%llu},\"traceEvents\":[\n",
                 static_cast<unsigned long long>(dropped_));
    // Records are in close order; Chrome nests complete ("X") events
    // by time, and `parent` keeps the causal link explicit.
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        std::fprintf(
            f,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":%llu,\"query\":%llu}}%s\n",
            spanName(r.kind), static_cast<double>(r.startNs) * 1e-3,
            static_cast<double>(r.endNs - r.startNs) * 1e-3,
            static_cast<unsigned long long>(r.id),
            static_cast<unsigned long long>(r.parent),
            static_cast<unsigned long long>(r.queryId),
            i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
