/**
 * @file
 * DeepStore benchmark driver: runs one named workload against the
 * public core::DeepStore API, measures host and simulated metrics,
 * checks every completed query's top-K against an independent
 * reference, and prints one JSON object as its last line.
 *
 *   perfbench --workload <scan_mlp|array_ingest|qc_zipf> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * --trace 0 prints the end-to-end metrics of an untraced run.
 * --trace 1 runs the workload untraced and then traced with the same
 * seed, requires both runs to agree exactly, and prints the per-layer
 * metrics (host self time per layer from the benchmark's spans, work
 * counters, simulated stage times) and writes the spans as Chrome
 * trace-event JSON to trace_<workload>_<seed>.json in the build
 * directory.
 *
 * Simulated ("sim_") metrics and exact counters come from a fixed
 * window: the first `window` completed queries of the timed section.
 * Everything inside the window is a function of the seed alone, so the
 * figures repeat bit-for-bit; the host keeps running the same load
 * after the window until --seconds have passed. Host time in the
 * metrics is the simulator thread's CPU time, so time the machine gives
 * to other work does not count, rescaled by a calibration kernel that
 * gauges how fast the machine runs the thread. The simulator's timing
 * model is not validated against hardware.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/deepstore.h"
#include "reference.h"
#include "trace.h"
#include "workloads/feature_gen.h"

namespace ds = deepstore;
using namespace perfbench;

namespace {

// ---- workload definitions ------------------------------------------

enum class Scn
{
    Dot,     ///< one DotProduct fuse
    FuseMlp, ///< Multiply fuse + FC 256x256 ReLU + FC 256x256
};

struct Workload
{
    const char *name;
    const char *why;
    /** Array nodes (0 = one SSD) and flash channels per SSD (0 = the
     *  default geometry). */
    std::uint32_t nodes = 0;
    std::uint32_t channels = 0;
    Scn scn = Scn::Dot;
    std::int64_t dim = 128;
    std::uint64_t dbFeatures = 0;
    std::uint64_t dbTopics = 32;
    std::size_t k = 10;
    /** Closed loop: clients, each with one query in flight or thinking
     *  (0 = open loop). */
    std::uint32_t depth = 0;
    /** Closed loop: mean of the seeded exponential think time, in
     *  simulated seconds, a client waits before it resubmits. It
     *  makes the simulated latencies depend on the seed. */
    double thinkSimSeconds = 0.0;
    /** Open loop: Poisson arrivals per simulated second. */
    double arrivalsPerSimSecond = 0.0;
    /** Completions in the deterministic window. */
    std::uint64_t window = 0;
    /** host_qps is the median rate over blocks of this many
     *  completions (10 or more blocks per run). */
    std::uint64_t qpsBlock = 0;
    /** Ingest: `appends` batches of `appendFeatures`, one after every
     *  `appendEvery` completions. */
    std::uint32_t appends = 0;
    std::uint64_t appendFeatures = 0;
    std::uint64_t appendEvery = 0;
    /** Query Cache and the Zipf query universe feeding it. */
    bool qc = false;
    std::uint64_t universe = 0;
    double zipfAlpha = 0.0;
    std::size_t qcCapacity = 0;
    double qcThreshold = 0.0;
    std::uint64_t warmQueries = 0;
    double warmHitMin = 0.0;
    double warmHitMax = 0.0;
    /** Query vector = alpha * topic centroid + beta * N(0, 1) noise.
     *  The generator's raw vectors saturate both sigmoids (dot scores
     *  near 42), which turns the top-K into tie order; these scales
     *  keep SCN and QCN scores inside the sigmoid's slope. */
    double alpha = 1.0;
    double beta = 0.0;
};

std::vector<Workload>
workloadTable()
{
    std::vector<Workload> t;
    {
        Workload w;
        w.name = "scan_mlp";
        w.why = "host time is functional SCN scoring in nn::Executor; "
                "the simulated device is compute-bound";
        w.scn = Scn::FuseMlp;
        w.dim = 256;
        // 768 features per channel unit overrun its 512-feature
        // station FIFO (32 DFV pages of 16 features), so DFV
        // backpressure engages.
        w.channels = 2;
        w.dbFeatures = 1536;
        w.depth = 4;
        w.thinkSimSeconds = 200e-6; // ~2% of the query latency
        w.window = 40;
        w.qpsBlock = 4;
        w.alpha = 20.0;
        w.beta = 10.0;
        t.push_back(w);
    }
    {
        Workload w;
        w.name = "array_ingest";
        w.why = "feature lookups dominate host time; scatter/merge, "
                "host fabric and FTL writes run beside the scans";
        w.nodes = 4;
        w.channels = 8;
        w.dbFeatures = 2048;
        w.depth = 16;
        // About a fifth of the query latency: shorter think times leave
        // the simulated figures the same for most seeds (the device
        // serialises queries in lockstep).
        w.thinkSimSeconds = 100e-6;
        // 192 completions with appends, then 576 at the final depth.
        w.window = 768;
        w.qpsBlock = 32;
        // Each append nests one more CompositeFeatureSource in front
        // of every lookup, so the count stays fixed and moderate.
        w.appends = 24;
        w.appendFeatures = 128;
        w.appendEvery = 8;
        w.alpha = 0.05;
        w.beta = 0.05;
        t.push_back(w);
    }
    {
        Workload w;
        w.name = "qc_zipf";
        w.why = "Query Cache probe and hit path under open-loop Zipf "
                "traffic";
        w.dbFeatures = 128;
        // About a quarter of the ~44,500 queries per simulated second
        // a miss-only closed loop (depth 16-64, full QC) sustains
        // here. At half that capacity the p99 moved by ~25% from seed
        // to seed (queueing bursts), too wide to gate on.
        w.arrivalsPerSimSecond = 11000.0;
        // A long window steadies the seed-to-seed spread of the
        // Poisson arrival count and of the p99 latency.
        w.window = 9000;
        w.qpsBlock = 512;
        w.qc = true;
        w.universe = 10000;
        w.zipfAlpha = 0.7;
        w.qcCapacity = 1000;
        w.qcThreshold = 0.45;
        w.warmQueries = 1500;
        w.warmHitMin = 0.15;
        w.warmHitMax = 0.50;
        w.alpha = 0.05;
        w.beta = 0.05;
        t.push_back(w);
    }
    return t;
}

ds::nn::ModelBundle
makeScn(Scn kind, std::int64_t dim, std::uint64_t seed)
{
    ds::nn::Model m(kind == Scn::Dot ? "bench-dot" : "bench-fuse-mlp",
                    dim, false);
    if (kind == Scn::Dot) {
        m.addLayer(ds::nn::Layer::elementWise("dot",
                                              ds::nn::EwOp::DotProduct,
                                              dim));
    } else {
        m.addLayer(ds::nn::Layer::elementWise(
            "fuse", ds::nn::EwOp::Multiply, dim));
        m.addLayer(ds::nn::Layer::fc("fc1", dim, 256,
                                     ds::nn::Activation::ReLU));
        m.addLayer(ds::nn::Layer::fc("fc2", 256, 256,
                                     ds::nn::Activation::None));
    }
    auto w = ds::nn::ModelWeights::random(m, seed);
    return ds::nn::ModelBundle{std::move(m), std::move(w)};
}

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Database features and query vectors generated from the seed (the
 *  Runner draws arrivals and Zipf query ids from it too). */
class Inputs
{
  public:
    Inputs(const Workload &w, std::uint64_t seed)
        : w_(w), seed_(seed), gen_(w.dim, w.dbTopics, seed)
    {
    }

    const ds::workloads::FeatureGenerator &generator() const
    {
        return gen_;
    }

    /** Query vector for query-universe id `u`. */
    std::vector<float>
    query(std::uint64_t u) const
    {
        ds::Rng rng(mix(seed_ ^ mix(u + 0x51ED)));
        const auto c = gen_.centroid(rng.next() % w_.dbTopics);
        std::vector<float> q(c.size());
        for (std::size_t i = 0; i < c.size(); ++i)
            q[i] = static_cast<float>(w_.alpha * c[i] +
                                      w_.beta * rng.gaussian());
        return q;
    }

    /** Row-major copy of database features [0, count). */
    std::vector<float>
    features(std::uint64_t count) const
    {
        std::vector<float> out;
        out.reserve(count * static_cast<std::uint64_t>(w_.dim));
        for (std::uint64_t i = 0; i < count; ++i) {
            const auto f = gen_.featureAt(i);
            out.insert(out.end(), f.begin(), f.end());
        }
        return out;
    }

  private:
    const Workload &w_;
    std::uint64_t seed_;
    ds::workloads::FeatureGenerator gen_;
};

/** Delegating feature source owned by the benchmark: serves generator
 *  features [offset, offset + count), counting and tracing lookups. */
class TracedSource : public ds::core::FeatureSource
{
  public:
    TracedSource(const ds::workloads::FeatureGenerator &gen,
                 std::uint64_t offset, std::uint64_t count,
                 Tracer &tracer, std::uint64_t &calls)
        : gen_(gen), offset_(offset), count_(count), tracer_(tracer),
          calls_(calls)
    {
    }

    std::uint64_t count() const override { return count_; }
    std::int64_t dim() const override { return gen_.dim(); }

    std::vector<float>
    featureAt(std::uint64_t index) const override
    {
        Span span(tracer_, SpanKind::Feature);
        ++calls_;
        return gen_.featureAt(offset_ + index);
    }

  private:
    const ds::workloads::FeatureGenerator &gen_;
    std::uint64_t offset_;
    std::uint64_t count_;
    Tracer &tracer_;
    std::uint64_t &calls_;
};

// ---- machine speed ----------------------------------------------------

/** Reference CPU time of calibrate(), which sets the scale of the
 *  calibrated figures. */
constexpr double kCalibrationRefSeconds = 0.5e-3;

/** Keeps the calibration kernel's result alive. */
volatile float calibrationSink;

/**
 * A fixed CPU kernel owned by the benchmark, run in short slices
 * through the measured work to gauge how fast the machine runs this
 * thread right now (on a shared host the speed of one core swings by
 * up to 2x with the load of its neighbours). It mixes what the
 * simulator spends its time on: Box-Muller Gaussians, small heap
 * allocations, an ordered map, and a vector through two 256x256 float
 * layers (512 KB of weights, the size of the scan_mlp SCN's, so the
 * kernel leans on the core's cache as SCN scoring does). It calls no
 * simulator code and touches no simulator data, so a change to the
 * simulator leaves it unchanged. @return its thread CPU seconds.
 */
double
calibrate()
{
    constexpr int kDim = 256;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto uniform = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return (static_cast<double>(x >> 11) + 0.5) * 0x1.0p-53;
    };
    // Allocated once, so the kernel does not move the heap around the
    // engines set up between its runs; written afresh on every run.
    static std::vector<float> weights(2 * kDim * kDim);
    const double t0 = threadCpuSeconds();
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = static_cast<float>(i % 61) * (1.0f / 64) - 0.45f;
    std::map<std::uint64_t, std::vector<float>> live;
    std::vector<float> in(kDim, 0.0f);
    for (int f = 0; f < 32; ++f) {
        std::vector<float> v(kDim / 2);
        for (std::size_t i = 0; i < v.size(); i += 2) {
            const double r = std::sqrt(-2.0 * std::log(uniform()));
            const double t = 2.0 * M_PI * uniform();
            v[i] = static_cast<float>(r * std::cos(t));
            v[i + 1] = static_cast<float>(r * std::sin(t));
        }
        for (std::size_t i = 0; i < v.size(); ++i)
            in[(f * 8 + i) % kDim] += v[i];
        live.emplace(x, std::move(v));
        if (live.size() > 8)
            live.erase(live.begin());
    }
    std::vector<float> out(kDim);
    for (int layer = 0; layer < 2; ++layer) {
        const float *w = weights.data() + layer * kDim * kDim;
        for (int o = 0; o < kDim; ++o) {
            float acc = 0.0f;
            for (int i = 0; i < kDim; ++i)
                acc += w[o * kDim + i] * in[i];
            out[o] = std::max(acc, 0.0f);
        }
        in.swap(out);
    }
    calibrationSink = in[0];
    return threadCpuSeconds() - t0;
}

/** `cpu_seconds` measured while calibrate() took `cal_seconds`,
 *  rescaled to the reference machine's speed. */
double
calibrated(double cpu_seconds, double cal_seconds)
{
    return cpu_seconds * kCalibrationRefSeconds / cal_seconds;
}

// ---- one engine -------------------------------------------------------

struct Engine
{
    std::unique_ptr<ds::core::DeepStore> ds;
    std::uint64_t db = 0;
    std::uint64_t scn = 0;
    double setupSeconds = 0.0;
};

/** Construct the engine and run writeDB / loadModel / setQC. */
Engine
setUp(const Workload &w, const Inputs &in, std::uint64_t seed,
      Tracer &tracer, std::uint64_t &feature_calls)
{
    const double cpu0 = threadCpuSeconds();
    Engine e;
    ds::core::DeepStoreConfig cfg;
    cfg.defaultLevel = ds::core::Level::ChannelLevel;
    if (w.channels > 0)
        cfg.flash.channels = w.channels;
    if (w.nodes > 0)
        cfg.array.nodes.assign(w.nodes, cfg.flash);
    {
        Span s(tracer, SpanKind::Construct);
        e.ds = std::make_unique<ds::core::DeepStore>(cfg);
    }
    {
        Span s(tracer, SpanKind::WriteDb);
        e.db = e.ds->writeDB(std::make_shared<TracedSource>(
            in.generator(), 0, w.dbFeatures, tracer, feature_calls));
    }
    {
        Span s(tracer, SpanKind::LoadModel);
        e.scn = e.ds->loadModel(makeScn(w.scn, w.dim, seed));
    }
    if (w.qc) {
        std::uint64_t qcn = 0;
        {
            Span s(tracer, SpanKind::LoadModel);
            qcn = e.ds->loadModel(makeScn(Scn::Dot, w.dim, seed + 1));
        }
        Span s(tracer, SpanKind::SetQc);
        e.ds->setQC(qcn, w.qcThreshold, 0.97, w.qcCapacity);
    }
    e.setupSeconds = threadCpuSeconds() - cpu0;
    return e;
}

// ---- the load loop ----------------------------------------------------

/** Peak resident set of this process image, from VmHWM (getrusage's
 *  ru_maxrss would also count the launcher the process was forked
 *  from, since it survives exec). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Completion
{
    std::uint64_t qid = 0;
    std::uint64_t universeId = 0;
    std::uint64_t dbEnd = 0; ///< features the query covered
    ds::Tick submitTick = 0;
    ds::Tick completeTick = 0;
    std::size_t qcEntries = 0; ///< QC entries probed at submit
    bool cacheHit = false;
    bool success = false;
    std::uint64_t featuresScanned = 0;
    double qcProbe = 0.0, computeStall = 0.0, backpressure = 0.0,
           nocWait = 0.0, merge = 0.0;
    std::vector<ds::core::ScoredResult> topK;
};

/** Counters read from the engine at the start and the end of the
 *  window; their difference is deterministic. */
struct Snapshot
{
    std::uint64_t events = 0;
    std::uint64_t featureCalls = 0;
    std::map<std::string, double> stats; ///< summed over nodes
};

/** Add the "name = value" rows of a stats dump to `stats`. */
void
addRows(std::map<std::string, double> &stats, const std::string &dump)
{
    std::istringstream lines(dump);
    std::string line;
    while (std::getline(lines, line)) {
        const auto eq = line.find(" = ");
        if (eq == std::string::npos)
            continue;
        const std::string name = line.substr(0, eq);
        // Skip the "node<i>." rows of nodes i > 0: dumpStats prints
        // them at 6 significant digits. They are read below instead.
        if (name.rfind("node", 0) == 0 && name.size() > 4 &&
            std::isdigit(static_cast<unsigned char>(name[4])))
            continue;
        stats[name] += std::strtod(line.c_str() + eq + 3, nullptr);
    }
}

Snapshot
snapshot(ds::core::DeepStore &engine, std::uint64_t feature_calls)
{
    Snapshot s;
    s.events = engine.events().executed();
    s.featureCalls = feature_calls;
    // dumpStats also brings every node's link counters up to date.
    std::ostringstream os;
    os.precision(17);
    engine.dumpStats(os);
    addRows(s.stats, os.str());
    // Sum nodes i > 0 into the same names, at full precision.
    for (std::uint32_t i = 1; i < engine.array().nodeCount(); ++i) {
        std::ostringstream node;
        node.precision(17);
        engine.array().node(i).stats().dump(node);
        addRows(s.stats, node.str());
    }
    return s;
}

/** One host_qps block: `Workload::qpsBlock` completions. */
struct Block
{
    double cpuSeconds = 0.0; ///< thread CPU time, calibration excluded
    double calSeconds = 0.0; ///< mean calibrate() time during the block
};

/** Runs a calibration slice whenever polled kProbeEvery or more after
 *  the last one, so the slices sample the machine's speed all through
 *  a block (about 1% of its time). */
class SpeedProbe
{
  public:
    void
    poll(Tracer &tracer)
    {
        if (HostClock::now() < next_)
            return;
        Span s(tracer, SpanKind::Calibrate);
        spent_ += calibrate();
        ++slices_;
        next_ = HostClock::now() + kProbeEvery;
    }

    /** Close a block that took `cpu_seconds` since the last take(). */
    Block
    take(double cpu_seconds, Tracer &tracer)
    {
        const double in_block = spent_;
        if (slices_ == 0) {
            // No slice fell inside the block: gauge the speed after it.
            next_ = HostClock::now();
            poll(tracer);
        }
        const Block b{cpu_seconds - in_block,
                      spent_ / static_cast<double>(slices_)};
        spent_ = 0.0;
        slices_ = 0;
        return b;
    }

  private:
    static constexpr std::chrono::milliseconds kProbeEvery{40};
    HostClock::time_point next_ = HostClock::now();
    double spent_ = 0.0;
    std::uint64_t slices_ = 0;
};

struct RunResult
{
    double setupSeconds = 0.0; ///< median over the set-up repeats
    double timedSeconds = 0.0; ///< timed section, wall clock
    std::vector<Block> blocks; ///< host_qps blocks of the section
    std::uint64_t submitted = 0;
    std::vector<Completion> done; ///< completion order
    Snapshot windowStart, windowEnd;
    ds::Tick windowStartTick = 0;
    std::uint64_t windowFeatures = 0; ///< features appended in window
    double appendSimSeconds = 0.0;
    double warmHitRatio = 0.0;
    /** Process peak RSS when the window closed: set-up, warm-up and
     *  the window's history, independent of host speed. */
    double peakRssMb = 0.0;
};

class Runner
{
  public:
    Runner(const Workload &w, const Inputs &in, std::uint64_t seed,
           Tracer &tracer)
        : w_(w), in_(in), seed_(seed), tracer_(tracer),
          arrivalRng_(mix(seed ^ 0xA11CE))
    {
    }

    /** Set up `repeats` engines (keeping the last), warm the Query
     *  Cache, then run the timed section for `seconds`. */
    RunResult
    run(int repeats, double seconds)
    {
        RunResult r;
        std::vector<double> setups;
        double cal_prev = calibrate();
        for (int i = 0; i < repeats; ++i) {
            engine_ = Engine{};
            engine_ = setUp(w_, in_, seed_, tracer_, featureCalls_);
            const double cal = calibrate();
            setups.push_back(
                calibrated(engine_.setupSeconds, (cal_prev + cal) / 2));
            cal_prev = cal;
        }
        std::sort(setups.begin(), setups.end());
        r.setupSeconds = setups[setups.size() / 2];
        dbSize_ = w_.dbFeatures;
        if (w_.zipfAlpha > 0.0)
            zipf_ = std::make_unique<ds::ZipfSampler>(w_.universe,
                                                      w_.zipfAlpha);

        if (w_.warmQueries > 0) {
            // Untimed, untraced prefix that fills the Query Cache.
            const bool traced = tracer_.enabled();
            tracer_.setEnabled(false);
            std::vector<Completion> warm;
            loop(w_.warmQueries, 0.0, warm, nullptr, /*warm=*/true);
            tracer_.setEnabled(traced);
            std::uint64_t hits = 0, counted = 0;
            for (std::size_t i = warm.size() / 2; i < warm.size(); ++i) {
                hits += warm[i].cacheHit ? 1 : 0;
                ++counted;
            }
            r.warmHitRatio = counted ? static_cast<double>(hits) /
                                           static_cast<double>(counted)
                                     : 0.0;
            if (r.warmHitRatio < w_.warmHitMin ||
                r.warmHitRatio > w_.warmHitMax)
                throw std::runtime_error(
                    "input guard: warm QC hit ratio " +
                    std::to_string(r.warmHitRatio) + " outside [" +
                    std::to_string(w_.warmHitMin) + ", " +
                    std::to_string(w_.warmHitMax) + "]");
        }

        r.windowStart = snapshot(*engine_.ds, featureCalls_);
        r.windowStartTick = engine_.ds->events().now();
        const auto t0 = HostClock::now();
        r.submitted = loop(w_.window, seconds, r.done, &r, false);
        r.timedSeconds = secondsSince(t0);
        return r;
    }

  private:
    std::uint64_t
    nextUniverseId()
    {
        if (zipf_) {
            // Spread popular ranks over the id space.
            return mix(zipf_->sample(arrivalRng_) + seed_) % w_.universe;
        }
        return nextQueryIndex_++;
    }

    void
    submit(std::vector<Completion> &out, bool &finished_flag)
    {
        auto &engine = *engine_.ds;
        Completion c;
        c.universeId = nextUniverseId();
        c.dbEnd = dbSize_;
        c.submitTick = engine.events().now();
        c.qcEntries = engine.queryCache() ? engine.queryCache()->size() : 0;
        const auto q = in_.query(c.universeId);
        {
            Span s(tracer_, SpanKind::Query);
            c.qid = engine.query(q, w_.k, engine_.scn, engine_.db, 0, 0);
            s.tagQuery(c.qid);
        }
        const std::uint64_t qid = c.qid;
        ++inFlight_;
        pending_.emplace(qid, std::move(c));
        engine.onComplete(
            qid, [this, &out, &finished_flag,
                  qid](const ds::core::QueryResult &res) {
                Span s(tracer_, SpanKind::Callback, qid);
                auto it = pending_.find(qid);
                Completion done = std::move(it->second);
                pending_.erase(it);
                done.completeTick = engine_.ds->events().now();
                done.cacheHit = res.cacheHit;
                done.success =
                    res.outcome == ds::core::QueryOutcome::Success;
                done.featuresScanned = res.featuresScanned;
                done.qcProbe = res.qcProbeSeconds;
                done.computeStall = res.computeStallSeconds;
                done.backpressure = res.backpressureSeconds;
                done.nocWait = res.nocWaitSeconds;
                done.merge = res.mergeSeconds;
                done.topK = res.topK;
                out.push_back(std::move(done));
                --inFlight_;
                finished_flag = true;
            });
    }

    /** Make one more submission due after a seeded exponential gap
     *  of mean `mean_seconds` of simulated time. */
    void
    scheduleDue(double mean_seconds)
    {
        const double gap =
            -std::log(1.0 - arrivalRng_.uniform()) * mean_seconds;
        auto &events = engine_.ds->events();
        // Submissions left pending by an earlier loop() are ignored.
        events.schedule(events.now() + ds::secondsToTicks(gap),
                        [this, gen = arrivalGen_] {
                            if (gen == arrivalGen_)
                                ++due_;
                        });
    }

    /**
     * Drive the load until `target` completions and `seconds` of host
     * time, then stop submitting and let in-flight queries finish.
     * Submissions and appends happen between step() calls, at the
     * tick the previous event left the clock on. @return queries
     * submitted.
     */
    std::uint64_t
    loop(std::uint64_t target, double seconds, std::vector<Completion> &out,
         RunResult *r, bool warm)
    {
        auto &engine = *engine_.ds;
        const bool open = w_.depth == 0;
        const auto t0 = HostClock::now();
        std::uint64_t submitted = 0;
        bool stopping = false;
        bool window_closed = false;
        bool finished = false;
        std::uint32_t appends_done = 0;
        std::size_t seen = out.size();
        SpeedProbe probe;
        std::uint64_t next_boundary = w_.qpsBlock;
        double block_start = threadCpuSeconds();
        ++arrivalGen_;
        due_ = 0;
        if (open)
            scheduleDue(1.0 / w_.arrivalsPerSimSecond);
        else
            due_ = w_.depth;
        // A warm-up submits exactly `target` queries.
        auto may_submit = [&] {
            return !stopping && (!warm || submitted < target);
        };
        while (true) {
            if (r) {
                probe.poll(tracer_);
                if (out.size() >= next_boundary) {
                    r->blocks.push_back(probe.take(
                        threadCpuSeconds() - block_start, tracer_));
                    next_boundary += w_.qpsBlock;
                    block_start = threadCpuSeconds();
                }
            }
            if (!window_closed && out.size() >= target) {
                window_closed = true;
                if (r) {
                    r->windowEnd = snapshot(engine, featureCalls_);
                    r->peakRssMb = peakRssMb();
                }
            }
            if (!stopping && window_closed &&
                (warm || secondsSince(t0) >= seconds))
                stopping = true;
            if (open) {
                for (; due_ > 0; --due_) {
                    if (!may_submit())
                        continue;
                    submit(out, finished);
                    ++submitted;
                    scheduleDue(1.0 / w_.arrivalsPerSimSecond);
                }
            } else {
                // Each completion frees its client, which thinks first.
                for (; seen < out.size(); ++seen) {
                    if (w_.thinkSimSeconds > 0.0)
                        scheduleDue(w_.thinkSimSeconds);
                    else
                        ++due_;
                }
                for (; due_ > 0 && may_submit(); --due_) {
                    submit(out, finished);
                    ++submitted;
                }
            }
            if (r && appends_done < w_.appends &&
                out.size() >= (appends_done + 1) * w_.appendEvery) {
                const ds::Tick before = engine.events().now();
                {
                    Span s(tracer_, SpanKind::Append);
                    engine.appendDB(engine_.db,
                                    std::make_shared<TracedSource>(
                                        in_.generator(), dbSize_,
                                        w_.appendFeatures, tracer_,
                                        featureCalls_));
                }
                dbSize_ += w_.appendFeatures;
                ++appends_done;
                r->windowFeatures += w_.appendFeatures;
                r->appendSimSeconds +=
                    ds::ticksToSeconds(engine.events().now() - before);
                continue;
            }
            if (stopping && inFlight_ == 0)
                break;
            finished = false;
            Span s(tracer_, SpanKind::StepIdle);
            if (!engine.step())
                throw std::runtime_error("event queue drained with "
                                         "queries in flight");
            if (finished)
                s.relabel(SpanKind::StepFinish);
        }
        return submitted;
    }

    const Workload &w_;
    const Inputs &in_;
    std::uint64_t seed_;
    Tracer &tracer_;
    Engine engine_;
    std::uint64_t featureCalls_ = 0;
    std::uint64_t dbSize_ = 0;
    std::uint64_t nextQueryIndex_ = 0;
    std::uint32_t inFlight_ = 0;
    std::uint64_t due_ = 0; ///< submissions due now
    std::uint64_t arrivalGen_ = 0;
    ds::Rng arrivalRng_;
    std::unique_ptr<ds::ZipfSampler> zipf_;
    std::map<std::uint64_t, Completion> pending_;
};

// ---- metrics ---------------------------------------------------------

struct Tail
{
    double percentile = 0.0;
    double value = 0.0;
};

/** Nearest-rank percentile of sorted samples. */
double
percentile(const std::vector<double> &sorted, double p)
{
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** The highest percentile with at least 10 samples beyond it. */
Tail
tailOf(const std::vector<double> &sorted)
{
    Tail t{50.0, percentile(sorted, 50.0)};
    for (double p : {75.0, 90.0, 95.0, 99.0, 99.9})
        if (static_cast<double>(sorted.size()) * (1.0 - p / 100.0) >=
            10.0 - 1e-9)
            t = Tail{p, percentile(sorted, p)};
    return t;
}

/** Completions per calibrated host CPU second: the median rate over
 *  the blocks, each block's CPU time rescaled by the calibration
 *  slices run through it. */
double
hostQps(const RunResult &r, std::uint64_t block)
{
    std::vector<double> rates;
    for (const Block &b : r.blocks)
        rates.push_back(static_cast<double>(block) /
                        calibrated(b.cpuSeconds, b.calSeconds));
    if (rates.empty())
        throw std::runtime_error("timed section completed less than one "
                                 "host_qps block");
    std::sort(rates.begin(), rates.end());
    const std::size_t mid = rates.size() / 2;
    return rates.size() % 2 ? rates[mid]
                            : (rates[mid - 1] + rates[mid]) / 2;
}

double
mean(const std::vector<Completion> &window,
     double Completion::*field)
{
    double sum = 0.0;
    for (const auto &c : window)
        sum += c.*field;
    return window.empty() ? 0.0 : sum / static_cast<double>(window.size());
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Everything the window determines, for both printing and the
 *  determinism comparison between two runs of one seed. */
struct WindowFigures
{
    std::vector<Metric> exact;
    std::uint64_t fingerprint = 0;
    double simQps = 0.0, simP50Ms = 0.0, simTailMs = 0.0;
    Tail tail;
    double ingestFps = 0.0;
};

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ULL;
    }
    return h;
}

WindowFigures
windowFigures(const Workload &w, const RunResult &r,
              const ds::nn::ModelBundle &scn,
              const ds::nn::ModelBundle &qcn)
{
    WindowFigures f;
    const std::vector<Completion> window(
        r.done.begin(),
        r.done.begin() + static_cast<long>(std::min<std::size_t>(
                             w.window, r.done.size())));
    std::vector<double> lat;
    std::uint64_t hits = 0, scored = 0, qcn_evals = 0;
    double probe = 0.0;
    f.fingerprint = 0xCBF29CE484222325ULL;
    for (const auto &c : window) {
        lat.push_back(ds::ticksToSeconds(c.completeTick - c.submitTick));
        hits += c.cacheHit ? 1 : 0;
        scored += c.featuresScanned;
        qcn_evals += c.qcEntries;
        probe += c.qcProbe;
        f.fingerprint = fnv(f.fingerprint, c.qid);
        f.fingerprint = fnv(f.fingerprint, c.completeTick);
        for (const auto &e : c.topK)
            f.fingerprint = fnv(f.fingerprint, e.featureId);
    }
    std::sort(lat.begin(), lat.end());
    const double span = ds::ticksToSeconds(window.back().completeTick -
                                           r.windowStartTick);
    f.simQps = static_cast<double>(window.size()) / span;
    f.simP50Ms = percentile(lat, 50.0) * 1e3;
    f.tail = tailOf(lat);
    f.simTailMs = f.tail.value * 1e3;
    f.ingestFps = r.appendSimSeconds > 0.0
                      ? static_cast<double>(r.windowFeatures) /
                            r.appendSimSeconds
                      : 0.0;

    auto delta = [&](const char *name) {
        auto get = [name](const Snapshot &s) {
            auto it = s.stats.find(name);
            return it == s.stats.end() ? 0.0 : it->second;
        };
        return get(r.windowEnd) - get(r.windowStart);
    };
    const double events =
        static_cast<double>(r.windowEnd.events - r.windowStart.events);
    const auto n = static_cast<double>(window.size());
    const double misses = n - static_cast<double>(hits);
    f.exact = {
        {"workloads.feature_calls",
         static_cast<double>(r.windowEnd.featureCalls -
                             r.windowStart.featureCalls),
         "count"},
        {"nn.scored_features", static_cast<double>(scored), "count"},
        {"nn.macs",
         static_cast<double>(scored) *
                 static_cast<double>(scn.model.totalMacs()) +
             static_cast<double>(qcn_evals) *
                 static_cast<double>(qcn.model.totalMacs()),
         "count"},
        {"qc.hits", static_cast<double>(hits), "count"},
        {"qc.misses", w.qc ? misses : 0.0, "count"},
        {"qc.hit_ratio", w.qc ? static_cast<double>(hits) / n : 0.0,
         "ratio"},
        {"qc.probe_sim_ms", probe / n * 1e3, "ms"},
        {"sim.events", events, "count"},
        {"sim.events_per_query", events / n, "count"},
        {"ssd.flash.pageReads", delta("ssd.flash.pageReads"), "count"},
        {"ssd.flash.pagePrograms", delta("ssd.flash.pagePrograms"), "count"},
        {"ssd.flash.blockErases", delta("ssd.flash.blockErases"), "count"},
        {"ssd.ftl.pageWrites", delta("ssd.ftl.pageWrites"), "count"},
        {"ssd.ftl.migratedPages", delta("ssd.ftl.migratedPages"), "count"},
        {"ssd.dfv.pagesStreamed", delta("ssd.dfv.pagesStreamed"), "count"},
        {"ssd.dfv.backpressureTicks", delta("ssd.dfv.backpressureTicks"),
         "ticks"},
        {"ssd.noc.waitTicks", delta("ssd.noc.waitTicks"), "ticks"},
        {"ssd.dram.waitTicks", delta("ssd.dram.waitTicks"), "ticks"},
        {"query.compute_stall_sim_ms",
         mean(window, &Completion::computeStall) * 1e3, "ms"},
        {"query.backpressure_sim_ms",
         mean(window, &Completion::backpressure) * 1e3, "ms"},
        {"query.noc_wait_sim_ms", mean(window, &Completion::nocWait) * 1e3,
         "ms"},
        {"query.merge_sim_ms", mean(window, &Completion::merge) * 1e3,
         "ms"},
        {"array.fabric.bytes", delta("array.array.fabric.bytes"), "B"},
        {"array.fabric.waitTicks", delta("array.array.fabric.waitTicks"),
         "ticks"},
        {"array.subQueriesRemote", delta("array.array.subQueriesRemote"),
         "count"},
        {"sim_ingest_fps", f.ingestFps, "1/s"},
    };
    return f;
}

// ---- output check ---------------------------------------------------

struct CheckResult
{
    std::uint64_t failed = 0; ///< non-Success or wrong top-K
    std::string firstFailure;
};

/** Check every completed query against the reference scorer. */
CheckResult
checkAll(const Workload &w, const Inputs &in,
         const ds::nn::ModelBundle &scn, const std::vector<Completion> &done,
         const std::vector<float> &db)
{
    CheckResult res;
    ReferenceScorer ref(scn);
    for (const auto &c : done) {
        std::string why;
        if (!c.success) {
            why = "outcome is not Success";
        } else {
            ref.setQuery(in.query(c.universeId));
            const auto scores = ref.scoreAll(db, c.dbEnd);
            why = checkTopK(scores, c.topK, w.k, c.cacheHit);
        }
        if (!why.empty()) {
            ++res.failed;
            if (res.firstFailure.empty())
                res.firstFailure =
                    "query " + std::to_string(c.qid) + ": " + why;
        }
    }
    return res;
}

/** Start-up input guard: most sample queries must separate their k-th
 *  and (k+1)-th reference scores by more than the check can blur.
 *  Saturated scores tie exactly, so they fail it; unsaturated ones
 *  fall below the margin only now and then. */
std::string
inputGuard(const Workload &w, const Inputs &in,
           const ds::nn::ModelBundle &scn, const std::vector<float> &db)
{
    constexpr int kSamples = 16;
    constexpr double kClearGap = 2 * kScoreTolerance;
    ReferenceScorer ref(scn);
    int clear = 0;
    for (int i = 0; i < kSamples; ++i) {
        ref.setQuery(in.query(static_cast<std::uint64_t>(i)));
        if (kthGap(ref.scoreAll(db, w.dbFeatures), w.k) > kClearGap)
            ++clear;
    }
    if (clear * 2 <= kSamples)
        return "only " + std::to_string(clear) + "/" +
               std::to_string(kSamples) +
               " sample queries have a clear k-th score gap";
    return "";
}

// ---- command line -----------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            o.trace = std::stoi(v);
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
        (o.trace != 0 && o.trace != 1))
        throw std::invalid_argument(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1>");
    return o;
}

void
printMetric(const Metric &m)
{
    std::printf("  %-30s %.10g %s\n", m.name.c_str(), m.value, m.unit);
}

std::string
jsonMetrics(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                      ms[i].unit);
        out += buf;
    }
    return out + "}";
}

int
runBenchmark(const Options &opt)
{
    const auto table = workloadTable();
    const auto it = std::find_if(
        table.begin(), table.end(),
        [&](const Workload &w) { return opt.workload == w.name; });
    if (it == table.end())
        throw std::invalid_argument("unknown workload " + opt.workload);
    const Workload &w = *it;
    if (w.appends * w.appendEvery >= w.window)
        throw std::logic_error("appends must land inside the window");

    if (auto why = checkSelfTest(); !why.empty())
        throw std::runtime_error("output-check self-test: " + why);

    const Inputs in(w, opt.seed);
    const auto scn = makeScn(w.scn, w.dim, opt.seed);
    const auto qcn = makeScn(Scn::Dot, w.dim, opt.seed + 1);
    const auto db = in.features(w.dbFeatures +
                                std::uint64_t{w.appends} * w.appendFeatures);
    if (auto why = inputGuard(w, in, scn, db); !why.empty())
        throw std::runtime_error("input guard: " + why);

    std::printf("workload %s seed %llu: %s\n", w.name,
                static_cast<unsigned long long>(opt.seed), w.why);
    std::printf("simulated metrics are unvalidated model output\n");

    // --trace 1 runs the workload twice, so each run gets half the
    // time.
    const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    Tracer untraced(false);
    Runner plain(w, in, opt.seed, untraced);
    // Set-up takes under a millisecond; the median of many repeats
    // keeps it steady.
    const RunResult base = plain.run(opt.trace ? 1 : 51, seconds);
    const WindowFigures fig = windowFigures(w, base, scn, qcn);
    CheckResult check = checkAll(w, in, scn, base.done, db);

    const double host_qps = hostQps(base, w.qpsBlock);
    std::printf("timed section: %zu completions in %.3f s wall; host_qps "
                "is the median rate over %zu blocks of %llu\n",
                base.done.size(), base.timedSeconds,
                base.done.size() / w.qpsBlock,
                static_cast<unsigned long long>(w.qpsBlock));

    std::uint64_t attempted = base.submitted;
    std::uint64_t failed = check.failed;
    bool correct = true;
    std::vector<Metric> out;

    std::printf("window: first %zu completions, tail = p%g of %zu "
                "samples, fingerprint %016llx\n",
                static_cast<std::size_t>(w.window), fig.tail.percentile,
                static_cast<std::size_t>(w.window),
                static_cast<unsigned long long>(fig.fingerprint));
    if (w.qc)
        std::printf("warm QC hit ratio %.4f (band [%g, %g])\n",
                    base.warmHitRatio, w.warmHitMin, w.warmHitMax);

    if (!opt.trace) {
        out = {
            {"setup_s", base.setupSeconds, "s"},
            {"host_qps", host_qps, "1/s"},
            {"peak_rss_mb", base.peakRssMb, "MB"},
            {"sim_qps", fig.simQps, "1/s"},
            {"sim_p50_ms", fig.simP50Ms, "ms"},
            {"sim_tail_ms", fig.simTailMs, "ms"},
        };
        std::printf("end-to-end metrics:\n");
        for (const auto &m : out)
            printMetric(m);
        if (w.appends > 0)
            printMetric({"sim_ingest_fps", fig.ingestFps, "1/s"});
        printMetric({"fail_ratio",
                     static_cast<double>(failed) /
                         static_cast<double>(attempted),
                     "ratio"});
    } else {
        Tracer tracer(true);
        Runner traced(w, in, opt.seed, tracer);
        const RunResult tr = traced.run(1, seconds);
        const WindowFigures tfig = windowFigures(w, tr, scn, qcn);
        const CheckResult tcheck = checkAll(w, in, scn, tr.done, db);
        attempted += tr.submitted;
        failed += tcheck.failed;
        if (check.firstFailure.empty())
            check.firstFailure = tcheck.firstFailure;

        // Same seed, same window: every exact figure must agree.
        bool same = tfig.fingerprint == fig.fingerprint &&
                    tfig.simQps == fig.simQps &&
                    tfig.simP50Ms == fig.simP50Ms &&
                    tfig.simTailMs == fig.simTailMs;
        for (std::size_t i = 0; i < fig.exact.size(); ++i)
            same = same && fig.exact[i].value == tfig.exact[i].value;
        if (!same) {
            correct = false;
            std::printf("DETERMINISM FAILURE: traced and untraced runs "
                        "of one seed differ\n");
        }

        const double traced_qps = hostQps(tr, w.qpsBlock);
        const double accounted = tracer.totalSelfSeconds() -
                                 tracer.selfSeconds(SpanKind::Construct) -
                                 tracer.selfSeconds(SpanKind::WriteDb) -
                                 tracer.selfSeconds(SpanKind::LoadModel) -
                                 tracer.selfSeconds(SpanKind::SetQc);
        const double step_idle = tracer.selfSeconds(SpanKind::StepIdle);
        out = tfig.exact;
        std::vector<Metric> timed = {
            {"workloads.feature_self_s",
             tracer.selfSeconds(SpanKind::Feature), "s"},
            {"core.finish_self_s", tracer.selfSeconds(SpanKind::StepFinish),
             "s"},
            {"core.submit_self_s", tracer.selfSeconds(SpanKind::Query), "s"},
            {"core.append_self_s", tracer.selfSeconds(SpanKind::Append), "s"},
            {"core.setup.write_db_s", tracer.selfSeconds(SpanKind::WriteDb),
             "s"},
            {"core.setup.load_model_s",
             tracer.selfSeconds(SpanKind::LoadModel), "s"},
            {"bench.callback_self_s", tracer.selfSeconds(SpanKind::Callback),
             "s"},
            {"sim.step_self_s", step_idle, "s"},
            {"sim.ns_per_event",
             step_idle * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, tracer.spanCount(SpanKind::StepIdle))),
             "ns"},
            {"trace.accounted_ratio", accounted / tr.timedSeconds, "ratio"},
            {"trace.overhead_ratio", traced_qps / host_qps, "ratio"},
        };
        out.insert(out.end(), timed.begin(), timed.end());
        std::printf("per-layer metrics (traced %.3f s, untraced host_qps "
                    "%.4g, traced %.4g):\n",
                    tr.timedSeconds, host_qps, traced_qps);
        for (const auto &m : out)
            printMetric(m);
        const std::string trace_file = std::string(PERFBENCH_TRACE_DIR) +
                                       "/trace_" + w.name + "_" +
                                       std::to_string(opt.seed) + ".json";
        if (!tracer.writeChromeJson(trace_file))
            throw std::runtime_error("cannot write " + trace_file);
    }

    if (failed > 0) {
        correct = false;
        std::printf("OUTPUT CHECK FAILED: %llu of %llu queries; first: "
                    "%s\n",
                    static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted),
                    check.firstFailure.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                jsonMetrics(out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Fixed malloc thresholds. By default glibc raises its mmap
    // threshold when a large block is freed, so after a few set-up
    // repeats the engines' large tables flip between fresh mmap pages
    // and reused heap, and a set-up takes either ~0.45 or ~4.4 ms
    // (array_ingest). With these, large blocks come from the heap and
    // the heap is not trimmed, so every repeat after the first reuses
    // warm memory.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    try {
        return runBenchmark(parse(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
