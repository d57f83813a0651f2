/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 * Runs one workload of the paper's Fig. 13 application suite through
 * the tensor library on the shipped default configuration, in a
 * closed loop with one client thread (a rep starts only after the
 * previous one has read back its result), and prints every metric
 * with its unit. Host checks of each rep's outputs run outside the
 * timed region.
 *
 *   perfbench --workload cordic|reduce_cold|sort|io_roundtrip
 *             --seed N --seconds S --trace 0|1 [--smoke]
 *
 * --trace 0 is the end-to-end run: no spans are recorded. --trace 1
 * runs the same untraced loop, then a traced loop that records spans
 * around the calls into the tensor library (pim layer) plus deltas of
 * the driver and simulator counters, then drives the workload's
 * dominant macro-instruction mix through a Driver over a forwarding
 * OperationSink to split host time between the driver and the
 * simulator group. --smoke runs tiny sizes for the harness's own test.
 * Host times are scaled for the host's momentary speed (SpeedProbe).
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <csignal>
#include <pthread.h>
#include <ctime>
#include <sys/syscall.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "pim/pypim.hpp"
#include "sim/batch_trace.hpp"
#include "sim/bulk_io.hpp"
#include "sim/device_group.hpp"
#include "theory/model.hpp"

extern char **environ;

namespace
{

using namespace pypim;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Peak resident set (VmHWM) of this process in MiB. */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
        std::printf("  %-32s %18.6f %s\n", name.c_str(), value, unit);
    }

    /** The result line: the last line of standard output. */
    void
    printJson(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < metrics_.size(); ++i) {
            // JSON has no non-finite numbers; null fails run.py's check.
            char v[32] = "null";
            if (std::isfinite(metrics_[i].value))
                std::snprintf(v, sizeof v, "%.17g", metrics_[i].value);
            std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(), v,
                        metrics_[i].unit);
        }
        std::printf("}}\n");
    }

  private:
    std::vector<Metric> metrics_;
};

// -------------------------------------------------------------- ledger

/** Tensor-library call families timed by the traced run. */
enum class Pim : uint8_t
{
    Elementwise,
    Reduce,
    Sort,
    Upload,
    Readback,
    Flush,
    Count
};

constexpr const char *kPimMetric[] = {
    "pim.elementwise_s", "pim.reduce_s",   "pim.sort_s",
    "pim.upload_s",      "pim.readback_s", "pim.flush_s"};

/**
 * Spans recorded around calls into the tensor library, kept in memory
 * and aggregated when the run ends. Each span names its parent rep.
 * When off (the end-to-end run) a span is a plain call.
 */
class Ledger
{
  public:
    explicit Ledger(bool on) : on_(on) {}

    bool on() const { return on_; }
    void setRep(uint32_t rep) { rep_ = rep; }

    template <typename F>
    decltype(auto)
    span(Pim layer, F &&f)
    {
        if (!on_)
            return f();
        struct Record
        {
            Ledger *ledger;
            Pim layer;
            Clock::time_point t0 = Clock::now();
            ~Record()
            {
                ledger->spans_.push_back(
                    {layer, ledger->rep_, t0, Clock::now()});
            }
        } record{this, layer};
        return f();
    }

    /**
     * Seconds spent in spans of @p layer over all reps, each span
     * multiplied by its rep's entry of @p scale.
     */
    double
    total(Pim layer, const std::vector<double> &scale) const
    {
        double s = 0.0;
        for (const Span &sp : spans_)
            if (sp.layer == layer)
                s += scale.at(sp.rep) *
                     std::chrono::duration<double>(sp.t1 - sp.t0).count();
        return s;
    }

  private:
    struct Span
    {
        Pim layer;
        uint32_t rep;
        Clock::time_point t0, t1;
    };

    bool on_;
    uint32_t rep_ = 0;
    std::vector<Span> spans_;
};

// ----------------------------------------------------------- workloads

/** One workload: set-up, a timed rep and the host check of its output. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the device, generate the inputs from the seed, upload them
     * and warm up. Every call is one set-up sample; the last one's
     * device serves the reps.
     */
    virtual void setup() = 0;
    /** True when every rep runs on a freshly set-up device. */
    virtual bool setupPerRep() const { return false; }
    /** The timed part of one rep, ending with its result read back. */
    virtual void rep(Ledger &ledger) = 0;
    /** Check the last rep's outputs against a host reference. */
    virtual bool check() const = 0;
    virtual Device &device() = 0;
};

/** Fig. 13 CORDIC sine over one full-memory float tensor. */
class Cordic final : public Workload
{
  public:
    Cordic(const Geometry &geo, uint64_t seed) : geo_(geo), seed_(seed) {}

    void
    setup() override
    {
        z0_ = Tensor();
        dev_.reset();
        dev_ = std::make_unique<Device>(geo_);
        Rng rng(seed_);
        angles_ = rng.floatVec(geo_.totalRows(), -1.5707f, 1.5707f);
        z0_ = Tensor::fromVector(angles_, dev_.get());
        Ledger off(false);
        rep(off);  // untimed warm-up kernel: fills stream and trace caches
    }

    void
    rep(Ledger &L) override
    {
        constexpr int kIters = 16;
        const uint64_t n = z0_.size();
        double kinv = 1.0;
        for (int k = 0; k < kIters; ++k)
            kinv *= std::sqrt(1.0 + std::ldexp(1.0, -2 * k));
        Device *dev = dev_.get();
        Tensor z = z0_;
        Tensor x = L.span(Pim::Upload, [&] {
            return Tensor::full(n, static_cast<float>(1.0 / kinv), dev);
        });
        Tensor y = L.span(Pim::Upload, [&] {
            return Tensor::zeros(n, DType::Float32, dev);
        });
        for (int k = 0; k < kIters; ++k) {
            const float ang =
                static_cast<float>(std::atan(std::ldexp(1.0, -k)));
            const float p2 = static_cast<float>(std::ldexp(1.0, -k));
            L.span(Pim::Elementwise, [&] {
                Tensor d = z >= 0.0f;
                Tensor xs = x * p2;
                Tensor ys = y * p2;
                Tensor xn = where(d, x - ys, x + ys);
                Tensor yn = where(d, y + xs, y - xs);
                Tensor zn = where(d, z - ang, z + ang);
                x = xn;
                y = yn;
                z = zn;
            });
        }
        L.span(Pim::Flush, [&] { dev->flush(); });
        out_ = L.span(Pim::Readback, [&] { return y.toFloatVector(); });
    }

    bool
    check() const override
    {
        if (out_.size() != angles_.size())
            return false;
        for (size_t i = 0; i < out_.size(); ++i)
            if (!(std::fabs(out_[i] - std::sin(angles_[i])) <= 1e-3))
                return false;
        return true;
    }

    Device &device() override { return *dev_; }

  private:
    Geometry geo_;
    uint64_t seed_;
    std::unique_ptr<Device> dev_;
    std::vector<float> angles_;
    Tensor z0_;
    std::vector<float> out_;
};

/**
 * Fig. 13 FP sum reduce plus FP product reduce. Every rep runs on a
 * freshly built device, so driver and trace caches start cold.
 */
class ReduceCold final : public Workload
{
  public:
    ReduceCold(const Geometry &geo, uint64_t seed)
        : geo_(geo), seed_(seed) {}

    void
    setup() override
    {
        sumIn_ = Tensor();
        prodIn_ = Tensor();
        dev_.reset();
        dev_ = std::make_unique<Device>(geo_);
        Rng rng(seed_);
        const uint64_t n = geo_.totalRows();
        sumHost_ = rng.floatVec(n, 0.f, 1.f);
        prodHost_ = rng.floatVec(n, 0.9f, 1.1f);
        sumIn_ = Tensor::fromVector(sumHost_, dev_.get());
        prodIn_ = Tensor::fromVector(prodHost_, dev_.get());
    }

    bool setupPerRep() const override { return true; }

    void
    rep(Ledger &L) override
    {
        sum_ = L.span(Pim::Reduce, [&] { return sumIn_.sum<float>(); });
        prod_ = L.span(Pim::Reduce, [&] { return prodIn_.prod<float>(); });
    }

    /**
     * Tolerances are twice the a-priori relative error bounds of the
     * float32 evaluation order: a pairwise sum of non-negative terms
     * errs by at most ceil(log2 n) roundings, a product tree by at most
     * n - 1 (u = 2^-24 each).
     */
    bool
    check() const override
    {
        const double u = std::ldexp(1.0, -24);
        const double n = static_cast<double>(sumHost_.size());
        double s = 0.0, p = 1.0;
        for (float v : sumHost_)
            s += v;
        for (float v : prodHost_)
            p *= v;
        const double sumTol = 2.0 * std::ceil(std::log2(n)) * u;
        const double prodTol = 2.0 * (n - 1.0) * u;
        return std::fabs(sum_ - s) <= sumTol * std::fabs(s) &&
               std::fabs(prod_ - p) <= prodTol * std::fabs(p);
    }

    Device &device() override { return *dev_; }

  private:
    Geometry geo_;
    uint64_t seed_;
    std::unique_ptr<Device> dev_;
    std::vector<float> sumHost_, prodHost_;
    Tensor sumIn_, prodIn_;
    float sum_ = 0.f, prod_ = 0.f;
};

/**
 * Fig. 13 FP bitonic sort on a tensor longer than one crossbar, so
 * both intra-warp and H-tree inter-warp exchanges run. Each rep
 * uploads a fresh seeded permutation of the inputs.
 */
class Sort final : public Workload
{
  public:
    Sort(const Geometry &geo, uint64_t n, uint64_t seed)
        : geo_(geo), n_(n), seed_(seed) {}

    void
    setup() override
    {
        t_ = Tensor();
        dev_.reset();
        dev_ = std::make_unique<Device>(geo_);
        Rng rng(seed_);
        inputs_.clear();
        for (int i = 0; i < 2; ++i)
            inputs_.push_back(rng.floatVec(n_, -1e3f, 1e3f));
        t_ = Tensor::zeros(n_, DType::Float32, dev_.get());
        next_ = 0;
        Ledger off(false);
        rep(off);  // untimed warm-up sort
    }

    void
    rep(Ledger &L) override
    {
        cur_ = next_;
        next_ = (next_ + 1) % inputs_.size();
        L.span(Pim::Upload, [&] { t_.setVector(inputs_[cur_]); });
        L.span(Pim::Sort, [&] { t_.sort(); });
        out_ = L.span(Pim::Readback, [&] { return t_.toFloatVector(); });
    }

    bool
    check() const override
    {
        std::vector<float> ref = inputs_[cur_];
        std::sort(ref.begin(), ref.end());
        if (out_.size() != ref.size())
            return false;
        for (size_t i = 0; i < ref.size(); ++i)
            if (std::bit_cast<uint32_t>(out_[i]) !=
                std::bit_cast<uint32_t>(ref[i]))
                return false;
        return true;
    }

    Device &device() override { return *dev_; }

  private:
    Geometry geo_;
    uint64_t n_;
    uint64_t seed_;
    std::unique_ptr<Device> dev_;
    std::vector<std::vector<float>> inputs_;
    Tensor t_;
    size_t cur_ = 0, next_ = 0;
    std::vector<float> out_;
};

/**
 * Bulk upload, one cached elementwise op, bulk readback, on a large
 * geometry. A rep does one round trip with dense contents and one
 * with row-sparse contents (seven of eight 512-row blocks all zero).
 */
class IoRoundtrip final : public Workload
{
  public:
    IoRoundtrip(const Geometry &geo, uint64_t seed)
        : geo_(geo), seed_(seed) {}

    void
    setup() override
    {
        a_ = Tensor();
        dev_.reset();
        dev_ = std::make_unique<Device>(geo_);
        Rng rng(seed_);
        const uint64_t n = geo_.totalRows();
        dense_ = rng.int32Vec(n);
        // Every eighth 512-row block holds data and the rest are zero.
        // The layout is fixed so that the coalesced write stream, and
        // with it the simulated cycle count, does not depend on the seed.
        sparse_.assign(n, 0);
        constexpr uint64_t kBlock = 512;
        for (uint64_t i = 0; i < n; ++i)
            if ((i / kBlock) % 8 == 3)
                sparse_[i] = rng.int32();
        a_ = Tensor::zeros(n, DType::Int32, dev_.get());
        Ledger off(false);
        rep(off);  // untimed warm-up: caches the elementwise op
    }

    void
    rep(Ledger &L) override
    {
        const std::vector<int32_t> *ins[2] = {&dense_, &sparse_};
        for (int k = 0; k < 2; ++k) {
            L.span(Pim::Upload, [&] { a_.setVector(*ins[k]); });
            Tensor c = L.span(Pim::Elementwise, [&] { return a_ + a_; });
            backA_[k] = L.span(Pim::Readback,
                               [&] { return a_.toIntVector(); });
            backC_[k] = L.span(Pim::Readback,
                               [&] { return c.toIntVector(); });
        }
    }

    bool
    check() const override
    {
        const std::vector<int32_t> *ins[2] = {&dense_, &sparse_};
        for (int k = 0; k < 2; ++k) {
            const auto &in = *ins[k];
            if (backA_[k] != in || backC_[k].size() != in.size())
                return false;
            for (size_t i = 0; i < in.size(); ++i) {
                const uint32_t v = static_cast<uint32_t>(in[i]);
                if (static_cast<uint32_t>(backC_[k][i]) != v + v)
                    return false;
            }
        }
        return true;
    }

    Device &device() override { return *dev_; }

  private:
    Geometry geo_;
    uint64_t seed_;
    std::unique_ptr<Device> dev_;
    std::vector<int32_t> dense_, sparse_;
    Tensor a_;
    std::vector<int32_t> backA_[2], backC_[2];
};

// ------------------------------------------------------------- driving

/**
 * Host speed probe: a short fixed bitwise kernel over an L2-resident
 * working set, shaped like the simulator's word-parallel column loops.
 *
 * On a shared host the speed of one core swings by up to 2x for
 * seconds at a time as other tenants contend for it (measured on a
 * 4-vCPU Sapphire Rapids KVM guest: the probe and a CORDIC rep slowed
 * together by 1.7-1.8x). While a region is timed, a timer signal aimed
 * at the timing thread runs the kernel every kTickMs, and once before
 * and after. The region's host time is reported scaled by
 * (kNominalSeconds / mean kernel time)^sensitivity, where the
 * sensitivity is the workload's (see Plan::speedSensitivity). Raw
 * times are printed beside the scaled ones.
 */
class SpeedProbe
{
  public:
    static constexpr double kNominalSeconds = 1.0e-4;
    static constexpr long kTickMs = 20;

    explicit SpeedProbe(double sensitivity) : sensitivity_(sensitivity)
    {
        panicIf(active_ != nullptr, "one SpeedProbe at a time");
        for (size_t i = 0; i < kWords; ++i) {
            a_[i] = 0x9E3779B97F4A7C15ull * (i + 1);
            b_[i] = 0xC2B2AE3D27D4EB4Full * (i + 7);
        }
        // The tick stays blocked except while a timed call runs, so the
        // handler never interrupts this thread's own use of the kernel.
        sigemptyset(&tick_);
        sigaddset(&tick_, tickSignal());
        pthread_sigmask(SIG_BLOCK, &tick_, nullptr);
        active_ = this;
        struct sigaction sa = {};
        sa.sa_handler = &SpeedProbe::onTick;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        fatalIf(sigaction(tickSignal(), &sa, &previous_) != 0,
                "SpeedProbe: sigaction failed");
        struct sigevent ev = {};
        ev.sigev_notify = SIGEV_THREAD_ID;
        ev.sigev_signo = tickSignal();
        ev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
        fatalIf(timer_create(CLOCK_MONOTONIC, &ev, &timer_) != 0,
                "SpeedProbe: timer_create failed");
    }

    ~SpeedProbe()
    {
        timer_delete(timer_);
        drainPending();
        sigaction(tickSignal(), &previous_, nullptr);
        pthread_sigmask(SIG_UNBLOCK, &tick_, nullptr);
        active_ = nullptr;
    }

    SpeedProbe(const SpeedProbe &) = delete;
    SpeedProbe &operator=(const SpeedProbe &) = delete;

    /** Folded kernel output; printed so the kernel cannot be elided. */
    uint64_t checksum() const { return checksum_; }

    /**
     * Run @p f and return {scaled, raw} host seconds, scaled by the
     * mean kernel time during the call.
     */
    template <typename F>
    std::pair<double, double>
    time(F &&f)
    {
        ns_ = 0;
        samples_ = 0;
        sample();
        arm(kTickMs);
        pthread_sigmask(SIG_UNBLOCK, &tick_, nullptr);
        const auto t0 = Clock::now();
        f();
        const double raw = since(t0);
        pthread_sigmask(SIG_BLOCK, &tick_, nullptr);
        arm(0);
        drainPending();
        sample();
        const double mean = 1e-9 * static_cast<double>(ns_.load()) /
                            static_cast<double>(samples_.load());
        return {raw * std::pow(kNominalSeconds / mean, sensitivity_), raw};
    }

  private:
    static constexpr size_t kWords = size_t(1) << 14;  // 2 x 128 KiB
    static constexpr uint64_t kPasses = 8;

    static int tickSignal() { return SIGRTMIN + 3; }

    static void
    onTick(int)
    {
        if (SpeedProbe *p = active_)
            p->sample();
    }

    /** Run the kernel once; async-signal-safe. */
    void
    sample()
    {
        timespec t0, t1;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        for (uint64_t pass = 0; pass < kPasses; ++pass)
            for (size_t i = 0; i < kWords; ++i)
                a_[i] = ~(a_[i] | b_[(i * 7 + pass) & (kWords - 1)]) ^
                        (a_[i] >> 3);
        clock_gettime(CLOCK_MONOTONIC, &t1);
        checksum_ ^= a_[checksum_ & (kWords - 1)];
        ns_ += static_cast<uint64_t>((t1.tv_sec - t0.tv_sec) * 1000000000ll +
                                     (t1.tv_nsec - t0.tv_nsec));
        samples_ += 1;
    }

    /** Discard a tick raised after the last timed call ended. */
    void
    drainPending()
    {
        const timespec zero = {};
        while (sigtimedwait(&tick_, nullptr, &zero) > 0) {
        }
    }

    void
    arm(long periodMs)
    {
        struct itimerspec its = {};
        its.it_interval.tv_nsec = periodMs * 1000000;
        its.it_value = its.it_interval;
        timer_settime(timer_, 0, &its, nullptr);
    }

    static inline SpeedProbe *volatile active_ = nullptr;

    double sensitivity_;
    std::array<uint64_t, kWords> a_, b_;
    uint64_t checksum_ = 0;
    std::atomic<uint64_t> ns_{0};
    std::atomic<uint64_t> samples_{0};
    sigset_t tick_;
    struct sigaction previous_ = {};
    timer_t timer_ = nullptr;
};

struct RepSample
{
    double seconds = 0.0;     //!< host seconds, speed-scaled
    double rawSeconds = 0.0;  //!< host seconds as measured
    Stats sim;  //!< architectural counters (Profiler window)
    Stats drv;  //!< driver host-side counters (rep delta)
    Stats drvTotal;  //!< driver counters over the device's lifetime
    StorageGauges gauges;
};

struct LoopResult
{
    std::vector<RepSample> reps;
    std::vector<double> setupSeconds;  //!< speed-scaled
    uint64_t failed = 0;
};

/**
 * Closed loop with one client: reps run back to back until @p seconds
 * have passed and at least @p minReps reps are done. A rep whose
 * output check fails, that throws, or whose simulated cycles differ
 * from @p refCycles (set by the first rep when 0) counts as failed.
 */
LoopResult
runLoop(Workload &w, Ledger &L, SpeedProbe &probe, double seconds,
        uint32_t minReps, uint64_t &refCycles)
{
    LoopResult r;
    const auto start = Clock::now();
    for (uint32_t i = 0; i < minReps || since(start) < seconds; ++i) {
        RepSample s;
        bool ok = false;
        try {
            if (w.setupPerRep())
                r.setupSeconds.push_back(
                    probe.time([&] { w.setup(); }).first);
            Device &dev = w.device();
            L.setRep(i);
            Profiler prof(dev);
            const Stats drv0 = dev.driver().stats();
            std::tie(s.seconds, s.rawSeconds) =
                probe.time([&] { w.rep(L); });
            s.sim = prof.delta();
            s.drvTotal = dev.driver().stats();
            s.drv = s.drvTotal - drv0;
            if (L.on())
                s.gauges = dev.group().storageGauges();
            if (refCycles == 0)
                refCycles = s.sim.totalCycles();
            ok = w.check() && s.sim.totalCycles() == refCycles;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "rep %u failed: %s\n", i, e.what());
        }
        if (!ok)
            ++r.failed;
        r.reps.push_back(s);
    }
    return r;
}

std::vector<double>
repSeconds(const LoopResult &r, bool raw = false)
{
    std::vector<double> v;
    for (const RepSample &s : r.reps)
        v.push_back(raw ? s.rawSeconds : s.seconds);
    return v;
}

/** Host seconds (speed-scaled) of the first @p k reps: the fixed
 *  timed region. */
double
wallSeconds(const LoopResult &r, uint32_t k)
{
    double s = 0.0;
    for (uint32_t i = 0; i < k && i < r.reps.size(); ++i)
        s += r.reps[i].seconds;
    return s;
}

// ----------------------------------------------- driver/sim time split

/** Call @p f and add its host seconds to @p acc. */
template <typename F>
decltype(auto)
addTime(double &acc, F &&f)
{
    struct Add
    {
        double &acc;
        Clock::time_point t0 = Clock::now();
        ~Add() { acc += since(t0); }
    } add{acc};
    return f();
}

/** Host seconds spent in each OperationSink entry point. */
struct SinkTimes
{
    double prepareTrace = 0, submitTrace = 0, batch = 0, flush = 0,
           io = 0;

    double
    total() const
    {
        return prepareTrace + submitTrace + batch + flush + io;
    }
};

/**
 * Forwards every OperationSink call to a SimulatorGroup and times it.
 * Overrides every virtual, so a Driver over it takes the same paths it
 * takes over the group directly.
 */
class TimedSink final : public OperationSink
{
  public:
    explicit TimedSink(SimulatorGroup &g) : g_(g) {}

    SinkTimes times;

    void
    performBatch(const Word *ops, size_t n) override
    {
        addTime(times.batch, [&] { g_.performBatch(ops, n); });
    }
    void
    submitBatch(const Word *ops, size_t n) override
    {
        addTime(times.batch, [&] { g_.submitBatch(ops, n); });
    }
    void
    flush() override
    {
        addTime(times.flush, [&] { g_.flush(); });
    }
    std::shared_ptr<const BatchTrace>
    prepareTrace(const Word *ops, size_t n, bool fuse) override
    {
        return addTime(times.prepareTrace,
                     [&] { return g_.prepareTrace(ops, n, fuse); });
    }
    void
    submitTrace(std::shared_ptr<const BatchTrace> trace) override
    {
        addTime(times.submitTrace,
              [&] { g_.submitTrace(std::move(trace)); });
    }
    bool
    readBulk(const BulkIoSpec &spec, uint32_t *out,
             BulkIoTelemetry &tel) override
    {
        return addTime(times.io, [&] { return g_.readBulk(spec, out, tel); });
    }
    bool
    writeBulk(const BulkIoSpec &spec, const uint32_t *values,
              BulkIoTelemetry &tel) override
    {
        return addTime(times.io,
                     [&] { return g_.writeBulk(spec, values, tel); });
    }
    uint32_t
    performRead(Word op) override
    {
        return addTime(times.io, [&] { return g_.performRead(op); });
    }

  private:
    SimulatorGroup &g_;
};

/** Times the driver calls of a macro-instruction mix. */
struct MixClock
{
    double driverSeconds = 0;
    TimedSink *sink = nullptr;  //!< null when sent straight to a group

    template <typename F>
    decltype(auto)
    call(F &&f)
    {
        return addTime(driverSeconds, std::forward<F>(f));
    }

    /** Forget the mix's untimed preparation (filling registers). */
    void
    resetAfterSetup()
    {
        driverSeconds = 0;
        if (sink)
            sink->times = SinkTimes();
    }
};

struct MixResult
{
    Stats driverStats;
    uint64_t checksum = 0;
};

RTypeInstr
rtype(ROp op, DType dt, uint8_t rd, uint8_t ra, uint8_t rb, uint8_t rc,
      Range warps, Range rows)
{
    RTypeInstr in;
    in.op = op;
    in.dtype = dt;
    in.rd = rd;
    in.ra = ra;
    in.rb = rb;
    in.rc = rc;
    in.warps = warps;
    in.rows = rows;
    return in;
}

/** Fill register @p reg of the first @p n threads with seeded words. */
void
fillRegister(Driver &drv, MixClock &clk, uint8_t reg, uint64_t n,
             Rng &rng, bool floats)
{
    std::vector<uint32_t> v(n);
    for (auto &x : v)
        x = floats ? std::bit_cast<uint32_t>(rng.floatIn(-1.f, 1.f))
                   : rng.word();
    clk.call([&] { drv.writeBulk(reg, 0, 0, 1, n, v.data()); });
}

MixResult
readBack(Driver &drv, MixClock &clk, uint8_t reg, uint64_t n,
         MixResult r)
{
    std::vector<uint32_t> out(n);
    if (!clk.call([&] { return drv.readBulk(reg, 0, 0, 1, n, out.data()); }))
        fatal("mix: bulk readback unavailable");
    for (uint32_t v : out)
        r.checksum = r.checksum * 0x100000001B3ull ^ v;
    r.driverStats += drv.stats();
    return r;
}

/** One CORDIC iteration's instructions on the whole memory, cached. */
MixResult
cordicMix(OperationSink &sink, const Geometry &g, uint64_t seed,
          uint32_t passes, MixClock &clk)
{
    Driver drv(sink, g);
    Rng rng(seed);
    const uint64_t n = g.totalRows();
    const Range W = Range::all(g.numCrossbars), R = Range::all(g.rows);
    for (uint8_t reg = 0; reg < 3; ++reg)
        fillRegister(drv, clk, reg, n, rng, true);
    const DType F = DType::Float32;
    // Pass 0 is an untimed warm-up that fills the driver caches.
    for (uint32_t p = 0; p <= passes; ++p) {
        if (p == 1)
            clk.resetAfterSetup();
        WriteInstr c;
        c.reg = 5;
        c.value = std::bit_cast<uint32_t>(0.5f);
        c.warps = W;
        c.rows = R;
        clk.call([&] { drv.execute(c); });
        for (const RTypeInstr &in : {
                 rtype(ROp::Ge, F, 4, 0, 5, 0, W, R),
                 rtype(ROp::Mul, F, 6, 1, 5, 0, W, R),
                 rtype(ROp::Mul, F, 7, 2, 5, 0, W, R),
                 rtype(ROp::Sub, F, 8, 1, 7, 0, W, R),
                 rtype(ROp::Add, F, 9, 1, 7, 0, W, R),
                 rtype(ROp::Mux, F, 1, 8, 9, 4, W, R),
                 rtype(ROp::Add, F, 8, 2, 6, 0, W, R),
                 rtype(ROp::Sub, F, 9, 2, 6, 0, W, R),
                 rtype(ROp::Mux, F, 2, 8, 9, 4, W, R),
                 rtype(ROp::Sub, F, 8, 0, 5, 0, W, R),
                 rtype(ROp::Add, F, 9, 0, 5, 0, W, R),
                 rtype(ROp::Mux, F, 0, 8, 9, 4, W, R)})
            clk.call([&] { drv.execute(in); });
    }
    return readBack(drv, clk, 2, n, {});
}

/**
 * Logarithmic fold of a sum and a product reduce, each pass on a new
 * (cold) Driver: inter-warp H-tree moves, intra-warp moves and one
 * combining instruction per level on a shrinking row range.
 */
MixResult
reduceMix(OperationSink &sink, const Geometry &g, uint64_t seed,
          uint32_t passes, MixClock &clk)
{
    MixResult r;
    {
        Driver drv(sink, g);
        Rng rng(seed);
        for (uint8_t reg = 0; reg < 2; ++reg)
            fillRegister(drv, clk, reg, g.totalRows(), rng, true);
    }
    clk.resetAfterSetup();
    for (uint32_t p = 0; p < passes; ++p) {
        Driver drv(sink, g);
        for (const ROp op : {ROp::Add, ROp::Mul}) {
            // Ping-pong between the input register and a result one:
            // a destination must not alias a source.
            uint8_t cur = op == ROp::Add ? 0 : 1;
            uint8_t res = op == ROp::Add ? 3 : 4;
            auto level = [&](Range warps, Range rows) {
                const auto in =
                    rtype(op, DType::Float32, res, cur, 2, 0, warps, rows);
                clk.call([&] { drv.execute(in); });
                std::swap(cur, res);
            };
            for (uint32_t w = g.numCrossbars; w > 1; w /= 2) {
                const uint32_t half = w / 2;
                for (uint32_t row = 0; row < g.rows; ++row) {
                    MoveInstr mv;
                    mv.kind = MoveInstr::Kind::InterWarp;
                    mv.srcReg = cur;
                    mv.dstReg = 2;
                    mv.srcRow = mv.dstRow = row;
                    mv.warps = Range(half, w - 1, 1);
                    mv.dstStartWarp = 0;
                    clk.call([&] { drv.execute(mv); });
                }
                level(Range(0, half - 1, 1), Range::all(g.rows));
            }
            for (uint32_t len = g.rows; len > 1; len /= 2) {
                const uint32_t half = len / 2;
                for (uint32_t row = 0; row < half; ++row) {
                    MoveInstr mv;
                    mv.kind = MoveInstr::Kind::IntraWarp;
                    mv.srcReg = cur;
                    mv.dstReg = 2;
                    mv.srcRow = half + row;
                    mv.dstRow = row;
                    mv.warps = Range::single(0);
                    clk.call([&] { drv.execute(mv); });
                }
                level(Range::single(0), Range(0, half - 1, 1));
            }
        }
        ReadInstr rd;
        rd.reg = 0;
        const uint32_t v = clk.call([&] { return drv.execute(rd); });
        r.checksum = r.checksum * 0x100000001B3ull ^ v;
        r.driverStats += drv.stats();
    }
    return r;
}

/**
 * Bitonic compare-exchange steps over @p n elements: one exchange at a
 * distance inside a crossbar (intra-warp moves, one per row) and one
 * across crossbars (inter-warp moves), each followed by the
 * compare/select instructions.
 */
MixResult
sortMix(OperationSink &sink, const Geometry &g, uint64_t n,
        uint64_t seed, uint32_t passes, MixClock &clk)
{
    Driver drv(sink, g);
    Rng rng(seed);
    fillRegister(drv, clk, 0, n, rng, true);
    const uint32_t warps = static_cast<uint32_t>(n / g.rows);
    const Range W(0, warps - 1, 1), R = Range::all(g.rows);
    const DType F = DType::Float32;
    // Pass 0 is an untimed warm-up that fills the driver caches.
    for (uint32_t p = 0; p <= passes; ++p) {
        if (p == 1)
            clk.resetAfterSetup();
        const uint32_t j = 1u << (p % std::bit_width(g.rows / 2));
        for (uint32_t row = 0; row < g.rows; ++row) {
            MoveInstr mv;
            mv.kind = MoveInstr::Kind::IntraWarp;
            mv.srcReg = 0;
            mv.dstReg = 1;
            mv.srcRow = row ^ j;
            mv.dstRow = row;
            mv.warps = W;
            clk.call([&] { drv.execute(mv); });
        }
        for (uint32_t row = 0; row < g.rows; ++row) {
            for (uint32_t w = 0; w < warps; ++w) {
                MoveInstr mv;
                mv.kind = MoveInstr::Kind::InterWarp;
                mv.srcReg = 0;
                mv.dstReg = 2;
                mv.srcRow = mv.dstRow = row;
                mv.warps = Range::single(w);
                mv.dstStartWarp = w ^ 1;
                clk.call([&] { drv.execute(mv); });
            }
        }
        for (const RTypeInstr &in : {
                 rtype(ROp::Lt, F, 3, 0, 1, 0, W, R),
                 rtype(ROp::Mux, F, 4, 0, 1, 3, W, R),
                 rtype(ROp::Mux, F, 5, 1, 0, 3, W, R),
                 rtype(ROp::Lt, F, 3, 0, 2, 0, W, R),
                 rtype(ROp::Mux, F, 0, 4, 5, 3, W, R)})
            clk.call([&] { drv.execute(in); });
    }
    return readBack(drv, clk, 0, n, {});
}

/** Bulk write, one cached elementwise op, bulk read, scalar I/O. */
MixResult
ioMix(OperationSink &sink, const Geometry &g, uint64_t seed,
      uint32_t passes, MixClock &clk)
{
    Driver drv(sink, g);
    Rng rng(seed);
    const uint64_t n = g.totalRows();
    MixResult r;
    // Pass 0 is an untimed warm-up that fills the driver caches.
    for (uint32_t p = 0; p <= passes; ++p) {
        if (p == 1)
            clk.resetAfterSetup();
        fillRegister(drv, clk, 0, n, rng, false);
        const auto in = rtype(ROp::Add, DType::Int32, 1, 0, 0, 0,
                              Range::all(g.numCrossbars),
                              Range::all(g.rows));
        clk.call([&] { drv.execute(in); });
        for (uint32_t k = 0; k < 64; ++k) {
            WriteInstr wr;
            wr.reg = 2;
            wr.value = rng.word();
            wr.warps = Range::single(k % g.numCrossbars);
            wr.rows = Range::single(k % g.rows);
            clk.call([&] { drv.execute(wr); });
            ReadInstr rd;
            rd.reg = 2;
            rd.warp = wr.warps.start;
            rd.row = wr.rows.start;
            const uint32_t v = clk.call([&] { return drv.execute(rd); });
            r.checksum = r.checksum * 0x100000001B3ull ^ v;
        }
        std::vector<uint32_t> out(n);
        if (!clk.call(
                [&] { return drv.readBulk(1, 0, 0, 1, n, out.data()); }))
            fatal("mix: bulk readback unavailable");
        for (uint32_t v : out)
            r.checksum = r.checksum * 0x100000001B3ull ^ v;
    }
    r.driverStats = drv.stats();
    return r;
}

// ---------------------------------------------------------------- setup

struct Plan
{
    std::string name;
    Geometry geo;
    uint64_t sortLen = 0;
    uint32_t wallReps;   //!< reps in the fixed timed region (wall_s)
    uint32_t setupRuns;  //!< set-up samples for workloads set up once
    uint32_t mixPasses;
    /**
     * How much the workload's host time follows the speed probe: the
     * exponent of its scaling. Chosen from ten-run spreads of the
     * rep-time median on a shared 4-vCPU Sapphire Rapids KVM guest.
     * CORDIC's compiled replay streams bitwise work over blocks like the
     * probe kernel does and tracks it fully: its spread was 2-4% at 1.0
     * and 6% at 0.75. The other three mix in branchy driver and decode
     * work that slows less: at 1.0 versus 0.75 the spreads were 6% versus
     * 2% (reduce_cold), 11% versus 5% (sort) and 3% at both
     * (io_roundtrip).
     */
    double speedSensitivity = 0.75;
};

Plan
makePlan(const std::string &name, bool smoke)
{
    Plan p;
    p.name = name;
    p.geo = smoke ? testGeometry() : Geometry();
    p.setupRuns = smoke ? 1 : 3;
    p.mixPasses = smoke ? 1 : 4;
    if (name == "cordic") {
        p.wallReps = smoke ? 2 : 12;
        p.speedSensitivity = 1.0;
    } else if (name == "reduce_cold") {
        p.wallReps = smoke ? 2 : 8;
    } else if (name == "sort") {
        p.sortLen = 2 * p.geo.rows;
        p.wallReps = smoke ? 2 : 4;
    } else if (name == "io_roundtrip") {
        if (!smoke)
            p.geo.numCrossbars = 1024;
        p.wallReps = smoke ? 2 : 96;
        p.setupRuns = smoke ? 1 : 7;
    } else {
        fatal("unknown workload '" + name +
              "' (expected cordic|reduce_cold|sort|io_roundtrip)");
    }
    p.geo.validate();
    return p;
}

std::unique_ptr<Workload>
makeWorkload(const Plan &p, uint64_t seed)
{
    if (p.name == "cordic")
        return std::make_unique<Cordic>(p.geo, seed);
    if (p.name == "reduce_cold")
        return std::make_unique<ReduceCold>(p.geo, seed);
    if (p.name == "sort")
        return std::make_unique<Sort>(p.geo, p.sortLen, seed);
    return std::make_unique<IoRoundtrip>(p.geo, seed);
}

MixResult
runMix(const Plan &p, OperationSink &sink, uint64_t seed, MixClock &clk)
{
    if (p.name == "cordic")
        return cordicMix(sink, p.geo, seed, p.mixPasses, clk);
    if (p.name == "reduce_cold")
        return reduceMix(sink, p.geo, seed, p.mixPasses, clk);
    if (p.name == "sort")
        return sortMix(sink, p.geo, p.sortLen, seed, p.mixPasses, clk);
    return ioMix(sink, p.geo, seed, p.mixPasses, clk);
}

/**
 * Refuse to measure anything but the shipped defaults of an optimised
 * build: a PYPIM_* variable would change the configuration silently.
 */
void
guardConfig()
{
    for (char **e = environ; *e; ++e)
        fatalIf(std::strncmp(*e, "PYPIM_", 6) == 0,
                std::string("refusing to run with ") + *e +
                    " set: the benchmark measures the shipped defaults");
#ifndef __OPTIMIZE__
    fatal("refusing to run: perfbench was built without optimisation");
#endif
    const std::string bt = PERFBENCH_BUILD_TYPE;
    fatalIf(bt != "Release" && bt != "RelWithDebInfo",
            "refusing to run: build type '" + bt +
                "' is not an optimised build");
}

void
printConfig(const Plan &p, uint64_t seed, double seconds, bool trace,
            bool smoke)
{
    const EngineConfig ec = EngineConfig::fromEnv();
    const uint32_t replayThreads =
        ec.kind == EngineKind::Sharded ? ec.resolvedThreads() : 1;
    const uint32_t hostThreads =
        replayThreads + (ec.pipeline ? ec.devices : 0);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "smoke=%d\n",
                p.name.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0, smoke ? 1 : 0);
    std::printf("build: type=%s flags='%s' optimised=yes\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    std::printf("engine config: kind=%s threads=%u (resolved %u) "
                "pipeline=%d traceCache=%d devices=%u affinity=%d "
                "storage=%s bulkIo=%d compiledReplay=%d faults='%s' "
                "verifyState=%d transport=%s\n",
                engineKindName(ec.kind), ec.threads, ec.resolvedThreads(),
                ec.pipeline, ec.traceCache, ec.devices, ec.affinity,
                xbarStorageName(ec.storage), ec.bulkIo, ec.compiledReplay,
                ec.faults.c_str(), ec.verifyState,
                transportKindName(ec.transport));
    std::printf("threads: client=1 replay=%u host total<=%u nproc=%u\n",
                replayThreads, 1 + hostThreads, hw);
    fatalIf(hostThreads > hw,
            "refusing to run: the configuration needs more threads "
            "than the host has");
    std::printf("geometry: %u crossbars x %u rows x %u cols%s\n",
                p.geo.numCrossbars, p.geo.rows, p.geo.cols,
                p.sortLen ? (", sort length " +
                             std::to_string(p.sortLen)).c_str()
                          : "");
}

template <typename Get>
double
perRep(const LoopResult &r, Get get)
{
    double s = 0.0;
    for (const RepSample &x : r.reps)
        s += static_cast<double>(get(x));
    return r.reps.empty() ? 0.0 : s / static_cast<double>(r.reps.size());
}

int
run(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    bool smoke = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            fatalIf(i + 1 >= argc, a + ": missing value");
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed") {
            seed = std::stoull(value());
            haveSeed = true;
        } else if (a == "--seconds")
            seconds = std::stod(value());
        else if (a == "--trace")
            trace = std::stoi(value());
        else if (a == "--smoke")
            smoke = true;
        else
            fatal("unknown argument '" + a + "'");
    }
    fatalIf(workload.empty() || !haveSeed,
            "usage: perfbench --workload W --seed N --seconds S "
            "--trace 0|1 [--smoke]");
    fatalIf(trace != 0 && trace != 1, "--trace: expected 0 or 1");
    fatalIf(!(seconds > 0.0), "--seconds: expected a positive number");
    guardConfig();

    const Plan plan = makePlan(workload, smoke);
    printConfig(plan, seed, seconds, trace == 1, smoke);
    if (smoke)
        seconds = 0.0;
    std::fflush(stdout);

    auto probePtr = std::make_unique<SpeedProbe>(plan.speedSensitivity);
    SpeedProbe &probe = *probePtr;
    std::unique_ptr<Workload> w = makeWorkload(plan, seed);
    std::vector<double> setupSeconds;
    if (!w->setupPerRep())
        for (uint32_t i = 0; i < plan.setupRuns; ++i)
            setupSeconds.push_back(probe.time([&] { w->setup(); }).first);

    // The end-to-end loop: untraced. With --trace 1 it shares the
    // budget with the traced loop that follows.
    uint64_t refCycles = 0;
    Ledger off(false);
    const double loopSeconds = trace ? seconds / 2 : seconds;
    LoopResult e2e =
        runLoop(*w, off, probe, loopSeconds, plan.wallReps, refCycles);
    if (w->setupPerRep())
        setupSeconds = e2e.setupSeconds;

    LoopResult traced;
    Ledger ledger(true);
    if (trace)
        traced = runLoop(*w, ledger, probe, loopSeconds, plan.wallReps,
                         refCycles);

    const uint64_t attempted = e2e.reps.size() + traced.reps.size();
    const uint64_t failed = e2e.failed + traced.failed;
    const std::vector<double> reps = repSeconds(e2e);
    const Stats &first = e2e.reps.front().sim;
    const uint64_t cycles = first.totalCycles();
    const uint64_t convention =
        theory::conventionCycles(first, plan.geo);

    std::printf("end-to-end (untraced, %zu reps, %zu set-up samples):\n",
                reps.size(), setupSeconds.size());
    const std::vector<double> raw = repSeconds(e2e, true);
    std::printf("  rep_ms speed-scaled p50 %.3f p90 %.3f max %.3f; raw p50 "
                "%.3f p90 %.3f max %.3f; over %zu reps (probe checksum "
                "%llx)\n",
                median(reps) * 1e3, quantile(reps, 0.9) * 1e3,
                quantile(reps, 1.0) * 1e3, median(raw) * 1e3,
                quantile(raw, 0.9) * 1e3, quantile(raw, 1.0) * 1e3,
                reps.size(),
                static_cast<unsigned long long>(probe.checksum()));
    std::printf("  failed_frac %.6f (%llu of %llu reps)\n",
                static_cast<double>(failed) /
                    static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    Report out;
    bool correct = failed == 0;
    if (!trace) {
        out.add("rep_ms_p50", median(reps) * 1e3, "ms");
        out.add("wall_s", wallSeconds(e2e, plan.wallReps), "s");
        out.add("setup_s", median(setupSeconds), "s");
        out.add("sim_cycles", static_cast<double>(cycles), "cycles");
        out.add("integration_overhead_pct",
                (static_cast<double>(cycles) /
                     static_cast<double>(convention) -
                 1.0) *
                    100.0,
                "%");
        out.add("peak_rss_mb", peakRssMiB(), "MiB");
    } else {
        const LoopResult &t = traced;
        std::printf("per-layer (traced, %zu reps; counters and span "
                    "times per rep):\n",
                    t.reps.size());
        // Span times get their rep's speed scale, like the rep times.
        const double nReps = static_cast<double>(t.reps.size());
        std::vector<double> scale;
        for (const RepSample &s : t.reps)
            scale.push_back(s.rawSeconds > 0 ? s.seconds / s.rawSeconds
                                             : 1.0);
        double spanTotal = 0.0;
        for (size_t l = 0; l < static_cast<size_t>(Pim::Count); ++l) {
            const double s = ledger.total(static_cast<Pim>(l), scale);
            spanTotal += s;
            out.add(kPimMetric[l], s / nReps, "s");
        }
        const double repTotal = wallSeconds(t, t.reps.size());
        out.add("trace.span_coverage_pct", spanTotal / repTotal * 100.0,
                "%");
        out.add("trace.overhead_pct",
                (wallSeconds(t, plan.wallReps) /
                     wallSeconds(e2e, plan.wallReps) -
                 1.0) *
                    100.0,
                "%");

        const auto drvPerRep = [&t](uint64_t Stats::*field) {
            return perRep(t,
                          [field](const RepSample &s) { return s.drv.*field; });
        };
        const double instr = drvPerRep(&Stats::instructions);
        const double uops =
            perRep(t, [](const RepSample &s) { return s.sim.totalOps(); });
        const double hits = drvPerRep(&Stats::traceCacheHits);
        const double builds = drvPerRep(&Stats::traceCacheMisses);
        out.add("driver.instructions", instr, "count");
        out.add("driver.uops_per_instr", instr ? uops / instr : 0.0,
                "uops/instr");
        out.add("driver.trace_builds", builds, "count");
        out.add("driver.trace_lookups", hits + builds, "count");
        out.add("driver.trace_hit_ratio",
                hits + builds ? hits / (hits + builds) : 0.0, "ratio");
        // Fusion happens when a trace is built, so a warm rep builds
        // none: report the fusion done for the traces cached on the
        // last rep's device (warm-up included).
        const Stats &fused = t.reps.back().drvTotal;
        out.add("driver.fusion_waw", fused.fusionWaw, "count");
        out.add("driver.fusion_init_chain", fused.fusionInitChain, "count");
        out.add("driver.fusion_window", fused.fusionWindow, "count");
        out.add("driver.fusion_write_stripe", fused.fusionWriteStripe,
                "count");

        for (size_t c = 0; c < Stats::numClasses; ++c)
            out.add(std::string("sim.uops.") +
                        opClassName(static_cast<OpClass>(c)),
                    perRep(t, [c](const RepSample &s) {
                        return s.sim.opCount[c];
                    }),
                    "count");
        constexpr size_t kMove = static_cast<size_t>(OpClass::Move);
        out.add("sim.cycles.move",
                perRep(t, [](const RepSample &s) {
                    return s.sim.cycleCount[kMove];
                }),
                "cycles");
        out.add("sim.host_ns_per_uop", median(reps) * 1e9 / uops, "ns");
        out.add("io.words_transposed", drvPerRep(&Stats::ioWordsTransposed),
                "count");
        out.add("io.drains", drvPerRep(&Stats::ioDrains), "count");
        out.add("io.bulk_reads", drvPerRep(&Stats::bulkReads), "count");
        out.add("io.bulk_writes", drvPerRep(&Stats::bulkWrites), "count");
        StorageGauges peak;
        for (const RepSample &s : t.reps) {
            peak.residentBytes =
                std::max(peak.residentBytes, s.gauges.residentBytes);
            peak.blocksPresent =
                std::max(peak.blocksPresent, s.gauges.blocksPresent);
            peak.cowShared = std::max(peak.cowShared, s.gauges.cowShared);
        }
        out.add("sim.storage.resident_mb",
                static_cast<double>(peak.residentBytes) / (1 << 20), "MiB");
        out.add("sim.storage.blocks_present",
                static_cast<double>(peak.blocksPresent), "count");
        out.add("sim.storage.cow_shared",
                static_cast<double>(peak.cowShared), "count");

        // Driver/sim host-time split over the workload's dominant
        // macro-instruction mix, and the forwarding sink's
        // transparency: the same mix sent straight to a group must
        // leave identical architectural and driver counters.
        const EngineConfig ec = EngineConfig::fromEnv();
        SimulatorGroup timedGroup(plan.geo, ec);
        TimedSink sink(timedGroup);
        MixClock clk;
        clk.sink = &sink;
        MixResult viaSink;
        const auto [mixScaled, mixRaw] =
            probe.time([&] { viaSink = runMix(plan, sink, seed, clk); });
        SimulatorGroup directGroup(plan.geo, ec);
        MixClock direct;
        const MixResult straight = runMix(plan, directGroup, seed, direct);
        const bool transparent =
            timedGroup.stats() == directGroup.stats() &&
            viaSink.driverStats == straight.driverStats &&
            viaSink.checksum == straight.checksum;
        std::printf("  forwarding sink transparent: %s (%u mix passes, "
                    "%llu uops)\n",
                    transparent ? "yes" : "NO", plan.mixPasses,
                    static_cast<unsigned long long>(
                        timedGroup.stats().totalOps()));
        correct = correct && transparent;
        // Seconds per pass, with the speed scale of the whole mix run.
        const double per = mixScaled / mixRaw / plan.mixPasses;
        const SinkTimes &st = sink.times;
        out.add("driver.self_s", (clk.driverSeconds - st.total()) * per,
                "s");
        out.add("sim.prepare_trace_s", st.prepareTrace * per, "s");
        out.add("sim.submit_trace_s", st.submitTrace * per, "s");
        out.add("sim.batch_s", st.batch * per, "s");
        out.add("sim.sink_flush_s", st.flush * per, "s");
        out.add("sim.io_s", st.io * per, "s");
    }
    std::fflush(stdout);
    out.printJson(correct, attempted, failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
