/**
 * @file
 * Shared pieces of the whole-model benchmark: options, the metric
 * tables, the benchmark-side span recorder, and the readers of the
 * library's own counters.
 *
 * Every layer is measured from outside: the benchmark times its own
 * calls into each layer's public functions (TracedNet drives a
 * Sequential one child at a time, as Sequential::forward does itself)
 * and reads the counters the library already publishes (wino.*,
 * workspace.*, serve.*, tuner.*, noc::Network statistics).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "nn/conv_layer.hh"
#include "nn/module.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;     ///< per-layer (traced) run instead of end-to-end
    bool fault = false;     ///< inject one fault the checks must catch
    std::string traceOut;   ///< Chrome-trace file for the recorded spans
    int threads = 1;        ///< pinned pool size
};

/** Attempted/failed operations plus the metrics one run reports. */
class Outcome
{
  public:
    /** The names and units this run must report (the end-to-end or the
     *  per-layer table); every value starts at 0. */
    explicit Outcome(bool traced);

    /** Count one operation; a false `ok` counts it failed and logs
     *  `what` to stderr. */
    void check(bool ok, const std::string &what);

    /** Set a metric of this run's table (dies on an unknown name; a
     *  non-finite value counts as a failed operation). */
    void set(const std::string &name, double value);

    /** The final JSON result line. */
    std::string json() const;
    /** Human-readable metric lines (name, value, unit). */
    void print() const;

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        double value = 0.0;
    };
    std::vector<Entry> entries;
    std::int64_t nAttempted = 0;
    std::int64_t nFailed = 0;
};

/**
 * Benchmark-side span recorder. Spans nest (each records the span open
 * when it started as its parent), accumulate a per-name total, and are
 * kept in memory until writeChromeTrace(). One thread records at a
 * time, with a happens-before edge (thread start/join, queue hand-off)
 * between recording threads.
 */
class Spans
{
  public:
    Spans();

    /** Id of span name `name` (interned once, cheap to reuse). */
    int id(const std::string &name);

    class Scope
    {
      public:
        /** Open span `nameId` on `rec`; a null recorder records
         *  nothing. */
        Scope(Spans *rec, int nameId);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *rec;
        std::size_t index = 0;
    };

    /** Summed duration (ms) and count of the spans named `name`. */
    double totalMs(const std::string &name) const;
    std::int64_t count(const std::string &name) const;
    /** Duration (ms) of the most recently closed span with this id. */
    double lastMs(int nameId) const { return last[std::size_t(nameId)]; }

    /** Drop every recorded span and total (no span may be open). */
    void clear();

    /** Write every recorded span as a Chrome trace-event file. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Record
    {
        int name;
        int parent;    ///< record index of the enclosing span, or -1
        double startUs;
        double durUs;
    };

    double nowUs() const;

    Clock::time_point epoch;
    std::vector<std::string> names;
    std::map<std::string, int> ids;
    std::vector<double> totals; ///< ms, per name id
    std::vector<std::int64_t> counts;
    std::vector<double> last;   ///< ms, per name id
    std::vector<Record> records;
    int open = -1;
};

/**
 * Drives a Sequential's children one call at a time — exactly what
 * Sequential::forward/backward/step do — with a span around each call:
 * nn.forward around a whole forward, nn.convK.{fwd,bwd} for the K-th
 * convolution, nn.other.{fwd,bwd} for every other child, nn.step
 * around the whole update.
 *
 * Handing a TracedNet to serve::Engine hides the Sequential from the
 * engine's plan-source wiring, so a server re-attaches autoConvs()
 * itself.
 */
class TracedNet : public winomc::nn::Module
{
  public:
    TracedNet(winomc::nn::Sequential &net, Spans &spans);

    winomc::Tensor forward(const winomc::Tensor &x, bool train) override;
    winomc::Tensor backward(const winomc::Tensor &dy) override;
    void step(float lr) override;
    std::string name() const override { return "traced"; }

    /** The Auto-mode ConvLayer children (served models). */
    std::vector<winomc::nn::ConvLayer *> autoConvs() const;

    /**
     * Tuner error samples: for every forward of an Auto-mode conv,
     * |log2(predictedMs / measured ms)| of the shape just run. One
     * vector per Auto conv, in model order.
     */
    std::vector<std::vector<double>> tunerErrors() const;

  private:
    struct Child
    {
        winomc::nn::Module *module;
        int fwd, bwd; ///< span ids
        winomc::nn::ConvLayer *autoConv; ///< non-null for Auto convs
        std::vector<double> tunerErr;
    };
    Spans &spans;
    std::vector<Child> children;
    int forwardId, stepId;
};

/** Differences of the library's metrics registry between two points. */
class RegistryDelta
{
  public:
    /** Take the baseline snapshot. */
    void start();
    /** Take the end snapshot; accessors then read end - baseline. */
    void stop();

    double timerSec(const std::string &name) const;
    /** Sum of counters whose names start with `prefix` and end with
     *  `suffix`. */
    double counterSum(const std::string &prefix,
                      const std::string &suffix) const;
    /** Latest value of gauge `name` at stop() (0 if absent). */
    double gauge(const std::string &name) const;

  private:
    std::map<std::string, winomc::metrics::Sample> begin, end;
};

/** Library-layer readings shared by the workloads. */
class LayerProbe
{
  public:
    /** Start measuring (restarts the workspace high-water mark). */
    void start();
    /**
     * Stop measuring and report the winograd.*, workspace.*, tuner.*
     * and host.* metrics. Registry timers and counters only record in
     * traced ops, so they are divided by `tracedOps`; workspace and
     * tuner counts cover every op and are divided by `allOps`.
     */
    void report(Outcome &out, double tracedOps, double allOps,
                int threads);

  private:
    RegistryDelta registry;
    std::uint64_t freshBytes0 = 0;
    std::uint64_t selects0 = 0;
    double cpu0 = 0.0;
    Clock::time_point wall0;
};

/**
 * Measured-vs-predicted Winograd traffic of one forward: runs `x`
 * through `net` child by child with metrics on, and sums each call's
 * wino.*.bytes_moved against the plan's predicted_bytes gauge.
 * Returns 0 when no Winograd plan published traffic.
 */
double trafficPredRatio(winomc::nn::Sequential &net,
                        const winomc::Tensor &x, bool train);

/** Fill the nn.* metrics (ms per op) from the spans of a traced
 *  phase; `total` names the span enclosing one op. */
void reportNnLayers(Outcome &out, const Spans &spans,
                    const std::string &total, double ops);

double cpuSeconds();
double peakRssMb();
/** Nearest-rank percentile, q in [0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}
/** Smallest value; 0 for an empty sample. */
inline double
fastest(std::vector<double> v)
{
    return percentile(std::move(v), 0.0);
}
double sum(const std::vector<double> &v);
/** 100 * (traced / untraced - 1), 0 when either is missing. */
double overheadPct(double traced, double untraced);

Outcome runTrain(const Options &opt);
Outcome runServe(const Options &opt);
Outcome runNoc(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
