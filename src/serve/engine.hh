/**
 * @file
 * Dynamic-batching inference engine over an nn::Module.
 *
 * Clients submit single images and get futures; one batcher thread
 * coalesces the queue into shape-pure batches (size threshold or
 * deadline, whichever first; the deadline is an upper bound, waited
 * only while waiting gathers requests), dispatches them through one
 * Module::forward — which parallelizes internally across the
 * common/parallel.hh pool — and demuxes the output rows back to the
 * per-request futures. Batching changes throughput, never results: a
 * demuxed row is bitwise identical to running the request alone,
 * because every Winograd stage treats images and tiles independently.
 *
 * Knobs (parsed with the common/env.hh discipline — garbage warns and
 * falls back):
 *
 *  - WINOMC_SERVE_MAX_BATCH     batch size threshold   (default 8)
 *  - WINOMC_SERVE_MAX_DELAY_US  batching deadline, us  (default 1000;
 *                               an upper bound, waited only while
 *                               waiting gathers requests)
 *
 * The engine owns a serve::PlanCache and re-points every
 * nn::ConvLayer in the model at it, so shape churn leases plans from
 * one byte-budgeted pool; several engines can share one cache
 * (EngineConfig::sharedCache) to serve model replicas.
 *
 * Metrics: serve.queue_depth (gauge), serve.batch_size and
 * serve.latency_us (histograms), serve.rejected / serve.failed
 * (counters) — all registered eagerly so a dump before the first
 * request still lists them — and serve.requests / serve.batches
 * (counters).
 *
 * Each batch's forward runs behind a catch barrier: an exception from
 * Module::forward fails every future of that batch (they rethrow it),
 * counts the batch's requests in serve.failed, and the batcher keeps
 * serving.
 *
 * Telemetry plane: submit() mints a per-request trace id that rides
 * the Request through the queue; dispatch emits a serve.batch span
 * with assemble/forward/demux children and one serve.request span per
 * request carrying {"trace_id": id}, attaches the id as the latency
 * histogram's exemplar (so a p99 outlier in a scrape resolves to its
 * span), and feeds every latency into the SloMonitor (serve/slo.hh).
 * The constructor starts the WINOMC_STATS_PORT exposition listener
 * when that knob is set (common/exposition.hh).
 */

#ifndef WINOMC_SERVE_ENGINE_HH
#define WINOMC_SERVE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "nn/module.hh"
#include "serve/batcher.hh"
#include "serve/plan_cache.hh"
#include "serve/slo.hh"

namespace winomc::serve {

struct EngineConfig
{
    /** Batch size threshold; 0 reads WINOMC_SERVE_MAX_BATCH (def. 8). */
    int maxBatch = 0;
    /** Batching deadline in us; < 0 reads WINOMC_SERVE_MAX_DELAY_US
     *  (default 1000). An upper bound on a partial batch's wait,
     *  waited only while waiting gathers requests: once a deadline
     *  gathers no one, lone requests dispatch at once until a batch
     *  of two or more forms again. 0 disables coalescing waits: every
     *  batch is whatever already queued. */
    long long maxDelayUs = -1;
    /** Request-queue bound (backpressure); 0 means 4 * maxBatch. */
    std::size_t queueCapacity = 0;
    /** Share another engine's plan cache instead of owning one (must
     *  outlive this engine). */
    PlanCache *sharedCache = nullptr;
};

class Engine
{
  public:
    /** @param model served model; the engine re-points its ConvLayers'
     *  plan sources at the plan cache and owns all forward() calls
     *  until stop(). Must outlive the engine. */
    explicit Engine(nn::Module &model, const EngineConfig &cfg = {});
    ~Engine();

    /**
     * Submit one image [1, C, H, W]; the future resolves to the model
     * output for that image. Blocks while the queue is full
     * (backpressure). A batch other than 1, a channel count the
     * model's first ConvLayer does not take, or a submit after stop()
     * is rejected: the future holds a std::runtime_error and the
     * serve.rejected counter counts it; the engine keeps serving.
     */
    std::future<Tensor> submit(Tensor image);

    /**
     * Prime every steady-state resource for the given image shape:
     * runs one forward per batch size 1..maxBatch so all plans sit in
     * the cache and the workspace pool holds every transient — after
     * this, serving that shape performs zero fresh allocations. Call
     * before traffic (it uses the model directly, bypassing the
     * queue).
     */
    void warmup(int c, int h, int w);

    /** Drain every queued request, then join the batcher thread.
     *  Idempotent; implied by the destructor. */
    void stop();

    int maxBatch() const { return maxB; }
    long long maxDelayUs() const { return delayUs; }
    PlanCache &planCache() { return *cache; }
    /** Latency SLO monitor (observed by the batcher thread; read it
     *  for burn rates / alert state). */
    SloMonitor &sloMonitor() { return slo; }
    /** Requests served (completed, not merely submitted). */
    std::uint64_t served() const
    {
        return nServed.load(std::memory_order_relaxed);
    }

  private:
    void run();
    void dispatch(std::vector<Request> &batch);
    /** Fail `r`'s future with `why` and count it in serve.rejected. */
    void reject(Request &r, const std::string &why);

    nn::Module &model;
    std::unique_ptr<PlanCache> ownCache; ///< null when sharing
    PlanCache *cache;
    int maxB;
    long long delayUs;
    int inCh; ///< channels the model's first ConvLayer takes; 0 = any
    RequestQueue queue;
    Tensor batchX; ///< persistent batch-assembly slab
    std::atomic<std::uint64_t> nServed{0};
    std::atomic<std::uint64_t> nextId{1}; ///< trace id mint (submit)
    std::uint64_t batchSeq = 0;           ///< batcher thread only
    SloMonitor slo;
    bool stopped = false;
    std::thread worker; ///< last member: starts after everything above
};

} // namespace winomc::serve

#endif // WINOMC_SERVE_ENGINE_HH
