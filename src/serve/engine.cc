#include "serve/engine.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/env.hh"
#include "common/exposition.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"
#include "nn/conv_layer.hh"

namespace winomc::serve {

namespace {

constexpr long long kMaxBatchCeiling = 4096;
constexpr long long kMaxDelayCeilingUs = 10'000'000; // 10 s

// Histogram layouts (fixed at registration; adds must match).
constexpr double kLatencyLoUs = 0.0;
constexpr double kLatencyHiUs = 1e5; // 100 ms; beyond -> overflow bucket
constexpr int kLatencyBuckets = 100;

/** Re-point every ConvLayer under `m` (recursing through Sequential)
 *  at `src` (nullptr restores the layers' own plan pools). */
void
attachPlanSource(nn::Module &m, PlanSource *src)
{
    if (auto *conv = dynamic_cast<nn::ConvLayer *>(&m)) {
        conv->setPlanSource(src);
        return;
    }
    if (auto *seq = dynamic_cast<nn::Sequential *>(&m)) {
        for (std::size_t i = 0; i < seq->size(); ++i)
            attachPlanSource(seq->child(i), src);
    }
}

int
resolveMaxBatch(const EngineConfig &cfg)
{
    if (cfg.maxBatch > 0)
        return cfg.maxBatch;
    return int(env::envPositiveInt("WINOMC_SERVE_MAX_BATCH",
                                   kMaxBatchCeiling, 8));
}

long long
resolveMaxDelayUs(const EngineConfig &cfg)
{
    if (cfg.maxDelayUs >= 0)
        return cfg.maxDelayUs;
    return env::envPositiveInt("WINOMC_SERVE_MAX_DELAY_US",
                               kMaxDelayCeilingUs, 1000);
}

} // namespace

Engine::Engine(nn::Module &model_, const EngineConfig &cfg)
    : model(model_),
      ownCache(cfg.sharedCache ? nullptr
                               : std::make_unique<PlanCache>()),
      cache(cfg.sharedCache ? cfg.sharedCache : ownCache.get()),
      maxB(resolveMaxBatch(cfg)),
      delayUs(resolveMaxDelayUs(cfg)),
      queue(cfg.queueCapacity ? cfg.queueCapacity
                              : std::size_t(4) * std::size_t(maxB))
{
    attachPlanSource(model, cache);
    // A long-lived service is the natural scrape target: bring up the
    // WINOMC_STATS_PORT listener if configured (no-op otherwise, or
    // when an earlier engine already owns it).
    exposition::startFromEnv();
    // Eager registration: a metrics dump taken before the first
    // request still lists the serving distributions (empty -> "-").
    metrics::gaugeSet("serve.queue_depth", 0.0);
    metrics::histogramRegister("serve.batch_size", 0.0,
                               double(maxB) + 1.0,
                               std::min(maxB + 1, 128));
    metrics::histogramRegister("serve.latency_us", kLatencyLoUs,
                               kLatencyHiUs, kLatencyBuckets);
    worker = std::thread(&Engine::run, this);
}

Engine::~Engine()
{
    stop();
}

std::future<Tensor>
Engine::submit(Tensor image)
{
    Request r;
    std::future<Tensor> fut = r.done.get_future();
    if (image.n() != 1) {
        reject(r, "Engine::submit takes single images, got batch " +
                      std::to_string(image.n()));
        return fut;
    }
    r.x = std::move(image);
    r.id = nextId.fetch_add(1, std::memory_order_relaxed);
    r.enqueued = std::chrono::steady_clock::now();
    metrics::counterAdd("serve.requests");
    if (!queue.push(std::move(r)))
        reject(r, "Engine::submit after stop()");
    return fut;
}

void
Engine::reject(Request &r, const std::string &why)
{
    metrics::counterAdd("serve.rejected");
    r.done.set_exception(
        std::make_exception_ptr(std::runtime_error(why)));
}

void
Engine::warmup(int c, int h, int w)
{
    for (int n = 1; n <= maxB; ++n) {
        Tensor x(n, c, h, w);
        model.forward(x, false);
    }
}

void
Engine::stop()
{
    if (stopped)
        return;
    stopped = true;
    queue.close();
    worker.join();
    // Hand the layers' active plans back to the cache and restore
    // their private pools, so the model outlives the engine safely.
    attachPlanSource(model, nullptr);
}

void
Engine::run()
{
    while (true) {
        std::vector<Request> batch = queue.popBatch(
            maxB, std::chrono::microseconds(delayUs));
        if (batch.empty())
            return; // closed and drained
        dispatch(batch);
    }
}

void
Engine::dispatch(std::vector<Request> &batch)
{
    const int n = int(batch.size());
    const std::uint64_t seq = ++batchSeq; // batcher thread only
    const bool tracing = trace::enabled();
    const std::string seqStr = tracing ? std::to_string(seq) : "";
    const double tBatch0 = tracing ? trace::nowUs() : 0.0;

    const Tensor &head = batch[0].x;
    const std::size_t img = std::size_t(head.c()) * head.h() * head.w();
    batchX.reshape(n, head.c(), head.h(), head.w());
    for (int i = 0; i < n; ++i)
        std::copy(batch[std::size_t(i)].x.data(),
                  batch[std::size_t(i)].x.data() + img,
                  batchX.data() + std::size_t(i) * img);
    const double tAssembled = tracing ? trace::nowUs() : 0.0;

    Tensor y = model.forward(batchX, false);
    const double tForward = tracing ? trace::nowUs() : 0.0;

    const std::size_t out = std::size_t(y.c()) * y.h() * y.w();
    const auto now = std::chrono::steady_clock::now();
    const double nowUs = tracing ? trace::nowUs() : 0.0;
    for (int i = 0; i < n; ++i) {
        Request &r = batch[std::size_t(i)];
        Tensor yi(1, y.c(), y.h(), y.w());
        std::copy(y.data() + std::size_t(i) * out,
                  y.data() + std::size_t(i + 1) * out, yi.data());
        const double us = std::chrono::duration<double, std::micro>(
                              now - r.enqueued)
                              .count();
        if (metrics::enabled())
            metrics::histogramAddExemplar("serve.latency_us", us,
                                          kLatencyLoUs, kLatencyHiUs,
                                          kLatencyBuckets, r.id);
        slo.observe(us);
        if (tracing)
            // Queue-to-demux span of this request, linked to the
            // batch it rode in (and to scrape exemplars) by trace id.
            trace::emitCompleteArgs(
                "serve.request", "serve", nowUs - us, us,
                {{"trace_id", std::to_string(r.id)},
                 {"batch", seqStr}});
        r.done.set_value(std::move(yi));
    }
    if (tracing) {
        const double tDemuxed = trace::nowUs();
        trace::emitCompleteArgs("serve.batch.assemble", "serve",
                                tBatch0, tAssembled - tBatch0,
                                {{"batch", seqStr}});
        trace::emitCompleteArgs("serve.batch.forward", "serve",
                                tAssembled, tForward - tAssembled,
                                {{"batch", seqStr}});
        trace::emitCompleteArgs("serve.batch.demux", "serve", tForward,
                                tDemuxed - tForward,
                                {{"batch", seqStr}});
        std::string ids;
        for (int i = 0; i < n; ++i) {
            if (i)
                ids += ",";
            ids += std::to_string(batch[std::size_t(i)].id);
        }
        trace::emitCompleteArgs("serve.batch", "serve", tBatch0,
                                tDemuxed - tBatch0,
                                {{"batch", seqStr},
                                 {"n", std::to_string(n)},
                                 {"trace_ids", ids}});
    }
    slo.evaluate();
    nServed.fetch_add(std::uint64_t(n), std::memory_order_relaxed);
    metrics::counterAdd("serve.batches");
    metrics::histogramAdd("serve.batch_size", double(n), 0.0,
                          double(maxB) + 1.0, std::min(maxB + 1, 128));
    metrics::gaugeSet("serve.queue_depth", double(queue.depth()));
}

} // namespace winomc::serve
