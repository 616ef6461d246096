/**
 * @file
 * serve_auto: single-image requests into serve::Engine over a model of
 * Auto-mode convolutions (the tuner picks fused, decomposed or direct
 * per shape), forward only.
 *
 * An open-loop phase sends requests on a clock schedule at a fixed
 * rate and times each from when it was due, so a generator or server
 * stall shows up in every request it delays. Every 4th open-loop
 * request is a 3/4-size image, so shape-pure batching breaks batches
 * and the plan cache hands out both shapes' plans. A closed-loop phase
 * then has one caller send full-size requests back to back.
 */

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "nn/basic_layers.hh"
#include "serve/engine.hh"
#include "tensor/workspace.hh"
#include "winograd/tuner.hh"

namespace perfbench {

using namespace winomc;

namespace {

constexpr int kChannels = 3;
constexpr int kImage = 32;
constexpr int kAltImage = 24;    ///< every kChurn-th request
constexpr int kChurn = 4;
constexpr int kPool = 64;        ///< distinct request images
constexpr int kMaxBatch = 8;
constexpr long long kMaxDelayUs = 1000;
/** Open-loop arrival rate: about a fifth of the one-caller request
 *  rate on the reference host, so the open loop still keeps up when
 *  other tenants slow that host down 3x (see README.md). */
constexpr double kOpenLoopRps = 20.0;
/** Share of an end-to-end run spent in the open loop; the rest runs
 *  the one-caller closed loop. */
constexpr double kOpenShare = 0.5;
constexpr int kSetups = 5;

/**
 * Stem 7x7-s2, two 3x3-s1, 3x3-s2, 3x3-s1 (ReLU after each), GAP and
 * a Dense classifier; every conv is tuner-selected (ConvMode::Auto).
 *
 * Widths stay at 32 because the tuner's pick must not depend on the
 * batch size for a served row to equal its solo forward: a 64-wide
 * last conv gets F(2,3) at batch 1 but F(4,3) at batch 2+ on 8x8
 * maps (F(2,3)/F(6,3) on 6x6), so its results depend on batching.
 */
std::unique_ptr<nn::Sequential>
buildServeNet(std::uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    auto conv = [&](int in, int out, int k, int stride) {
        net->add(std::make_unique<nn::ConvLayer>(in, out, k, k, stride,
                                                 stride, rng));
        net->add(std::make_unique<nn::ReLU>());
    };
    conv(kChannels, 32, 7, 2);
    conv(32, 32, 3, 1);
    conv(32, 32, 3, 1);
    conv(32, 32, 3, 2);
    conv(32, 32, 3, 1);
    net->add(std::make_unique<nn::GlobalAvgPool>());
    net->add(std::make_unique<nn::Dense>(32, 10, rng));
    return net;
}

std::vector<Tensor>
makePool(std::uint64_t seed)
{
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<Tensor> pool;
    for (int i = 0; i < kPool; ++i) {
        const int s = i % kChurn == kChurn - 1 ? kAltImage : kImage;
        pool.emplace_back(1, kChannels, s, s);
        pool.back().fillUniform(rng);
    }
    return pool;
}

/**
 * A model behind an engine. Traced servers hand the engine a TracedNet,
 * which hides the Sequential from the engine's plan-source wiring, so
 * its convs are attached to the engine's plan cache here — otherwise
 * the traced run would serve from per-layer pools, another program.
 */
class Server
{
  public:
    Server(std::uint64_t seed, Spans *spans) : net(buildServeNet(seed))
    {
        if (spans)
            traced = std::make_unique<TracedNet>(*net, *spans);
        serve::EngineConfig cfg;
        cfg.maxBatch = kMaxBatch;
        cfg.maxDelayUs = kMaxDelayUs;
        nn::Module &served = traced ? static_cast<nn::Module &>(*traced)
                                    : static_cast<nn::Module &>(*net);
        engine = std::make_unique<serve::Engine>(served, cfg);
        if (traced)
            for (nn::ConvLayer *c : traced->autoConvs())
                c->setPlanSource(&engine->planCache());
        engine->warmup(kChannels, kImage, kImage);
        engine->warmup(kChannels, kAltImage, kAltImage);
    }
    ~Server() { stop(); }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Drain and join the engine, then hand the traced convs' plans
     *  back while the engine's cache still exists. Idempotent. */
    void
    stop()
    {
        engine->stop();
        if (traced)
            for (nn::ConvLayer *c : traced->autoConvs())
                c->setPlanSource(nullptr);
    }

    serve::Engine &eng() { return *engine; }
    nn::Sequential &model() { return *net; }
    const TracedNet *tracedNet() const { return traced.get(); }

  private:
    std::unique_ptr<nn::Sequential> net;
    std::unique_ptr<TracedNet> traced;
    std::unique_ptr<serve::Engine> engine;
};

struct Response
{
    int image;
    std::vector<float> y;
};

struct Load
{
    std::vector<double> latencyMs; ///< completion - due time
    std::vector<double> lateMs;    ///< submission - due time (open loop)
    std::vector<Response> responses;
    std::int64_t broken = 0;       ///< futures that carried an exception
    double seconds = 0.0;
};

struct Pending
{
    Clock::time_point due;
    int image;
    std::future<Tensor> fut;
};

void
collect(Load &load, Pending &p)
{
    try {
        const Tensor y = p.fut.get();
        load.latencyMs.push_back(msBetween(p.due, Clock::now()));
        load.responses.push_back(
            {p.image, std::vector<float>(y.data(), y.data() + y.size())});
    } catch (const std::exception &e) {
        std::fprintf(stderr, "request failed: %s\n", e.what());
        ++load.broken;
    }
}

/** Requests due every 1/rps seconds for `seconds`; a consumer thread
 *  waits on the futures in arrival order. */
Load
openLoop(serve::Engine &engine, const std::vector<Tensor> &pool,
         double rps, double seconds)
{
    Load load;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> inflight; // guarded by mu
    bool done = false;            // guarded by mu
    std::thread consumer([&] {
        std::unique_lock<std::mutex> lock(mu);
        while (true) {
            cv.wait(lock, [&] { return !inflight.empty() || done; });
            if (inflight.empty())
                return;
            Pending p = std::move(inflight.front());
            inflight.pop_front();
            lock.unlock();
            collect(load, p);
            lock.lock();
        }
    });
    {
        // Joins the consumer on every path out of the generator loop.
        struct Finish
        {
            std::mutex &mu;
            std::condition_variable &cv;
            bool &done;
            std::thread &t;
            ~Finish()
            {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    done = true;
                }
                cv.notify_all();
                t.join();
            }
        } finish{mu, cv, done, consumer};

        const auto start = Clock::now();
        const auto interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rps));
        const auto end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        for (std::int64_t k = 0;; ++k) {
            const auto due = start + interval * k;
            if (due >= end)
                break;
            std::this_thread::sleep_until(due);
            load.lateMs.push_back(msBetween(due, Clock::now()));
            const int image = int(k % std::int64_t(pool.size()));
            Pending p{due, image, engine.submit(pool[std::size_t(image)])};
            {
                std::lock_guard<std::mutex> lock(mu);
                inflight.push_back(std::move(p));
            }
            cv.notify_one();
        }
        load.seconds = secondsSince(start);
    }
    return load;
}

/** Closed loop with one caller: submits a full-size request, waits
 *  for it, and repeats for `seconds`. */
Load
serialLoop(serve::Engine &engine, const std::vector<Tensor> &pool,
           double seconds)
{
    std::vector<int> full;
    for (std::size_t i = 0; i < pool.size(); ++i)
        if (pool[i].h() == kImage)
            full.push_back(int(i));
    Load load;
    std::size_t k = 0;
    const auto start = Clock::now();
    while (secondsSince(start) < seconds || load.latencyMs.empty()) {
        const int image = full[k++ % full.size()];
        Pending p{Clock::now(), image,
                  engine.submit(pool[std::size_t(image)])};
        collect(load, p);
    }
    load.seconds = secondsSince(start);
    return load;
}

/** Every response must be bitwise identical to its image run alone
 *  through the model (after the engine stopped). */
void
checkResponses(Outcome &out, nn::Sequential &net,
               const std::vector<Tensor> &pool, const Load &load,
               bool fault)
{
    std::vector<std::vector<float>> ref;
    for (const Tensor &x : pool) {
        const Tensor y = net.forward(x, false);
        ref.emplace_back(y.data(), y.data() + y.size());
    }
    bool perturb = fault;
    for (const Response &r : load.responses) {
        std::vector<float> y = r.y;
        if (perturb && !y.empty()) {
            y[0] += 1.0f;
            perturb = false;
        }
        const std::vector<float> &want = ref[std::size_t(r.image)];
        out.check(y.size() == want.size() &&
                      std::memcmp(y.data(), want.data(),
                                  y.size() * sizeof(float)) == 0,
                  "response for image " + std::to_string(r.image) +
                      " is bitwise identical to its solo forward");
    }
    for (std::int64_t i = 0; i < load.broken; ++i)
        out.check(false, "every future resolves with a value");
}

double
tunerError(const TracedNet &traced)
{
    std::vector<double> perConv;
    for (const std::vector<double> &errs : traced.tunerErrors())
        if (!errs.empty())
            perConv.push_back(median(errs));
    return median(perConv);
}

Tensor
fullSizeBatch(const std::vector<Tensor> &pool)
{
    Tensor x(kMaxBatch, kChannels, kImage, kImage);
    const std::size_t img = std::size_t(kChannels) * kImage * kImage;
    std::size_t n = 0;
    for (const Tensor &p : pool) {
        if (p.h() != kImage || n == std::size_t(kMaxBatch))
            continue;
        std::copy(p.data(), p.data() + img, x.data() + n * img);
        ++n;
    }
    return x;
}

} // namespace

Outcome
runServe(const Options &opt)
{
    Outcome out(opt.trace);
    const std::vector<Tensor> pool = makePool(opt.seed);

    if (!opt.trace) {
        // Set-up: model, engine, tuner decisions and plan warm-up for
        // both shapes, from an empty workspace pool and tuner memo.
        std::unique_ptr<Server> server;
        std::vector<double> setupS;
        for (int k = 0; k < kSetups; ++k) {
            server.reset();
            ws::Workspace::global().trim();
            tune::resetTunerForTest();
            const auto t0 = Clock::now();
            server = std::make_unique<Server>(opt.seed, nullptr);
            setupS.push_back(secondsSince(t0));
        }
        const Load open = openLoop(server->eng(), pool, kOpenLoopRps,
                                   opt.seconds * kOpenShare);
        const double closedS = opt.seconds * (1.0 - kOpenShare);
        const Load closed = serialLoop(server->eng(), pool, closedS);
        server->stop();
        checkResponses(out, server->model(), pool, open, opt.fault);
        checkResponses(out, server->model(), pool, closed, false);
        std::printf("# serve: open loop %zu requests at %.0f/s (generator "
                    "late p99 %.3f ms, latency p99 %.3f ms), closed loop "
                    "%zu requests, set-up median %.3f s\n",
                    open.responses.size(), kOpenLoopRps,
                    percentile(open.lateMs, 0.99),
                    percentile(open.latencyMs, 0.99), closed.responses.size(),
                    median(setupS));
        // Fast ends of the run (see README.md): one caller's request
        // rate at its fastest request, and the fastest open-loop latency.
        out.set("work_per_s", 1e3 / fastest(closed.latencyMs));
        out.set("op_ms", fastest(open.latencyMs));
        out.set("setup_s", median(setupS));
        out.set("peak_rss_mb", peakRssMb());
        return out;
    }

    // Traced run: an untraced open-loop half, then a traced half on a
    // server whose model is wrapped in a TracedNet.
    Load plain;
    {
        Server server(opt.seed, nullptr);
        plain = openLoop(server.eng(), pool, kOpenLoopRps, opt.seconds / 2);
        server.stop();
        checkResponses(out, server.model(), pool, plain, opt.fault);
    }

    Spans spans;
    Server server(opt.seed, &spans);
    spans.clear(); // drop the warm-up forwards
    serve::PlanCache &cache = server.eng().planCache();
    const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    LayerProbe probe;
    metrics::setEnabled(true);
    probe.start();
    const Load traced =
        openLoop(server.eng(), pool, kOpenLoopRps, opt.seconds / 2);
    const double hits = double(cache.hits() - hits0);
    const double misses = double(cache.misses() - misses0);
    server.stop();
    const double batches = double(spans.count("nn.forward"));
    probe.report(out, batches, batches, opt.threads);
    metrics::setEnabled(false);
    checkResponses(out, server.model(), pool, traced, false);

    reportNnLayers(out, spans, "nn.forward", batches);
    out.set("tuner.pred_error_log2", tunerError(*server.tracedNet()));
    out.set("serve.batch_size_mean",
            batches > 0 ? double(traced.responses.size()) / batches : 0.0);
    out.set("serve.plan_cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0);
    out.set("serve.forward_ms_per_batch",
            batches > 0 ? spans.totalMs("nn.forward") / batches : 0.0);
    out.set("loadgen.late_ms_p99", percentile(plain.lateMs, 0.99));
    out.set("op_ms_p50", median(plain.latencyMs));
    out.set("op_ms_p90", percentile(plain.latencyMs, 0.90));
    out.set("winograd.traffic_pred_ratio",
            trafficPredRatio(server.model(), fullSizeBatch(pool), false));
    out.set("trace_overhead_pct", overheadPct(median(traced.latencyMs),
                                              median(plain.latencyMs)));
    if (!opt.traceOut.empty())
        spans.writeChromeTrace(opt.traceOut);
    return out;
}

} // namespace perfbench
