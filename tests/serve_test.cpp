/**
 * @file
 * Serving-engine correctness suite: batch demux bitwise-equality
 * against unbatched forwards (staged and fused, 1 vs 8 threads),
 * deadline-driven partial batches, queue-full backpressure without
 * drops, clean shutdown with in-flight requests, PlanCache lease /
 * eviction / shared-transformed-weight semantics (including under
 * concurrency — run these under TSan via ctest -L serve), rejected
 * requests (a bad batch, a submit after stop) that fail only their own
 * future, serving knob parsing, and the zero-allocation steady-state
 * guarantee.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "nn/conv_layer.hh"
#include "serve/engine.hh"
#include "serve/plan_cache.hh"
#include "serve/slo.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"

#include "exec_scope.hh"

namespace winomc {
namespace {

using serve::Engine;
using serve::EngineConfig;
using serve::PlanCache;

/** Two-layer Winograd-layer CNN (3 -> 4 -> 2 channels, F(2x2,3x3)). */
nn::Sequential
makeModel(unsigned seed)
{
    Rng rng(seed);
    nn::Sequential model;
    model.add(std::make_unique<nn::ConvLayer>(
        3, 4, 3, nn::ConvMode::WinogradLayer, algoF2x2_3x3(), rng));
    model.add(std::make_unique<nn::ConvLayer>(
        4, 2, 3, nn::ConvMode::WinogradLayer, algoF2x2_3x3(), rng));
    return model;
}

std::vector<Tensor>
makeImages(int count, int c, int h, int w, unsigned seed)
{
    Rng rng(seed);
    std::vector<Tensor> xs;
    for (int i = 0; i < count; ++i) {
        xs.emplace_back(1, c, h, w);
        xs.back().fillUniform(rng);
    }
    return xs;
}

// ------------------------------------------------- Batch demux parity

TEST(ServeEngine, BatchDemuxBitwiseMatchesUnbatchedForward)
{
    for (auto fused : {FusedMode::Off, FusedMode::On}) {
        // The batcher thread reads the config this scope sets.
        test::ExecScope scope(test::withFused(fused));
        for (int threads : {1, 8}) {
            ThreadPool::global().setThreadCount(threads);
            nn::Sequential model = makeModel(17);
            const auto xs = makeImages(6, 3, 10, 10, 99);

            std::vector<Tensor> refs;
            for (const auto &x : xs)
                refs.push_back(model.forward(x, false));

            EngineConfig cfg;
            cfg.maxBatch = 4;
            cfg.maxDelayUs = 50'000; // force coalescing
            Engine engine(model, cfg);
            std::vector<std::future<Tensor>> futs;
            for (const auto &x : xs)
                futs.push_back(engine.submit(x));
            for (std::size_t i = 0; i < futs.size(); ++i) {
                Tensor y = futs[i].get();
                EXPECT_EQ(y.maxAbsDiff(refs[i]), 0.0f)
                    << "request " << i << " (fused="
                    << fusedModeName(fused) << ", threads=" << threads
                    << ") diverged from its unbatched forward";
            }
            engine.stop();
        }
    }
}

// ------------------------------------------------ Rejected requests

/** Current value of a metrics counter (0 when absent). */
double
counterValue(const char *name)
{
    for (const auto &s : metrics::snapshot())
        if (s.name == name)
            return s.value;
    return 0.0;
}

TEST(ServeEngine, RejectedRequestsFailTheirFutureAndServingContinues)
{
    const bool wasMetrics = metrics::enabled();
    metrics::setEnabled(true);
    metrics::reset();
    nn::Sequential model = makeModel(23);
    const auto xs = makeImages(1, 3, 8, 8, 5);
    const Tensor ref = model.forward(xs[0], false);

    EngineConfig cfg;
    cfg.maxBatch = 2;
    cfg.maxDelayUs = 0;
    Engine engine(model, cfg);
    // A batch of two is client error: its future fails, nothing dies.
    Tensor pair(2, 3, 8, 8);
    std::future<Tensor> bad = engine.submit(pair);
    EXPECT_THROW(bad.get(), std::runtime_error);
    EXPECT_EQ(counterValue("serve.rejected"), 1.0);

    // The engine still serves a valid request, bitwise as before.
    Tensor y = engine.submit(xs[0]).get();
    EXPECT_EQ(y.maxAbsDiff(ref), 0.0f);

    // After stop() a submit is rejected the same way.
    engine.stop();
    EXPECT_EQ(engine.served(), 1u);
    EXPECT_THROW(engine.submit(xs[0]).get(), std::runtime_error);
    EXPECT_EQ(counterValue("serve.rejected"), 2.0);
    metrics::reset();
    metrics::setEnabled(wasMetrics);
}

// -------------------------------------------------- Deadline batching

TEST(ServeEngine, DeadlineEmitsPartialBatches)
{
    nn::Sequential model = makeModel(5);
    EngineConfig cfg;
    cfg.maxBatch = 64; // never fills from 3 requests
    cfg.maxDelayUs = 2'000;
    Engine engine(model, cfg);
    const auto xs = makeImages(3, 3, 8, 8, 7);
    std::vector<std::future<Tensor>> futs;
    for (const auto &x : xs)
        futs.push_back(engine.submit(x));
    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "partial batch never fired despite the deadline";
        Tensor y = f.get();
        EXPECT_EQ(y.c(), 2);
        EXPECT_EQ(y.h(), 8);
    }
    engine.stop();
    EXPECT_EQ(engine.served(), 3u);
}

// ----------------------------------------------------- Backpressure

TEST(ServeEngine, BackpressureBlocksWithoutDropping)
{
    nn::Sequential model = makeModel(11);
    const int kProducers = 4;
    const int kPerProducer = 10;
    const auto xs = makeImages(kProducers * kPerProducer, 3, 8, 8, 31);

    std::vector<Tensor> refs;
    for (const auto &x : xs)
        refs.push_back(model.forward(x, false));

    EngineConfig cfg;
    cfg.maxBatch = 2;
    cfg.maxDelayUs = 0;   // dispatch whatever already queued
    cfg.queueCapacity = 2; // producers must block on the full queue
    Engine engine(model, cfg);

    std::vector<std::thread> producers;
    std::atomic<int> mismatches{0};
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int idx = p * kPerProducer + i;
                Tensor y = engine.submit(xs[idx]).get();
                if (y.maxAbsDiff(refs[idx]) != 0.0f)
                    ++mismatches;
            }
        });
    }
    for (auto &t : producers)
        t.join();
    engine.stop();
    EXPECT_EQ(mismatches.load(), 0)
        << "some request got another request's answer";
    EXPECT_EQ(engine.served(), std::uint64_t(kProducers * kPerProducer));
}

// --------------------------------------------------- Clean shutdown

TEST(ServeEngine, StopDrainsInFlightRequests)
{
    nn::Sequential model = makeModel(13);
    EngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxDelayUs = 100'000; // without the drain, stop would strand these
    Engine engine(model, cfg);
    const auto xs = makeImages(10, 3, 8, 8, 3);
    std::vector<std::future<Tensor>> futs;
    for (const auto &x : xs)
        futs.push_back(engine.submit(x));
    engine.stop();
    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "stop() returned with an unserved in-flight request";
        Tensor y = f.get();
        EXPECT_EQ(y.c(), 2);
    }
    EXPECT_EQ(engine.served(), 10u);
}

TEST(ServeEngine, SubmitAfterStopFailsItsFuture)
{
    nn::Sequential model = makeModel(13);
    Engine engine(model);
    engine.stop();
    Tensor x(1, 3, 8, 8);
    std::future<Tensor> late = engine.submit(x);
    try {
        late.get();
        ADD_FAILURE() << "a submit after stop() must be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("after stop"),
                  std::string::npos);
    }
}

// ------------------------------------------------------- PlanCache

/** One staged forward on a leased plan: plans acquire their slabs on
 *  first use, so a plan's workspaceBytes() counts only after a run. */
void
runStagedForward(WinoPlan &plan, const WinogradAlgo &algo)
{
    Tensor x(plan.batch(), plan.inChannels(), plan.height(),
             plan.width());
    Tensor y(plan.batch(), plan.outChannels(), plan.height(),
             plan.width());
    plan.forwardInto(
        x, WinoWeights(algo.alpha, plan.outChannels(), plan.inChannels()),
        y);
}

TEST(ServePlanCache, LeaseParkLeaseReusesThePlan)
{
    PlanCache cache(std::size_t(64) << 20);
    const WinogradAlgo &algo = algoF2x2_3x3();
    auto plan = cache.acquirePlan(algo, 2, 3, 4, 8, 8);
    const WinoPlan *raw = plan.get();
    EXPECT_EQ(cache.misses(), 1u);
    cache.releasePlan(std::move(plan));
    EXPECT_EQ(cache.parkedPlans(), 1);
    auto again = cache.acquirePlan(algo, 2, 3, 4, 8, 8);
    EXPECT_EQ(again.get(), raw) << "matching lease rebuilt the plan";
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.parkedPlans(), 0);
}

TEST(ServePlanCache, EvictsLeastRecentlyUsedPastTheByteBudget)
{
    const WinogradAlgo &algo = algoF2x2_3x3();
    std::size_t oneBytes = 0;
    {
        WinoPlan probe(algo, 2, 3, 4, 8, 8);
        runStagedForward(probe, algo);
        oneBytes = probe.workspaceBytes();
    }
    // Room for two small plans, not three.
    PlanCache cache(2 * oneBytes + oneBytes / 2);
    auto a = cache.acquirePlan(algo, 2, 3, 4, 8, 8);
    auto b = cache.acquirePlan(algo, 4, 3, 4, 8, 8);  // ~2x oneBytes
    runStagedForward(*a, algo);
    runStagedForward(*b, algo);
    const WinoPlan *rawB = b.get();
    cache.releasePlan(std::move(a));
    cache.releasePlan(std::move(b)); // budget forces A (the LRU) out
    EXPECT_GE(cache.evictions(), 1u);
    EXPECT_LE(cache.parkedBytes(), cache.budgetBytes());
    auto b2 = cache.acquirePlan(algo, 4, 3, 4, 8, 8);
    EXPECT_EQ(b2.get(), rawB) << "the MRU plan should have survived";
    auto a2 = cache.acquirePlan(algo, 2, 3, 4, 8, 8);
    EXPECT_EQ(cache.misses(), 3u) << "the evicted plan must rebuild";
}

TEST(ServePlanCache, OversizedPlanIsNeverParked)
{
    const WinogradAlgo &algo = algoF2x2_3x3();
    PlanCache cache(1024); // smaller than any real plan
    auto p = cache.acquirePlan(algo, 2, 3, 4, 8, 8);
    runStagedForward(*p, algo);
    cache.releasePlan(std::move(p));
    EXPECT_EQ(cache.parkedPlans(), 0);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ServePlanCache, TransformedWeightsBuildOncePerTag)
{
    PlanCache cache(std::size_t(64) << 20);
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(21);
    Tensor w(4, 3, 3, 3);
    w.fillUniform(rng);
    auto first = cache.transformedWeights("model.conv1", w, algo);
    auto second = cache.transformedWeights("model.conv1", w, algo);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.weightBuilds(), 1u);
    const WinoWeights ref = transformWeights(w, algo);
    EXPECT_EQ(first->maxAbsDiff(ref), 0.0f);
}

TEST(ServePlanCache, ConcurrentLeasesAndWeightLookupsAreSafe)
{
    PlanCache cache(std::size_t(64) << 20);
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(33);
    Tensor w(4, 3, 3, 3);
    w.fillUniform(rng);
    const int kThreads = 8;
    const int kIters = 25;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                const int batch = (t + i) % 2 ? 2 : 4;
                auto plan = cache.acquirePlan(algo, batch, 3, 4, 8, 8);
                ASSERT_TRUE(plan->matches(algo, batch, 3, 4, 8, 8));
                cache.releasePlan(std::move(plan));
                auto shared =
                    cache.transformedWeights("m.conv", w, algo);
                ASSERT_NE(shared.get(), nullptr);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(cache.hits() + cache.misses(),
              std::uint64_t(kThreads * kIters));
    EXPECT_EQ(cache.weightBuilds(), 1u);
}

// -------------------------------------- Cross-replica weight sharing

TEST(ServeEngine, ReplicasSharingCacheAndWeightsServeIdentically)
{
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(41);
    nn::ConvLayer replicaA(3, 4, 3, nn::ConvMode::WinogradSpatial, algo,
                           rng);
    Rng rng2(41); // same seed: same spatial weights
    nn::ConvLayer replicaB(3, 4, 3, nn::ConvMode::WinogradSpatial, algo,
                           rng2);
    PlanCache cache(std::size_t(64) << 20);
    auto shared = cache.transformedWeights(
        "replica.conv", replicaA.spatialWeights(), algo);
    replicaA.shareWinoWeights(shared);
    replicaB.shareWinoWeights(shared);
    EXPECT_EQ(cache.weightBuilds(), 1u);
    EXPECT_EQ(&replicaA.winoWeights(), &replicaB.winoWeights());

    EngineConfig cfgA;
    cfgA.maxBatch = 2;
    cfgA.sharedCache = &cache;
    Engine engineA(replicaA, cfgA);
    EngineConfig cfgB;
    cfgB.maxBatch = 2;
    cfgB.sharedCache = &cache;
    Engine engineB(replicaB, cfgB);

    const auto xs = makeImages(4, 3, 8, 8, 51);
    for (const auto &x : xs) {
        Tensor ya = engineA.submit(x).get();
        Tensor yb = engineB.submit(x).get();
        EXPECT_EQ(ya.maxAbsDiff(yb), 0.0f);
    }
    engineA.stop();
    engineB.stop();
}

// ------------------------------------------------------ Serve knobs

TEST(ServeKnobs, EnvironmentKnobsParseWithSharedDiscipline)
{
    setenv("WINOMC_SERVE_MAX_BATCH", "3", 1);
    setenv("WINOMC_SERVE_MAX_DELAY_US", "250", 1);
    {
        nn::Sequential model = makeModel(1);
        Engine engine(model);
        EXPECT_EQ(engine.maxBatch(), 3);
        EXPECT_EQ(engine.maxDelayUs(), 250);
    }
    // Garbage warns and falls back to the defaults (same contract as
    // WINOMC_THREADS / WINOMC_WORKSPACE_LIMIT_MB).
    setenv("WINOMC_SERVE_MAX_BATCH", "7seven", 1);
    setenv("WINOMC_SERVE_MAX_DELAY_US", "-4", 1);
    {
        nn::Sequential model = makeModel(1);
        Engine engine(model);
        EXPECT_EQ(engine.maxBatch(), 8);
        EXPECT_EQ(engine.maxDelayUs(), 1000);
    }
    // Explicit config wins over the environment.
    {
        nn::Sequential model = makeModel(1);
        EngineConfig cfg;
        cfg.maxBatch = 2;
        cfg.maxDelayUs = 0;
        Engine engine(model, cfg);
        EXPECT_EQ(engine.maxBatch(), 2);
        EXPECT_EQ(engine.maxDelayUs(), 0);
    }
    unsetenv("WINOMC_SERVE_MAX_BATCH");
    unsetenv("WINOMC_SERVE_MAX_DELAY_US");
}

// --------------------------------------- Zero-alloc serving steady state

TEST(ServeSteadyState, ServingAllocatesNothingAfterWarmup)
{
    nn::Sequential model = makeModel(23);
    EngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxDelayUs = 0;
    Engine engine(model, cfg);
    // Warm both traffic shapes at every batch size the batcher can
    // emit, plus one serving burst so the queue/demux transients pool.
    engine.warmup(3, 8, 8);
    engine.warmup(3, 12, 12);
    // A client keeps a bounded number of requests in flight and
    // consumes results as they stream back (letting every output
    // tensor pile up unconsumed would itself defeat slab reuse).
    const auto burst = [&](int count) {
        std::deque<std::future<Tensor>> futs;
        for (int i = 0; i < count; ++i) {
            Tensor x(1, 3, i % 2 ? 12 : 8, i % 2 ? 12 : 8);
            x.fill(float(i % 5) * 0.25f);
            futs.push_back(engine.submit(std::move(x)));
            while (futs.size() >= 8) {
                futs.front().get();
                futs.pop_front();
            }
        }
        while (!futs.empty()) {
            futs.front().get();
            futs.pop_front();
        }
    };
    burst(16);
    const auto s0 = ws::Workspace::global().stats();
    burst(120); // >= 100 requests, alternating shapes
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
        << "steady-state serving hit the heap";
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
    engine.stop();
    EXPECT_EQ(engine.served(), 136u);
}

// --------------------------------------------- Telemetry plane

TEST(ServeTelemetry, ChurnLoadExemplarResolvesToATraceSpan)
{
    const bool wasMetrics = metrics::enabled();
    const bool wasTrace = trace::enabled();
    metrics::setEnabled(true);
    trace::setEnabled(true);
    metrics::reset();
    trace::reset();

    nn::Sequential model = makeModel(7);
    EngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxDelayUs = 0;
    {
        Engine engine(model, cfg);
        // Shape churn: alternate image sizes so batches break on
        // shape boundaries like real mixed traffic.
        std::vector<std::future<Tensor>> futs;
        auto xs1 = makeImages(12, 3, 16, 16, 11);
        auto xs2 = makeImages(12, 3, 24, 24, 13);
        for (int i = 0; i < 12; ++i) {
            futs.push_back(engine.submit(std::move(xs1[size_t(i)])));
            futs.push_back(engine.submit(std::move(xs2[size_t(i)])));
        }
        for (auto &f : futs)
            f.get();
        engine.stop();
    }

    // The latency histogram must carry an exemplar, and that
    // exemplar's trace id must resolve to a serve.request span in the
    // trace buffer — the end-to-end correlation the telemetry plane
    // promises (scrape outlier -> span).
    std::uint64_t exemplarId = 0;
    for (const auto &s : metrics::snapshot())
        if (s.name == "serve.latency_us") {
            EXPECT_EQ(s.count, std::uint64_t(24));
            exemplarId = s.exemplarId;
        }
    ASSERT_NE(exemplarId, std::uint64_t(0));
    const std::string json = trace::toJson();
    EXPECT_NE(json.find("\"serve.request\""), std::string::npos);
    EXPECT_NE(json.find("\"trace_id\": \"" +
                        std::to_string(exemplarId) + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"serve.batch\""), std::string::npos);

    metrics::reset();
    trace::reset();
    metrics::setEnabled(wasMetrics);
    trace::setEnabled(wasTrace);
}

// --------------------------------------------- SLO monitoring

TEST(ServeSlo, BurnRateMatchesBudgetArithmetic)
{
    serve::SloConfig cfg;
    cfg.latencyObjectiveUs = 1000.0;
    cfg.targetFraction = 0.99; // 1% error budget
    cfg.shortWindowSec = 5;
    cfg.longWindowSec = 20;
    serve::SloMonitor m(cfg);
    // 99 good + 1 bad in one second: violation fraction 1% = exactly
    // the budget -> burn rate 1.0.
    for (int i = 0; i < 99; ++i)
        m.observeAt(500.0, 0.0);
    m.observeAt(5000.0, 0.0);
    EXPECT_NEAR(m.burnRate(5), 1.0, 1e-12);
    EXPECT_EQ(m.observed(), std::uint64_t(100));
    EXPECT_EQ(m.violations(), std::uint64_t(1));
    // Below threshold: no alert.
    EXPECT_FALSE(m.evaluateAt(0.0));
}

TEST(ServeSlo, MultiWindowAlertFiresOnSustainedBurnAndClears)
{
    serve::SloConfig cfg;
    cfg.latencyObjectiveUs = 1000.0;
    cfg.targetFraction = 0.9; // 10% budget
    cfg.shortWindowSec = 5;
    cfg.longWindowSec = 20;
    cfg.burnThreshold = 2.0;
    serve::SloMonitor m(cfg);

    // Healthy traffic: one fast request per second.
    for (int t = 0; t < 10; ++t)
        m.observeAt(100.0, double(t));
    EXPECT_FALSE(m.evaluateAt(9.0));

    // A single slow second spikes the SHORT window but the long
    // window stays quiet: no page on a transient.
    for (int i = 0; i < 2; ++i)
        m.observeAt(9999.0, 10.0);
    EXPECT_GE(m.burnRate(5), cfg.burnThreshold);
    EXPECT_FALSE(m.evaluateAt(10.0));
    EXPECT_FALSE(m.alerting());

    // Sustained violations: ten slow requests per second for ten
    // seconds drives BOTH windows over threshold -> fires.
    for (int t = 11; t <= 20; ++t)
        for (int i = 0; i < 10; ++i)
            m.observeAt(9999.0, double(t));
    EXPECT_TRUE(m.evaluateAt(20.0));
    EXPECT_TRUE(m.alerting());

    // Recovery: fast traffic ages the violations out of the short
    // window first -> the alert clears promptly.
    for (int t = 21; t <= 30; ++t)
        for (int i = 0; i < 10; ++i)
            m.observeAt(100.0, double(t));
    EXPECT_FALSE(m.evaluateAt(30.0));
    EXPECT_FALSE(m.alerting());
}

TEST(ServeSlo, ObjectiveKnobFollowsEnvDiscipline)
{
    setenv("WINOMC_SLO_LATENCY_US", "2500", 1);
    EXPECT_DOUBLE_EQ(serve::resolveSloConfig().latencyObjectiveUs,
                     2500.0);
    // Garbage warns and falls back to the 50 ms default.
    setenv("WINOMC_SLO_LATENCY_US", "fast", 1);
    EXPECT_DOUBLE_EQ(serve::resolveSloConfig().latencyObjectiveUs,
                     50000.0);
    unsetenv("WINOMC_SLO_LATENCY_US");
    EXPECT_DOUBLE_EQ(serve::resolveSloConfig().latencyObjectiveUs,
                     50000.0);
    // An explicit objective wins over the environment.
    serve::SloConfig cfg;
    cfg.latencyObjectiveUs = 123.0;
    EXPECT_DOUBLE_EQ(serve::resolveSloConfig(cfg).latencyObjectiveUs,
                     123.0);
}

TEST(ServeSlo, EngineFeedsEveryServedLatencyIntoTheMonitor)
{
    nn::Sequential model = makeModel(3);
    EngineConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxDelayUs = 0;
    Engine engine(model, cfg);
    std::vector<std::future<Tensor>> futs;
    auto xs = makeImages(10, 3, 16, 16, 5);
    for (auto &x : xs)
        futs.push_back(engine.submit(std::move(x)));
    for (auto &f : futs)
        f.get();
    engine.stop();
    EXPECT_EQ(engine.sloMonitor().observed(), std::uint64_t(10));
}

} // namespace
} // namespace winomc
