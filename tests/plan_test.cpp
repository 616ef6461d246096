/**
 * @file
 * Workspace allocator + execution plan tests: size-class slab reuse,
 * WINOMC_WORKSPACE_LIMIT_MB parsing and budget enforcement, plan-vs-
 * stage-pipeline bitwise parity (odd shapes, 1-vs-8 threads), zero
 * steady-state allocation across training steps for every ConvMode and
 * the MPT layer, and the backward-after-eval-forward stale-cache
 * regression.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/conv_layer.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"
#include "winograd/plan.hh"

#include "exec_scope.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
const test::Fp32Pin fp32Pin;

namespace {

// --------------------------------------------------------------- Workspace

TEST(Workspace, AcquireIsZeroFilledAndClassSized)
{
    ws::Workspace w;
    auto a = w.acquire(300);
    ASSERT_EQ(a.size(), 300u);
    EXPECT_GE(a.capacity(), 512u); // next power-of-two class above 300
    EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                            [](float v) { return v == 0.0f; }));
    EXPECT_EQ(w.stats().freshAllocs, 1u);
    w.release(std::move(a));
}

TEST(Workspace, ReleasedSlabIsReusedAndRezeroed)
{
    ws::Workspace w;
    auto a = w.acquire(1000);
    std::fill(a.begin(), a.end(), 7.0f);
    w.release(std::move(a));
    auto b = w.acquire(600); // same 1024-float class: must reuse
    EXPECT_EQ(w.stats().freshAllocs, 1u);
    EXPECT_EQ(w.stats().reuses, 1u);
    EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                            [](float v) { return v == 0.0f; }));
    w.release(std::move(b));
    const auto st = w.stats();
    EXPECT_EQ(st.bytesInUse, 0u);
    EXPECT_GT(st.pooledBytes, 0u);
    EXPECT_EQ(st.releases, 2u);
}

TEST(Workspace, HighWaterTracksPeakNotCurrent)
{
    ws::Workspace w;
    auto a = w.acquire(1024);
    auto b = w.acquire(1024);
    const auto peak = w.stats().bytesInUse;
    w.release(std::move(a));
    w.release(std::move(b));
    EXPECT_EQ(w.stats().bytesInUse, 0u);
    EXPECT_EQ(w.stats().highWater, peak);
}

TEST(Workspace, RetentionLimitDropsExcessSlabs)
{
    ws::Workspace w;
    w.setLimitBytes(4096); // exactly one 1024-float slab
    auto a = w.acquire(1024);
    auto b = w.acquire(1024);
    w.release(std::move(a));
    w.release(std::move(b)); // pool already at the limit: freed
    const auto st = w.stats();
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_LE(st.pooledBytes, 4096u);
    w.trim();
    EXPECT_EQ(w.stats().pooledBytes, 0u);
}

TEST(Workspace, ParseLimitKnobHandlesGarbage)
{
    EXPECT_EQ(ws::parseWorkspaceLimitMb(nullptr), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb(""), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("banana"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("12banana"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("-3"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("0"), 0u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("256"), 256u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("256 "), 256u);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("99999999999999999999"),
              ws::kMaxLimitMb);
    EXPECT_EQ(ws::parseWorkspaceLimitMb("2097153"), ws::kMaxLimitMb);
}

TEST(Workspace, TilesReshapeReusesSlabAndZeroesOnShapeChange)
{
    WinoTiles t(4, 2, 2, 4);
    t.at(0, 0, 0, 0) = 5.0f;
    t.reshape(4, 2, 2, 3); // shape change within capacity: zeroed
    EXPECT_EQ(t.at(0, 0, 0, 0), 0.0f);
    t.at(0, 0, 0, 0) = 2.0f;
    t.reshape(4, 2, 2, 3); // same shape: contents preserved
    EXPECT_EQ(t.at(0, 0, 0, 0), 2.0f);
}

TEST(WorkspaceDeath, OverBudgetPlanFailsLoudly)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ws::Workspace::global().setLimitBytes(std::size_t(1) << 20);
            WinogradAlgo algo = makeWinograd(4, 3);
            WinoPlan plan(algo, 64, 64, 64, 64, 64);
            // Slabs are acquired, and budget-checked, on first use.
            Tensor x(64, 64, 64, 64);
            Tensor y(64, 64, 64, 64);
            plan.forwardInto(x, WinoWeights(algo.alpha, 64, 64), y);
        },
        "WINOMC_WORKSPACE_LIMIT_MB");
}

// ----------------------------------------------------- Plan bitwise parity

struct PlanCase
{
    int batch, in_ch, out_ch, h, w, m, r;
};

class PlanParityP : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanParityP, BitwiseMatchesStagePipelineForAnyThreadCount)
{
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(123);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.r, p.r);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);

    Tensor y1, dx1; // thread-count invariance probes
    for (int threads : {1, 8}) {
        ThreadPool::global().setThreadCount(threads);
        // Reference: the raw stage composition the wrappers used to be.
        WinoTiles Xr = transformInput(x, algo);
        WinoTiles Yr = elementwiseForward(Xr, W);
        Tensor y_ref = inverseTransform(Yr, algo, p.h, p.w);
        WinoTiles dYr = inverseTransformAdjoint(dy, algo);
        WinoTiles dXr = elementwiseBackwardData(dYr, W);
        Tensor dx_ref = transformInputAdjoint(dXr, algo, p.h, p.w);
        WinoWeights dW_ref = elementwiseGradWeights(dYr, Xr);

        WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
        Tensor y(p.batch, p.out_ch, p.h, p.w);
        Tensor dx(p.batch, p.in_ch, p.h, p.w);
        WinoWeights dW(algo.alpha, p.out_ch, p.in_ch);
        // Twice through the same plan: the second pass runs on dirty
        // slabs and must still be bitwise identical.
        for (int pass = 0; pass < 2; ++pass) {
            plan.forwardInto(x, W, y);
            plan.backwardDataInto(dy, W, dx);
            plan.gradWeightsInto(x, dy, dW);
            EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
            EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
            EXPECT_EQ(dW.maxAbsDiff(dW_ref), 0.0f);
        }

        // Free wrappers route through transient plans.
        EXPECT_EQ(winogradForward(x, W, algo).maxAbsDiff(y_ref), 0.0f);
        EXPECT_EQ(winogradBackwardData(dy, W, algo, p.h, p.w)
                      .maxAbsDiff(dx_ref),
                  0.0f);
        EXPECT_EQ(winogradGradWeights(x, dy, algo).maxAbsDiff(dW_ref),
                  0.0f);

        if (threads == 1) {
            y1 = y;
            dx1 = dx;
        } else {
            EXPECT_EQ(y.maxAbsDiff(y1), 0.0f);
            EXPECT_EQ(dx.maxAbsDiff(dx1), 0.0f);
        }
    }
    ThreadPool::global().setThreadCount(0); // restore default
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlanParityP,
    ::testing::Values(
        PlanCase{1, 1, 1, 3, 3, 2, 3},  // N=1, single ragged tile
        PlanCase{1, 2, 5, 5, 7, 2, 3},  // C < K, ragged grid
        PlanCase{3, 5, 2, 9, 6, 4, 3},  // C > K, F(4,3)
        PlanCase{2, 3, 4, 8, 8, 4, 3}), // even grid, F(4,3)
    [](const ::testing::TestParamInfo<PlanCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "c" +
               std::to_string(p.in_ch) + "k" + std::to_string(p.out_ch) +
               "h" + std::to_string(p.h) + "w" + std::to_string(p.w) +
               "F" + std::to_string(p.m) + "r" + std::to_string(p.r);
    });

TEST(ConvLayerPlan, AllModesBitwiseMatchReferenceAcrossSteps)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    for (auto mode : {nn::ConvMode::Direct, nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(42);
        nn::ConvLayer layer(3, 4, 3, mode, algo, rng);
        Rng data_rng(7);
        // Two iterations: the second runs on reused plan slabs.
        for (int iter = 0; iter < 2; ++iter) {
            Tensor x(2, 3, 6, 6);
            Tensor dy(2, 4, 6, 6);
            x.fillUniform(data_rng);
            dy.fillUniform(data_rng);
            Tensor y = layer.forward(x, true);
            Tensor dx = layer.backward(dy);
            if (mode == nn::ConvMode::Direct) {
                Tensor y_ref =
                    directConvForward(x, layer.spatialWeights());
                Tensor dx_ref =
                    directConvBackwardData(dy, layer.spatialWeights());
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
                EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
            } else {
                const WinoWeights &W = layer.winoWeights();
                WinoTiles X = transformInput(x, algo);
                Tensor y_ref = inverseTransform(
                    elementwiseForward(X, W), algo, 6, 6);
                WinoTiles dYt = inverseTransformAdjoint(dy, algo);
                Tensor dx_ref = transformInputAdjoint(
                    elementwiseBackwardData(dYt, W), algo, 6, 6);
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
                EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
            }
        }
    }
}

// ------------------------------------------------ Zero steady-state alloc

TEST(WorkspaceSteadyState, ConvLayerStepAllocatesNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    for (auto mode : {nn::ConvMode::Direct, nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(11);
        nn::ConvLayer layer(3, 4, 3, mode, algo, rng);
        Tensor x(2, 3, 8, 8);
        Tensor dy(2, 4, 8, 8);
        x.fillUniform(rng);
        dy.fillUniform(rng);
        auto trainStep = [&] {
            Tensor y = layer.forward(x, true);
            Tensor dx = layer.backward(dy);
            layer.step(0.01f);
        };
        trainStep(); // warm-up builds the plan and primes the pool
        const auto s0 = ws::Workspace::global().stats();
        for (int i = 0; i < 10; ++i)
            trainStep();
        const auto s1 = ws::Workspace::global().stats();
        EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
            << "mode " << int(mode) << " hit the heap in steady state";
        EXPECT_EQ(s1.freshBytes, s0.freshBytes);
        EXPECT_EQ(s1.highWater, s0.highWater)
            << "mode " << int(mode) << " high water drifted";
        EXPECT_GT(s1.reuses, s0.reuses);
    }
}

TEST(WorkspaceSteadyState, MptConvLayerStepAllocatesNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3); // alpha^2 = 16
    Rng rng(19);
    mpt::MptConvLayer layer(3, 4, 3, 2, 2, algo, rng);
    Tensor x(4, 3, 8, 8);
    Tensor dy(4, 4, 8, 8);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    auto trainStep = [&] {
        Tensor y = layer.forward(x, true);
        Tensor dx = layer.backward(dy);
        layer.step(0.01f);
    };
    trainStep();
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 10; ++i)
        trainStep();
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs);
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
    EXPECT_EQ(s1.highWater, s0.highWater);
    EXPECT_GT(s1.reuses, s0.reuses);
}

// ------------------------------- Shape-churn plan-rebuild regression
//
// Serving traffic alternates between a handful of batch shapes (the
// batcher emits whatever coalesced by the deadline). A layer that
// rebuilds its plan whenever the incoming shape stops matching throws
// the previous plan's slabs back at the workspace pool on every flip;
// under a pinned retention limit the pool cannot hold both shapes'
// slabs, so every flip drops and re-allocates — heap traffic on every
// request, forever. The fix parks displaced plans in a small per-layer
// LRU instead of destroying them, so A/B/A/B settles to zero fresh
// allocations after one warm-up of each shape.
//
// The tight limit is what makes this test bite: with the default 1 GB
// retention the pool absorbs the rebuild churn and freshAllocs goes
// flat even on the broken code. The limit is sized to the larger
// plan's working set, so transient activations still pool while a
// whole displaced plan does not.

/** Pin the global workspace retention limit; restore on scope exit. */
class ScopedWorkspaceLimit
{
  public:
    explicit ScopedWorkspaceLimit(std::size_t bytes)
        : prev(ws::Workspace::global().limitBytes())
    {
        ws::Workspace::global().setLimitBytes(bytes);
    }
    ~ScopedWorkspaceLimit()
    {
        ws::Workspace::global().setLimitBytes(prev);
    }

  private:
    std::size_t prev;
};

TEST(ConvLayerPlan, AlternatingShapesAllocateNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(23);
    nn::ConvLayer layer(3, 4, 3, nn::ConvMode::WinogradLayer, algo, rng);
    Tensor xa(2, 3, 12, 12);
    Tensor xb(4, 3, 12, 12);
    Rng data(5);
    xa.fillUniform(data);
    xb.fillUniform(data);

    // Budget one plan of the larger shape, measured after the same
    // eval forward the layer runs (slabs are acquired on first use).
    std::size_t planBytes = 0;
    {
        WinoPlan probe(algo, 4, 3, 4, 12, 12);
        Tensor y(4, 4, 12, 12);
        const WinoWeights W(algo.alpha, 4, 3);
        if (probe.shouldFuse(false))
            probe.forwardFusedInto(xb, W, y);
        else
            probe.forwardInto(xb, W, y);
        planBytes = probe.workspaceBytes();
    }
    ScopedWorkspaceLimit limit(planBytes);
    ws::Workspace::global().trim();

    // Warm both shapes (plan build + one full flip cycle so the pool's
    // transient-slab population settles), then alternate.
    for (int i = 0; i < 4; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 8; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
        << "alternating batch shapes hit the heap in steady state";
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
}

TEST(MptConvLayerPlan, AlternatingShapesAllocateNothingAfterWarmup)
{
    WinogradAlgo algo = makeWinograd(2, 3); // alpha^2 = 16
    Rng rng(29);
    mpt::MptConvLayer layer(3, 4, 3, 2, 2, algo, rng);
    Tensor xa(4, 3, 12, 12); // shard batch 2
    Tensor xb(8, 3, 12, 12); // shard batch 4
    Rng data(5);
    xa.fillUniform(data);
    xb.fillUniform(data);

    // One shard plan of the larger shape after the grouped forward's
    // slab use (input tiles scattered, output tiles written).
    std::size_t planBytes = 0;
    {
        WinoPlan probe(algo, 4, 3, 4, 12, 12);
        probe.scatterInput(xa);
        probe.outputTilesMutable();
        planBytes = probe.workspaceBytes();
    }
    // Both clusters flip together: budget both shard plans of the
    // larger shape.
    ScopedWorkspaceLimit limit(2 * planBytes);
    ws::Workspace::global().trim();

    // Warm both shapes (plan build + one full flip cycle so the pool's
    // transient-slab population settles), then alternate.
    for (int i = 0; i < 4; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s0 = ws::Workspace::global().stats();
    for (int i = 0; i < 8; ++i)
        layer.forward(i % 2 ? xb : xa, false);
    const auto s1 = ws::Workspace::global().stats();
    EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
        << "alternating shard shapes hit the heap in steady state";
    EXPECT_EQ(s1.freshBytes, s0.freshBytes);
}

// ------------------------------------------- Slabs acquired on first use

/** ExecScope edit: the given precision and sparsity. */
auto
precSparse(Prec prec, bool sparse)
{
    return [=](ExecConfig &c) {
        c.prec = prec;
        c.sparse = sparse;
    };
}

/** Bytes of one [a²][ch][B][T] fp32 slab of `plan`. */
std::size_t
slabBytes(const WinoPlan &plan, int ch)
{
    const std::size_t a = std::size_t(plan.tileGrid().alpha);
    return a * a * ch * plan.batch() * plan.tileGrid().tiles() *
           sizeof(float);
}

TEST(PlanWorkspace, HoldsOnlyTheSlabsItsRunsUsed)
{
    test::ExecScope guard(precSparse(Prec::F32, false));
    ThreadPool::global().setThreadCount(1);
    WinogradAlgo algo = makeWinograd(2, 3);
    const int B = 2, I = 3, J = 5, H = 10;
    Rng rng(41);
    Tensor x(B, I, H, H);
    Tensor dy(B, J, H, H);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    Tensor w(J, I, 3, 3);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);
    Tensor y(B, J, H, H);
    Tensor dx(B, I, H, H);
    WinoWeights dW(algo.alpha, J, I);

    // Fresh: nothing held. Fused forward: one worker's strip scratch.
    WinoPlan fused(algo, B, I, J, H, H);
    EXPECT_EQ(fused.workspaceBytes(), 0u);
    fused.forwardFusedInto(x, W, y);
    const std::size_t a2 = std::size_t(algo.alpha) * algo.alpha;
    EXPECT_EQ(fused.workspaceBytes(),
              a2 * (I + J) * fused.stripTiles() * sizeof(float));

    // Staged eval forward: Xt + Yt.
    WinoPlan plan(algo, B, I, J, H, H);
    EXPECT_EQ(plan.workspaceBytes(), 0u);
    plan.forwardInto(x, W, y);
    plan.invalidateCache();
    const std::size_t fwdBytes = slabBytes(plan, I) + slabBytes(plan, J);
    EXPECT_EQ(plan.workspaceBytes(), fwdBytes);
    plan.forwardInto(x, W, y); // a repeat acquires nothing
    EXPECT_EQ(plan.workspaceBytes(), fwdBytes);

    // A training step adds dYt and dXt: all four slabs.
    plan.transformGradOutput(dy);
    plan.gradWeightsFromCachedInto(dW);
    EXPECT_EQ(plan.workspaceBytes(), fwdBytes + slabBytes(plan, J));
    plan.backwardDataFromCachedInto(W, dx);
    EXPECT_EQ(plan.workspaceBytes(), 2 * fwdBytes);
}

TEST(PlanWorkspace, PolicyForwardAddsItsMaskAndHalfTiles)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    const int B = 2, I = 3, J = 5, H = 10;
    Rng rng(43);
    Tensor x(B, I, H, H);
    x.fillUniform(rng);
    Tensor y(B, J, H, H);
    const WinoWeights W(algo.alpha, J, I);
    for (Prec prec : {Prec::F32, Prec::Bf16}) {
        for (bool sparse : {false, true}) {
            test::ExecScope guard(precSparse(prec, sparse));
            ThreadPool::global().setThreadCount(1);
            WinoPlan plan(algo, B, I, J, H, H);
            plan.forwardInto(x, W, y);
            // Half policies store Xt as 16-bit Xh, sparse ones add the
            // activation zero mask; the fp32 Xt slab is never sized
            // under a half policy.
            std::size_t want = slabBytes(plan, J);
            want += prec == Prec::F32 ? slabBytes(plan, I)
                                      : slabBytes(plan, I) / 2;
            if (sparse) {
                ActMask mask;
                mask.reshape(algo.alpha * algo.alpha, I, B,
                             plan.tileGrid().tiles());
                want += mask.wordCount() * sizeof(std::uint64_t);
            }
            EXPECT_EQ(plan.workspaceBytes(), want)
                << precName(prec) << (sparse ? " sparse" : " dense");
        }
    }
}

TEST(PlanWorkspace, FusedShapeOverTheSlabBudgetRunsInStripScratch)
{
    test::ExecScope guard(precSparse(Prec::F32, false));
    ThreadPool::global().setThreadCount(4);
    WinogradAlgo algo = makeWinograd(2, 3);
    const int B = 4, C = 32, H = 64;
    Rng rng(47);
    Tensor x(B, C, H, H);
    x.fillUniform(rng);
    Tensor w(C, C, 3, 3);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);

    Tensor yRef(B, C, H, H);
    WinoPlan(algo, B, C, C, H, H).forwardInto(x, W, yRef);

    // Four 8 MiB slabs would need 32 MiB; four workers' strips fit 4.
    const std::size_t limit = std::size_t(4) << 20;
    Tensor y(B, C, H, H);
    {
        ScopedWorkspaceLimit scoped(limit);
        WinoPlan plan(algo, B, C, C, H, H);
        ASSERT_GT(4 * slabBytes(plan, C), limit);
        plan.forwardFusedInto(x, W, y);
        EXPECT_LE(plan.workspaceBytes(), limit);
    }
    EXPECT_EQ(y.maxAbsDiff(yRef), 0.0f);
}

// -------------------------------------------- Stale-cache regression

TEST(ConvLayerDeath, BackwardAfterEvalForwardDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    WinogradAlgo algo = makeWinograd(2, 3);
    for (auto mode : {nn::ConvMode::Direct, nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(3);
        nn::ConvLayer layer(2, 2, 3, mode, algo, rng);
        Tensor x(1, 2, 4, 4);
        Tensor dy(1, 2, 4, 4);
        x.fillUniform(rng);
        dy.fillUniform(rng);
        layer.forward(x, true);
        layer.backward(dy); // trained forward: fine
        layer.forward(x, false);
        // An inference forward invalidates the training cache; the old
        // implementation silently produced gradients from stale tiles.
        EXPECT_DEATH(layer.backward(dy), "stale");
    }
}

TEST(MptConvLayerDeath, BackwardAfterEvalForwardDies)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(3);
    mpt::MptConvLayer layer(2, 2, 3, 2, 1, algo, rng);
    Tensor x(2, 2, 4, 4);
    Tensor dy(2, 2, 4, 4);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    layer.forward(x, true);
    layer.backward(dy);
    layer.forward(x, false);
    EXPECT_DEATH(layer.backward(dy), "stale");
}

} // namespace
} // namespace winomc
