/**
 * @file
 * Fused tile-strip pipeline tests (§4.11): fused-vs-staged bitwise
 * parity over odd shapes / N=1 / C!=K / grids both smaller and larger
 * than one strip, at 1-vs-8 threads and under scalar + auto ISA
 * dispatch; the plan's fusion rule, observed through the fused-forward
 * counter; zero fresh workspace bytes in fused steady state; and the
 * layer wirings (ConvLayer and MptConvLayer eval forwards fuse above
 * the threshold, train-mode forwards never do).
 *
 * The parity expectation is exact equality — the fused schedule keeps
 * the staged pipeline's per-element operation order (panel grouping
 * and strip boundaries align with the staged 16-wide panels), so
 * "within ULP bounds" collapses to bitwise identity on every ISA. Any
 * nonzero diff is a scheduling bug, not roundoff.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/conv_layer.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

#include "ew_forms.hh"
#include "exec_scope.hh"
#include "metrics_probe.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
const test::Fp32Pin fp32Pin;

namespace {

using test::ExecScope;
using test::MetricsProbe;
using test::withIsa;
using test::winogradForward;
using test::winogradBackwardData;

/** Identically seeded input and Winograd weights of one C -> C conv. */
struct ConvData
{
    Tensor x;
    WinoWeights W;

    ConvData(const WinogradAlgo &algo, int batch, int ch, int h, int w)
        : x(batch, ch, h, w)
    {
        Rng rng(11);
        x.fillUniform(rng);
        Tensor k(ch, ch, 3, 3);
        k.fillUniform(rng);
        W = transformWeights(k, algo);
    }
};

// ------------------------------------------------------ Fusion rule

TEST(FusedHeuristic, AutoFusesLargeSlabsButPreservesTileCaches)
{
    // forwardInto fuses exactly the forwards that keep no tiles and
    // whose staged slabs (Xt + Yt) reach 1 MiB; a forward that keeps
    // its tiles always runs staged and leaves them cached.
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    struct Case
    {
        int h, w;
        bool keepTiles, fuses;
    };
    // 16 -> 16 channels, F(2,3): Xt + Yt = 2 KiB per tile.
    const Case cases[] = {
        {8, 8, false, false},   // 16 tiles: 32 KiB
        {64, 30, false, false}, // 480 tiles: just under 1 MiB
        {64, 32, false, true},  // 512 tiles: exactly 1 MiB
        {64, 64, false, true},  // 2 MiB
        {64, 64, true, false},  // 2 MiB, tiles kept
    };
    for (const Case &c : cases) {
        const ConvData d(algo, 1, 16, c.h, c.w);
        WinoPlan plan(algo, 1, 16, 16, c.h, c.w);
        Tensor y(1, 16, c.h, c.w);
        MetricsProbe probe;
        plan.forwardInto(d.x, d.W, y, c.keepTiles);
        const std::string at = std::to_string(c.h) + "x" +
                               std::to_string(c.w) + " keepTiles " +
                               std::to_string(c.keepTiles);
        EXPECT_EQ(probe.fusedForwards(), c.fuses ? 1.0 : 0.0) << at;
        EXPECT_EQ(plan.inputCached(), c.keepTiles) << at;
    }
}

TEST(FusedStrips, GeometryCoversTheGridInWholePanels)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    // Heavy channels shrink the strip until the grid needs several.
    WinoPlan plan(algo, 1, 128, 128, 24, 24);
    EXPECT_EQ(plan.stripTiles() % mk::kTilePanel, 0);
    EXPECT_GT(plan.stripCount(), 1);
    EXPECT_GE(plan.stripTiles() * plan.stripCount(),
              plan.tileGrid().tiles());
    // Tiny grid: one panel-sized strip.
    WinoPlan tiny(algo, 1, 2, 2, 4, 4);
    EXPECT_EQ(tiny.stripCount(), 1);
    EXPECT_GE(tiny.stripTiles(), tiny.tileGrid().tiles());
}

// --------------------------------------------- Fused vs staged parity

struct FusedCase
{
    int batch, in_ch, out_ch, h, w, m, r;
};

class FusedParityP : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedParityP, BitwiseMatchesStagedForAnyThreadCountAndIsa)
{
    ExecScope guard;
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(321);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.r, p.r);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);

    for (mk::Isa isa : {mk::Isa::Scalar, mk::Isa::Auto}) {
        ScopedExecConfig isaScope(withIsa(isa));
        WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
        Tensor y_ref(p.batch, p.out_ch, p.h, p.w);
        Tensor dx_ref(p.batch, p.in_ch, p.h, p.w);
        plan.forwardInto(x, W, y_ref);
        plan.backwardDataInto(dy, W, dx_ref);

        Tensor y(p.batch, p.out_ch, p.h, p.w);
        for (int threads : {1, 8}) {
            ThreadPool::global().setThreadCount(threads);
            // Twice per thread count: the second pass reuses warm
            // strip scratch and must still be bitwise identical.
            for (int pass = 0; pass < 2; ++pass) {
                y.fill(-1.0f); // poison: every element must be stored
                plan.forwardFusedInto(x, W, y);
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f)
                    << "isa " << mk::isaName(isa) << " threads "
                    << threads;
            }
        }

        // The free wrappers dispatch through the same plans.
        EXPECT_EQ(winogradForward(x, W, algo).maxAbsDiff(y_ref), 0.0f);
        EXPECT_EQ(winogradBackwardData(dy, W, algo, p.h, p.w)
                      .maxAbsDiff(dx_ref),
                  0.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedParityP,
    ::testing::Values(
        FusedCase{1, 1, 1, 3, 3, 2, 3},      // N=1, single ragged tile
        FusedCase{1, 2, 5, 5, 7, 2, 3},      // C < K, ragged grid
        FusedCase{3, 5, 2, 9, 6, 4, 3},      // C > K, F(4,3)
        FusedCase{2, 3, 4, 8, 8, 4, 3},      // even grid, F(4,3)
        FusedCase{1, 3, 2, 13, 11, 2, 5},    // r=5, odd spatial
        FusedCase{2, 128, 128, 24, 24, 2, 3}), // multi-strip grid
    [](const ::testing::TestParamInfo<FusedCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "c" +
               std::to_string(p.in_ch) + "k" + std::to_string(p.out_ch) +
               "h" + std::to_string(p.h) + "w" + std::to_string(p.w) +
               "F" + std::to_string(p.m) + "r" + std::to_string(p.r);
    });

TEST(FusedParity, MultiStripGridReallyUsesMultipleStrips)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    WinoPlan plan(algo, 2, 128, 128, 24, 24);
    // Guards the INSTANTIATE case above: if strip sizing changes and
    // this collapses to one strip, the ragged-strip coverage is gone.
    EXPECT_GT(plan.stripCount(), 1);
    // ... and the last strip must be ragged (not a full stripT).
    EXPECT_NE(plan.tileGrid().tiles() % plan.stripTiles(), 0);
}

// ------------------------------------------- Zero steady-state alloc

TEST(FusedSteadyState, FusedPathAllocatesNothingAfterWarmup)
{
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(17);
    Tensor x(2, 8, 16, 16);
    Tensor w(8, 8, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);
    WinoPlan plan(algo, 2, 8, 8, 16, 16);
    Tensor y(2, 8, 16, 16);
    for (int threads : {1, 8}) {
        ThreadPool::global().setThreadCount(threads);
        // Warm-up builds the per-worker strip slots at this
        // concurrency and primes the workspace pool.
        plan.forwardFusedInto(x, W, y);
        const auto s0 = ws::Workspace::global().stats();
        for (int i = 0; i < 10; ++i)
            plan.forwardFusedInto(x, W, y);
        const auto s1 = ws::Workspace::global().stats();
        EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
            << "fused steady state hit the heap at " << threads
            << " threads";
        EXPECT_EQ(s1.freshBytes, s0.freshBytes);
        EXPECT_EQ(s1.highWater, s0.highWater);
    }
}

// ------------------------------------------------------ Layer wiring

TEST(FusedConvLayer, EvalForwardMatchesStagedAndKeepsBackwardFenced)
{
    ExecScope guard;
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    WinogradAlgo algo = makeWinograd(2, 3);
    // 16 -> 16 channels on 64x64: 2 MiB of staged slabs, so an eval
    // forward fuses.
    Rng rngA(5), rngB(5);
    nn::ConvLayer layer(16, 16, 3, nn::ConvMode::WinogradSpatial, algo,
                        rngA);
    nn::ConvLayer twin(16, 16, 3, nn::ConvMode::WinogradSpatial, algo,
                       rngB);
    const ConvData d(algo, 1, 16, 64, 64);
    // A train-mode forward runs staged.
    const Tensor y_ref = twin.forward(d.x, true);
    Tensor y;
    {
        MetricsProbe probe;
        y = layer.forward(d.x, false);
        EXPECT_EQ(probe.fusedForwards(), 1.0);
    }
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    // The stale-cache fence survives the fused eval forward.
    Tensor dy(1, 16, 64, 64);
    EXPECT_DEATH(layer.backward(dy), "stale");
}

TEST(FusedConvLayer, TrainForwardNeverFusesAboveThreshold)
{
    // train_wino's 32 -> 64 F(4,3) conv on 16x16 at batch 16 holds
    // 3.4 MiB of staged slabs: its eval forward fuses, yet a train
    // forward keeps the tiles its backward reads, in either mode.
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(4, 3);
    Rng dataRng(7);
    Tensor x(16, 32, 16, 16);
    Tensor dy(16, 64, 16, 16);
    x.fillUniform(dataRng);
    dy.fillUniform(dataRng);
    for (auto mode : {nn::ConvMode::WinogradSpatial,
                      nn::ConvMode::WinogradLayer}) {
        Rng rng(42);
        nn::ConvLayer layer(32, 64, 3, mode, algo, rng);
        MetricsProbe probe;
        const Tensor y_eval = layer.forward(x, false);
        EXPECT_EQ(probe.fusedForwards(), 1.0);
        const Tensor y = layer.forward(x, true);
        EXPECT_EQ(probe.fusedForwards(), 1.0) << "train forward fused";
        EXPECT_EQ(y.maxAbsDiff(y_eval), 0.0f);
        // The staged forward cached its output tiles.
        EXPECT_GT(layer.lastOutputTiles().size(), 0u);
        layer.backward(dy);
        layer.step(0.01f);
    }
}

TEST(FusedMptLayer, InferenceForwardMatchesCanonicalPipeline)
{
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3); // alpha^2 = 16
    // ng == 1, nc == 2: each cluster's undivided shard (2 x 16 -> 16 on
    // 32x32, 1 MiB of staged slabs) fuses its eval forward.
    Rng rng(23);
    mpt::MptConvLayer layer(16, 16, 3, 1, 2, algo, rng);
    const ConvData d(algo, 4, 16, 32, 32);
    Tensor y;
    {
        MetricsProbe probe;
        y = layer.forward(d.x, false);
        EXPECT_EQ(probe.fusedForwards(), 2.0); // one per cluster
    }
    // The fused shard forward is bitwise the canonical staged plan
    // (batch grouping does not change any per-element operation order).
    WinoPlan plan(algo, 4, 16, 16, 32, 32);
    Tensor y_ref(4, 16, 32, 32);
    plan.forwardInto(d.x, layer.winoWeights(), y_ref);
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    // The train-mode MPT path runs the single-node element-wise kernel
    // on each group's uv slice, so it is bitwise the canonical pipeline
    // too.
    EXPECT_EQ(layer.forward(d.x, true).maxAbsDiff(y_ref), 0.0f);
}

TEST(FusedMptLayer, GroupedAndTrainForwardsNeverFuse)
{
    // ng > 1 partial products need the plan slabs, and so does a
    // train-mode forward: above the threshold, neither fuses, and both
    // stay bitwise the canonical staged plan.
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    const ConvData d(algo, 4, 16, 32, 32);
    for (int ng : {1, 2}) {
        Rng rng(31);
        mpt::MptConvLayer layer(16, 16, 3, ng, 2, algo, rng);
        WinoPlan plan(algo, 4, 16, 16, 32, 32);
        Tensor y_ref(4, 16, 32, 32);
        plan.forwardInto(d.x, layer.winoWeights(), y_ref);
        MetricsProbe probe;
        if (ng > 1) {
            EXPECT_EQ(layer.forward(d.x, false).maxAbsDiff(y_ref), 0.0f);
        }
        EXPECT_EQ(layer.forward(d.x, true).maxAbsDiff(y_ref), 0.0f);
        EXPECT_EQ(probe.fusedForwards(), 0.0) << "ng " << ng;
    }
}

} // namespace
} // namespace winomc
