/**
 * @file
 * Fused tile-strip pipeline tests (§4.11): fused-vs-staged bitwise
 * parity over odd shapes / N=1 / C!=K / grids both smaller and larger
 * than one strip, at 1-vs-8 threads and under scalar + auto ISA
 * dispatch; WINOMC_FUSED knob parsing and the Auto heuristic; zero
 * fresh workspace bytes in fused steady state; and the layer wirings
 * (ConvLayer train-mode under WINOMC_FUSED=on, MptConvLayer fused
 * inference forward).
 *
 * The parity expectation is exact equality — the fused schedule keeps
 * the staged pipeline's per-element operation order (panel grouping
 * and strip boundaries align with the staged 16-wide panels), so
 * "within ULP bounds" collapses to bitwise identity on every ISA. Any
 * nonzero diff is a scheduling bug, not roundoff.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/conv_layer.hh"
#include "tensor/workspace.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
[[maybe_unused]] const bool kPinFp32 = [] {
    setPrec(Prec::F32);
    return true;
}();

namespace {

/** Restore the process-wide fused mode / ISA / thread count on exit so
 *  tests cannot leak overrides into each other. */
struct KnobGuard
{
    ~KnobGuard()
    {
        setFusedMode(FusedMode::Auto);
        mk::setIsa(mk::Isa::Auto);
        ThreadPool::global().setThreadCount(0);
    }
};

// ------------------------------------------------------- Knob parsing

TEST(FusedKnob, ParsesTokensCaseInsensitivelyAndTrimmed)
{
    EXPECT_EQ(parseFusedMode("on"), FusedMode::On);
    EXPECT_EQ(parseFusedMode("off"), FusedMode::Off);
    EXPECT_EQ(parseFusedMode("auto"), FusedMode::Auto);
    EXPECT_EQ(parseFusedMode(" ON "), FusedMode::On);
    EXPECT_EQ(parseFusedMode("Off\n"), FusedMode::Off);
    EXPECT_EQ(parseFusedMode("AuTo"), FusedMode::Auto);
}

TEST(FusedKnob, GarbageFallsBackToAuto)
{
    EXPECT_EQ(parseFusedMode(nullptr), FusedMode::Auto);
    EXPECT_EQ(parseFusedMode(""), FusedMode::Auto);
    EXPECT_EQ(parseFusedMode("banana"), FusedMode::Auto);
    EXPECT_EQ(parseFusedMode("on1"), FusedMode::Auto);
    EXPECT_EQ(parseFusedMode("yes"), FusedMode::Auto);
}

TEST(FusedKnob, SetFusedModeOverridesExactly)
{
    KnobGuard guard;
    setFusedMode(FusedMode::On);
    EXPECT_EQ(requestedFusedMode(), FusedMode::On);
    setFusedMode(FusedMode::Off);
    EXPECT_EQ(requestedFusedMode(), FusedMode::Off);
    setFusedMode(FusedMode::Auto);
    EXPECT_EQ(requestedFusedMode(), FusedMode::Auto);
}

TEST(FusedKnob, ModeNamesRoundTrip)
{
    EXPECT_STREQ(fusedModeName(FusedMode::Off), "off");
    EXPECT_STREQ(fusedModeName(FusedMode::Auto), "auto");
    EXPECT_STREQ(fusedModeName(FusedMode::On), "on");
    EXPECT_EQ(parseFusedMode(fusedModeName(FusedMode::On)),
              FusedMode::On);
}

// ----------------------------------------------------- Auto heuristic

TEST(FusedHeuristic, OffNeverFusesOnAlwaysFuses)
{
    KnobGuard guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    WinoPlan plan(algo, 1, 2, 2, 8, 8);
    setFusedMode(FusedMode::Off);
    EXPECT_FALSE(plan.shouldFuse(false));
    EXPECT_FALSE(plan.shouldFuse(true));
    setFusedMode(FusedMode::On);
    EXPECT_TRUE(plan.shouldFuse(false));
    EXPECT_TRUE(plan.shouldFuse(true)); // explicit on overrides caches
}

TEST(FusedHeuristic, AutoFusesLargeSlabsButPreservesTileCaches)
{
    KnobGuard guard;
    setFusedMode(FusedMode::Auto);
    WinogradAlgo algo = makeWinograd(2, 3);
    WinoPlan small(algo, 1, 2, 2, 8, 8); // slabs are a few KiB
    EXPECT_FALSE(small.shouldFuse(false));
    WinoPlan big(algo, 4, 32, 32, 64, 64); // slabs are tens of MiB
    EXPECT_TRUE(big.shouldFuse(false));
    EXPECT_FALSE(big.shouldFuse(true)); // caller needs the tile caches
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
    KnobGuard guard;
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
        mk::setIsa(isa);
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
        setFusedMode(FusedMode::On);
        EXPECT_EQ(winogradForward(x, W, algo).maxAbsDiff(y_ref), 0.0f);
        EXPECT_EQ(winogradBackwardData(dy, W, algo, p.h, p.w)
                      .maxAbsDiff(dx_ref),
                  0.0f);
        setFusedMode(FusedMode::Auto);
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
    KnobGuard guard;
    setFusedMode(FusedMode::On);
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

TEST(FusedConvLayer, TrainStepsBitwiseMatchStagedUnderForcedFusion)
{
    KnobGuard guard;
    struct LayerCase
    {
        int batch, in_ch, out_ch, hw, m;
    };
    // A small F(2,3) layer, then train_wino's F(4,3) convs on 16x16
    // and 8x8 maps at batch 16 (the 8x8 maps hold 4 tiles per image).
    const LayerCase cases[] = {
        {2, 3, 4, 6, 2},
        {16, 32, 64, 16, 4},
        {16, 64, 128, 8, 4},
        {16, 128, 128, 8, 4},
    };
    for (const LayerCase &c : cases) {
        WinogradAlgo algo = makeWinograd(c.m, 3);
        for (auto mode : {nn::ConvMode::WinogradSpatial,
                          nn::ConvMode::WinogradLayer}) {
            // Identically-seeded twin layers, one staged, one fused.
            Rng rngA(42), rngB(42);
            nn::ConvLayer staged(c.in_ch, c.out_ch, 3, mode, algo, rngA);
            nn::ConvLayer fused(c.in_ch, c.out_ch, 3, mode, algo, rngB);
            Rng dataRng(7);
            for (int iter = 0; iter < 3; ++iter) {
                Tensor x(c.batch, c.in_ch, c.hw, c.hw);
                Tensor dy(c.batch, c.out_ch, c.hw, c.hw);
                x.fillUniform(dataRng);
                dy.fillUniform(dataRng);

                setFusedMode(FusedMode::Off);
                Tensor y_ref = staged.forward(x, true);
                Tensor dx_ref = staged.backward(dy);
                staged.step(0.01f);

                setFusedMode(FusedMode::On);
                Tensor y = fused.forward(x, true);
                Tensor dx = fused.backward(dy);
                fused.step(0.01f);

                const std::string at = "mode " +
                                       std::to_string(int(mode)) +
                                       " in " + std::to_string(c.in_ch) +
                                       " hw " + std::to_string(c.hw);
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f) << at;
                EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f) << at;
                // Equal updated weights: dW (dw in spatial mode) was
                // bitwise equal too.
                EXPECT_EQ(fused.spatialWeights().maxAbsDiff(
                              staged.spatialWeights()),
                          0.0f)
                    << at;
                const WinoWeights &wf = fused.winoWeights();
                const WinoWeights &ws = staged.winoWeights();
                EXPECT_EQ(0, std::memcmp(wf.raw(), ws.raw(),
                                         wf.size() * sizeof(float)))
                    << at;
            }
        }
    }
}

TEST(FusedConvLayer, EvalForwardMatchesStagedAndKeepsBackwardFenced)
{
    KnobGuard guard;
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(5);
    nn::ConvLayer layer(2, 3, 3, nn::ConvMode::WinogradSpatial, algo,
                        rng);
    Tensor x(1, 2, 6, 6);
    Tensor dy(1, 3, 6, 6);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    setFusedMode(FusedMode::Off);
    Tensor y_ref = layer.forward(x, false);
    setFusedMode(FusedMode::On);
    Tensor y = layer.forward(x, false);
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    // The stale-cache fence survives the fused eval forward.
    EXPECT_DEATH(layer.backward(dy), "stale");
}

TEST(FusedMptLayer, InferenceForwardMatchesCanonicalPipeline)
{
    KnobGuard guard;
    WinogradAlgo algo = makeWinograd(2, 3); // alpha^2 = 16
    // ng == 1: the undivided shard qualifies for the fused forward.
    Rng rngA(23), rngB(23);
    mpt::MptConvLayer staged(3, 4, 3, 1, 2, algo, rngA);
    mpt::MptConvLayer fused(3, 4, 3, 1, 2, algo, rngB);
    Rng dataRng(29);
    Tensor x(4, 3, 8, 8);
    x.fillUniform(dataRng);
    setFusedMode(FusedMode::Off);
    Tensor y_staged = staged.forward(x, false);
    setFusedMode(FusedMode::On);
    Tensor y = fused.forward(x, false);
    // The fused shard forward is bitwise the canonical plan pipeline
    // (batch grouping does not change any per-element operation order).
    setFusedMode(FusedMode::Off);
    Tensor y_ref = winogradForward(x, fused.winoWeights(), algo);
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    // The staged MPT path runs the single-node element-wise kernel on
    // each group's uv slice, so it is bitwise the canonical pipeline
    // too.
    EXPECT_EQ(y.maxAbsDiff(y_staged), 0.0f);
}

TEST(FusedMptLayer, GroupedTrainingIgnoresFusedRequest)
{
    KnobGuard guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    // ng > 1 partial products need the plan slabs; WINOMC_FUSED=on
    // must leave the grouped path (and its training step) intact.
    Rng rngA(31), rngB(31);
    mpt::MptConvLayer staged(3, 4, 3, 2, 2, algo, rngA);
    mpt::MptConvLayer fused(3, 4, 3, 2, 2, algo, rngB);
    Rng dataRng(37);
    Tensor x(4, 3, 8, 8);
    Tensor dy(4, 4, 8, 8);
    x.fillUniform(dataRng);
    dy.fillUniform(dataRng);
    setFusedMode(FusedMode::Off);
    Tensor y_ref = staged.forward(x, true);
    Tensor dx_ref = staged.backward(dy);
    setFusedMode(FusedMode::On);
    Tensor y = fused.forward(x, true);
    Tensor dx = fused.backward(dy);
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
}

} // namespace
} // namespace winomc
