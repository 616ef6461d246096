/**
 * @file
 * Tile-range forward tests (§4.11): an eval forward
 * (forwardInto(..., false)) is bitwise the whole-batch forward
 * (forwardInto(..., true)) for any range length — ranges that start
 * mid-image, span images or end ragged — under every policy, at every
 * usable ISA and 1 and 4 threads; the range rule (a forward that keeps
 * its tiles runs one range; small maps span images; a large map
 * splits), observed through the fused-forward counter; zero fresh
 * workspace bytes in multi-range steady state; and the layer wirings
 * (ConvLayer and MptConvLayer eval forwards run in ranges, train-mode
 * forwards never do).
 *
 * The parity expectation is exact equality — every tile's transform,
 * element-wise and inverse operations are the same wherever its lane
 * sits, so "within ULP bounds" collapses to bitwise identity on every
 * ISA. Any nonzero diff is a scheduling bug, not roundoff.
 */

#include <gtest/gtest.h>

#include <ostream>
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
// WINOMC_PREC; RangeParityP sets every policy itself. WINOMC_SPARSE
// stays env-driven on purpose: sparse execution is bitwise identical
// and must keep passing here.
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

// ------------------------------------------------------- Range rule

TEST(FusedHeuristic, AutoFusesLargeSlabsButPreservesTileCaches)
{
    // A forward that keeps its tiles runs one range, the whole batch,
    // and leaves them cached; an eval forward runs rangeCount() ranges
    // — published as a fused forward — exactly when the batch holds
    // more than rangeTiles() tiles.
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    struct Case
    {
        int h, w;
        bool keepTiles;
        int ranges;
    };
    // 16 -> 16 channels, F(2,3): 2 KiB of in + out tiles per tile, so
    // the 1 MiB scratch budget makes ranges of at most 512 tiles.
    const Case cases[] = {
        {8, 8, false, 1},     // 16 tiles
        {32, 64, false, 1},   // 512 tiles: exactly one range
        {32, 66, false, 2},   // 528 tiles: two ranges of 272 and 256
        {64, 128, false, 4},  // 2048 tiles
        {64, 128, true, 1},   // tiles kept
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
        EXPECT_LE(plan.rangeTiles(), 512) << at;
        if (!c.keepTiles) {
            EXPECT_EQ(plan.rangeCount(), c.ranges) << at;
        }
        EXPECT_EQ(probe.fusedForwards(), c.ranges > 1 ? 1.0 : 0.0) << at;
        EXPECT_EQ(plan.inputCached(), c.keepTiles) << at;
    }
}

/** Ranges of whole panels (or the whole batch) that cover it, even to
 *  within a panel each: no range is a short remainder. */
void
expectRangesCoverTheBatch(const WinoPlan &plan, const std::string &at)
{
    const int total = plan.batch() * plan.tileGrid().tiles();
    const int len = plan.rangeTiles();
    if (plan.rangeCount() == 1) {
        EXPECT_EQ(len, total) << at;
        return;
    }
    EXPECT_EQ(len % mk::kTilePanel, 0) << at;
    EXPECT_GE(len * plan.rangeCount(), total) << at;
    EXPECT_LT(len * (plan.rangeCount() - 1), total) << at;
    EXPECT_LT(len * plan.rangeCount() - total,
              mk::kTilePanel * plan.rangeCount())
        << at;
}

TEST(FusedStrips, GeometryCoversTheGridInWholePanels)
{
    WinogradAlgo algo = makeWinograd(4, 3);
    // 8x8 maps hold 4 tiles: batch 16 at 128 channels is one range,
    // the whole batch, and batch 64 splits into ranges of several
    // images each.
    WinoPlan small(algo, 16, 128, 128, 8, 8);
    EXPECT_EQ(small.rangeCount(), 1);
    expectRangesCoverTheBatch(small, "B16 8x8");
    WinoPlan many(algo, 64, 128, 128, 8, 8);
    EXPECT_GT(many.rangeCount(), 1);
    EXPECT_GT(many.rangeTiles(), many.tileGrid().tiles());
    expectRangesCoverTheBatch(many, "B64 8x8");
    // A large map splits within its image.
    WinoPlan large(algo, 1, 64, 64, 96, 96);
    EXPECT_GT(large.rangeCount(), 1);
    EXPECT_LT(large.rangeTiles(), large.tileGrid().tiles());
    expectRangesCoverTheBatch(large, "B1 96x96");
    // Tiny grid: one range, the whole batch.
    WinoPlan tiny(makeWinograd(2, 3), 1, 2, 2, 4, 4);
    EXPECT_EQ(tiny.rangeCount(), 1);
    expectRangesCoverTheBatch(tiny, "B1 4x4");
}

// ------------------------------------------ Eval vs whole-batch parity

struct FusedCase
{
    int batch, in_ch, out_ch, h, w, m, r;
};

std::string
caseName(const FusedCase &p)
{
    return "b" + std::to_string(p.batch) + "c" + std::to_string(p.in_ch) +
           "k" + std::to_string(p.out_ch) + "h" + std::to_string(p.h) +
           "w" + std::to_string(p.w) + "F" + std::to_string(p.m) + "r" +
           std::to_string(p.r);
}

/** A post-ReLU-looking input (patch blocks and whole planes zero, a
 *  different set of channels per image, so the sparse policy's
 *  activation mask differs from range to range) and weights with every
 *  third entry zero (so its weight compaction drops rows). */
struct RangeData
{
    Tensor x;
    WinoWeights W;

    RangeData(const FusedCase &p, const WinogradAlgo &algo)
        : x(p.batch, p.in_ch, p.h, p.w)
    {
        Rng rng(321);
        x.fillUniform(rng);
        for (int n = 0; n < p.batch; ++n)
            for (int c = 0; c < p.in_ch; ++c)
                for (int i = 0; i < p.h; ++i)
                    for (int j = 0; j < p.w; ++j)
                        if ((n + c) % 3 == 1 || (i / 4 + j / 4) % 3 == 0)
                            x.at(n, c, i, j) = 0.0f;
        Tensor w(p.out_ch, p.in_ch, p.r, p.r);
        w.fillUniform(rng);
        W = transformWeights(w, algo);
        for (std::size_t i = 0; i < W.size(); i += 3)
            W.raw()[i] = 0.0f;
    }
};

/**
 * Under the live config, at every usable ISA and 1 and 4 threads, the
 * eval forward of `d` is bitwise the plan's forward that keeps its
 * tiles (the whole batch as one range), twice per thread count: the
 * second pass runs on warm range tiles. Returns the eval forward's
 * range count.
 */
int
expectEvalMatchesWholeBatch(const FusedCase &p, const WinogradAlgo &algo,
                            const RangeData &d, const std::string &at)
{
    int ranges = 0;
    for (mk::Isa isa : test::usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
        ranges = plan.rangeCount();
        Tensor y_ref(p.batch, p.out_ch, p.h, p.w);
        plan.forwardInto(d.x, d.W, y_ref, true);
        Tensor y(p.batch, p.out_ch, p.h, p.w);
        for (int threads : {1, 4}) {
            ThreadPool::global().setThreadCount(threads);
            for (int pass = 0; pass < 2; ++pass) {
                y.fill(-1.0f); // poison: every element must be stored
                plan.forwardInto(d.x, d.W, y, false);
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f)
                    << at << " isa " << mk::isaName(isa) << " threads "
                    << threads << " pass " << pass;
            }
        }
    }
    return ranges;
}

class FusedParityP : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedParityP, BitwiseMatchesStagedForAnyThreadCountAndIsa)
{
    ExecScope guard;
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    const RangeData d(p, algo);
    expectEvalMatchesWholeBatch(p, algo, d, caseName(p));

    // The free wrappers dispatch through the same plans.
    Rng rng(5);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    dy.fillUniform(rng);
    WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
    Tensor y_ref(p.batch, p.out_ch, p.h, p.w);
    Tensor dx_ref(p.batch, p.in_ch, p.h, p.w);
    plan.forwardInto(d.x, d.W, y_ref);
    plan.backwardDataInto(dy, d.W, dx_ref);
    EXPECT_EQ(winogradForward(d.x, d.W, algo).maxAbsDiff(y_ref), 0.0f);
    EXPECT_EQ(
        winogradBackwardData(dy, d.W, algo, p.h, p.w).maxAbsDiff(dx_ref),
        0.0f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedParityP,
    ::testing::Values(
        FusedCase{1, 1, 1, 3, 3, 2, 3},      // N=1, single ragged tile
        FusedCase{1, 2, 5, 5, 7, 2, 3},      // C < K, ragged grid
        FusedCase{3, 5, 2, 9, 6, 4, 3},      // C > K, F(4,3)
        FusedCase{2, 3, 4, 8, 8, 4, 3},      // even grid, F(4,3)
        FusedCase{1, 3, 2, 13, 11, 2, 5},    // r=5, odd spatial
        FusedCase{2, 128, 128, 24, 24, 2, 3}), // several ranges
    [](const ::testing::TestParamInfo<FusedCase> &info) {
        return caseName(info.param);
    });

TEST(FusedParity, MultiStripGridReallyUsesMultipleStrips)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    WinoPlan plan(algo, 2, 128, 128, 24, 24);
    // Guards the last FusedParityP case: if the range rule changes and
    // this collapses to one range, its multi-range coverage is gone.
    EXPECT_GT(plan.rangeCount(), 1);
    // ... and the last range must be ragged (not a full rangeTiles()).
    EXPECT_NE(2 * plan.tileGrid().tiles() % plan.rangeTiles(), 0);
}

/** A multi-range case and the range boundaries it must contain. */
struct RangeCase
{
    FusedCase shape;
    bool midImage; ///< a range starts inside an image
    bool ragged;   ///< the last range is shorter than rangeTiles()
};

/** gtest's printer for a case (its default dumps padding bytes). */
void
PrintTo(const RangeCase &c, std::ostream *os)
{
    *os << caseName(c.shape) << (c.midImage ? " mid-image" : "")
        << (c.ragged ? " ragged" : "");
}

class RangeParityP : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeParityP, AnyRangeLengthMatchesTheWholeBatch)
{
    ExecScope guard;
    const RangeCase rc = GetParam();
    const FusedCase &p = rc.shape;
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    {
        WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
        ASSERT_GT(plan.rangeCount(), 1) << "the case must split";
        const int nt = plan.tileGrid().tiles();
        const int len = plan.rangeTiles();
        EXPECT_EQ(len % nt != 0, rc.midImage);
        EXPECT_EQ(p.batch * nt % len != 0, rc.ragged);
    }
    const RangeData d(p, algo);
    struct Policy
    {
        const char *name;
        Prec prec;
        bool sparse;
    };
    for (const Policy pol : {Policy{"fp32", Prec::F32, false},
                             Policy{"sparse", Prec::F32, true},
                             Policy{"bf16", Prec::Bf16, false},
                             Policy{"fp16", Prec::F16, false}}) {
        ScopedExecConfig scope([&](ExecConfig &c) {
            c.prec = pol.prec;
            c.sparse = pol.sparse;
        });
        EXPECT_GT(expectEvalMatchesWholeBatch(p, algo, d,
                                              caseName(p) + " " + pol.name),
                  1);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RangeParityP,
    ::testing::Values(
        // 60 tiles per image, ranges of 160.
        RangeCase{{5, 32, 32, 12, 20, 2, 3}, true, true},
        // 256 tiles per image, ranges of 512: image-aligned.
        RangeCase{{4, 16, 16, 32, 32, 2, 3}, false, false},
        // C != K at F(4,3): 15 tiles per image, ranges of 96.
        RangeCase{{12, 24, 40, 10, 18, 4, 3}, true, true},
        // F(6,3): 25 tiles per image, ranges of 112.
        RangeCase{{8, 16, 16, 30, 30, 6, 3}, true, true},
        // r = 5: 900 tiles per image, ranges of 912.
        RangeCase{{2, 3, 2, 60, 60, 2, 5}, true, true}),
    [](const ::testing::TestParamInfo<RangeCase> &info) {
        return caseName(info.param.shape);
    });

// ------------------------------------------- Zero steady-state alloc

TEST(FusedSteadyState, FusedPathAllocatesNothingAfterWarmup)
{
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(17);
    Tensor x(2, 8, 64, 64);
    Tensor w(8, 8, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);
    WinoPlan plan(algo, 2, 8, 8, 64, 64);
    ASSERT_GT(plan.rangeCount(), 1);
    Tensor y(2, 8, 64, 64);
    for (int threads : {1, 8}) {
        ThreadPool::global().setThreadCount(threads);
        // Warm-up sizes the plan's range tiles at this thread count
        // and primes the workspace pool.
        plan.forwardInto(x, W, y, false);
        const auto s0 = ws::Workspace::global().stats();
        for (int i = 0; i < 10; ++i)
            plan.forwardInto(x, W, y, false);
        const auto s1 = ws::Workspace::global().stats();
        EXPECT_EQ(s1.freshAllocs, s0.freshAllocs)
            << "multi-range steady state hit the heap at " << threads
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
    // 16 -> 16 channels on 64x64: two ranges of 512 tiles, so an eval
    // forward runs in ranges.
    Rng rngA(5), rngB(5);
    nn::ConvLayer layer(16, 16, 3, nn::ConvMode::WinogradSpatial, algo,
                        rngA);
    nn::ConvLayer twin(16, 16, 3, nn::ConvMode::WinogradSpatial, algo,
                       rngB);
    const ConvData d(algo, 1, 16, 64, 64);
    // A train-mode forward runs the whole batch as one range.
    const Tensor y_ref = twin.forward(d.x, true);
    Tensor y;
    {
        MetricsProbe probe;
        y = layer.forward(d.x, false);
        EXPECT_EQ(probe.fusedForwards(), 1.0);
    }
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    // The stale-cache fence survives the multi-range eval forward.
    Tensor dy(1, 16, 64, 64);
    EXPECT_DEATH(layer.backward(dy), "stale");
}

TEST(FusedConvLayer, TrainForwardNeverFusesAboveThreshold)
{
    // train_wino's 32 -> 64 F(4,3) conv on 16x16 at batch 16 (256
    // tiles): its eval forward runs in ranges, yet a train forward
    // keeps the tiles its backward reads, in either mode.
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
        // The one-range forward cached its output tiles.
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
    // 48x48, 1152 tiles) runs its eval forward in three ranges.
    Rng rng(23);
    mpt::MptConvLayer layer(16, 16, 3, 1, 2, algo, rng);
    const ConvData d(algo, 4, 16, 48, 48);
    Tensor y;
    {
        MetricsProbe probe;
        y = layer.forward(d.x, false);
        EXPECT_EQ(probe.fusedForwards(), 2.0); // one per cluster
    }
    // The shard forward is bitwise the canonical whole-batch plan
    // (batch grouping and range length do not change any per-element
    // operation order).
    WinoPlan plan(algo, 4, 16, 16, 48, 48);
    Tensor y_ref(4, 16, 48, 48);
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
    // train-mode forward: on a shape whose eval forward would split,
    // neither runs in ranges, and both stay bitwise the canonical plan.
    ExecScope guard;
    WinogradAlgo algo = makeWinograd(2, 3);
    const ConvData d(algo, 4, 16, 48, 48);
    for (int ng : {1, 2}) {
        Rng rng(31);
        mpt::MptConvLayer layer(16, 16, 3, ng, 2, algo, rng);
        WinoPlan plan(algo, 4, 16, 16, 48, 48);
        Tensor y_ref(4, 16, 48, 48);
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
