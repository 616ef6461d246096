/**
 * @file
 * Sparse + low-precision execution tests: the ExecConfig prec /
 * sparse fields and their cache keys, the 16-bit storage conversions, the activation
 * zero-mask machinery, Winograd-domain pruning through training, and
 * the plan/tuner/weight-cache policy keying.
 *
 * The two load-bearing claims this suite pins down:
 *
 *  - sparse fp32 execution is BITWISE identical to dense fp32 (staged
 *    and fused, every ISA, every thread count): skipping a product
 *    whose factors are exactly zero removes only exact-zero addends
 *    from the fp32 accumulation chain, which cannot change any partial
 *    sum bit (finite inputs; the inf/NaN caveat is documented in
 *    winograd/conv.hh);
 *  - 16-bit activation storage is a pure storage transform: encode is
 *    software round-to-nearest-even on every ISA, accumulation stays
 *    fp32, so staged and fused agree bitwise and the error vs the fp32
 *    oracle stays inside the per-precision bounds asserted here.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/half.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "nn/conv_layer.hh"
#include "quant/prune.hh"
#include "serve/plan_cache.hh"
#include "winograd/conv.hh"
#include "winograd/lowprec.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"
#include "winograd/tuner.hh"

#include "sparse_fixtures.hh"

namespace winomc {
namespace {

// ------------------------------------------------------------- Knobs

TEST(LowPrecKnobs, PrecNamesAndBytes)
{
    EXPECT_STREQ(precName(Prec::F32), "fp32");
    EXPECT_STREQ(precName(Prec::F16), "fp16");
    EXPECT_STREQ(precName(Prec::Bf16), "bf16");
    EXPECT_EQ(precBytes(Prec::F32), 4);
    EXPECT_EQ(precBytes(Prec::F16), 2);
    EXPECT_EQ(precBytes(Prec::Bf16), 2);
}

TEST(LowPrecKnobs, PolicySuffixEmptyAtDefaultOnly)
{
    // The empty default keeps pre-policy cache keys and weight tags
    // byte-identical — on-disk tuner caches survive the upgrade.
    auto key = [](Prec prec, bool sparse) {
        ExecConfig c;
        c.prec = prec;
        c.sparse = sparse;
        return c.key();
    };
    EXPECT_EQ(key(Prec::F32, false), "");
    EXPECT_EQ(key(Prec::F16, false), "_fp16");
    EXPECT_EQ(key(Prec::Bf16, false), "_bf16");
    EXPECT_EQ(key(Prec::F32, true), "_sp");
    EXPECT_EQ(key(Prec::Bf16, true), "_bf16_sp");
    // The other fields never reach a key.
    ExecConfig other;
    other.isa = mk::Isa::Scalar;
    other.fused = FusedMode::On;
    other.tune = tune::TuneMode::Measure;
    EXPECT_EQ(other.key(), "");
}

// -------------------------------------------------- Half conversions

TEST(HalfConvert, Bf16EncodeIsRoundToNearestEven)
{
    // Exactly representable values round-trip bitwise (powers of two
    // are exact at any bf16-covered exponent).
    for (float v : {0.0f, 1.0f, -2.5f, 0.15625f, std::ldexp(1.0f, 100),
                    std::ldexp(1.0f, -100)})
        EXPECT_EQ(half::bf16ToF32(half::f32ToBf16(v)), v) << v;
    // 1 + 2^-8 is the exact tie between 1.0 and the next bf16; RNE
    // picks the even mantissa (1.0).
    EXPECT_EQ(half::bf16ToF32(half::f32ToBf16(1.00390625f)), 1.0f);
    // Just above the tie rounds up.
    EXPECT_GT(half::bf16ToF32(half::f32ToBf16(1.0040f)), 1.0f);
    // Signed zero and infinities survive.
    EXPECT_EQ(half::f32ToBf16(-0.0f), 0x8000u);
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(half::bf16ToF32(half::f32ToBf16(inf)), inf);
    EXPECT_EQ(half::bf16ToF32(half::f32ToBf16(-inf)), -inf);
    // NaN stays NaN (quieted, never squashed to inf).
    EXPECT_TRUE(std::isnan(
        half::bf16ToF32(half::f32ToBf16(std::nanf("0x7")))));
}

TEST(HalfConvert, F16EncodeHandlesSubnormalsAndOverflow)
{
    for (float v : {0.0f, 1.0f, -1.5f, 0.333251953125f, 65504.0f})
        EXPECT_EQ(half::f16ToF32(half::f32ToF16(v)), v) << v;
    // Smallest f16 subnormal is exact.
    const float tiny = std::ldexp(1.0f, -24);
    EXPECT_EQ(half::f32ToF16(tiny), 0x0001u);
    EXPECT_EQ(half::f16ToF32(std::uint16_t(0x0001u)), tiny);
    // Below half the smallest subnormal rounds to signed zero.
    EXPECT_EQ(half::f32ToF16(std::ldexp(1.0f, -26)), 0x0000u);
    EXPECT_EQ(half::f32ToF16(-std::ldexp(1.0f, -26)), 0x8000u);
    // Above the f16 range overflows to inf under RNE.
    EXPECT_EQ(half::f32ToF16(65520.0f), 0x7c00u);
    EXPECT_EQ(half::f32ToF16(1.0e6f), 0x7c00u);
    EXPECT_TRUE(std::isnan(half::f16ToF32(half::f32ToF16(
        std::numeric_limits<float>::quiet_NaN()))));
}

TEST(HalfConvert, EncodeDecodeIdempotentOverAllPayloads)
{
    // decode is exact, so encode(decode(h)) == h for every non-NaN
    // 16-bit pattern — both formats. This is what makes mixed
    // hardware/software decode paths interchangeable.
    for (std::uint32_t h = 0; h < 0x10000u; ++h) {
        const auto u = std::uint16_t(h);
        const bool f16Nan = (h & 0x7c00u) == 0x7c00u && (h & 0x03ffu);
        if (!f16Nan) {
            ASSERT_EQ(half::f32ToF16(half::f16ToF32(u)), u) << h;
        }
        const bool bfNan = (h & 0x7f80u) == 0x7f80u && (h & 0x007fu);
        if (!bfNan) {
            ASSERT_EQ(half::f32ToBf16(half::bf16ToF32(u)), u) << h;
        }
    }
}

// ------------------------------------------------- Zero-mask kernels

TEST(PanelZeroMask, DetectsExactZeroLaneSets)
{
    ExecScope guard(fp32Dense);
    const int entries = 36; // F(4,3) alpha^2 — exercises >32 bits
    std::vector<float> x(std::size_t(entries) * mk::kTilePanel, 0.0f);
    // Entry 3: one nonzero lane. Entry 35: -0.0 everywhere (still
    // "zero" — negative zero products are exact zeros too).
    x[3 * mk::kTilePanel + 7] = 1.0e-30f;
    for (int l = 0; l < mk::kTilePanel; ++l)
        x[35 * mk::kTilePanel + l] = -0.0f;

    for (mk::Isa isa : {mk::Isa::Scalar, mk::Isa::Auto}) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        const std::uint64_t m = K.panelZeroMask(
            x.data(), mk::kTilePanel, entries, mk::kTilePanel);
        for (int e = 0; e < entries; ++e)
            EXPECT_EQ((m >> e) & 1u, e == 3 ? 0u : 1u)
                << "entry " << e << " isa " << int(isa);

        // Ragged panel: only cnt lanes are inspected, so entry 3 with
        // its nonzero at lane 7 reads all-zero when cnt <= 7.
        const std::uint64_t r = K.panelZeroMask(
            x.data(), mk::kTilePanel, entries, 5);
        EXPECT_EQ((r >> 3) & 1u, 1u);
    }
}

TEST(PanelZeroMask, HalfVariantTreatsSignedZeroAsZero)
{
    ExecScope guard(fp32Dense);
    const int entries = 16;
    std::vector<std::uint16_t> x(std::size_t(entries) * mk::kTilePanel,
                                 0x0000u);
    x[0 * mk::kTilePanel + 1] = 0x8000u; // -0.0 in both formats
    x[5 * mk::kTilePanel + 0] = 0x3c00u; // 1.0 (f16)

    for (mk::Isa isa : {mk::Isa::Scalar, mk::Isa::Auto}) {
        ScopedExecConfig isaScope(withIsa(isa));
        const std::uint64_t m = mk::kernels().panelZeroMaskHalf(
            x.data(), mk::kTilePanel, entries, mk::kTilePanel);
        EXPECT_EQ((m >> 0) & 1u, 1u) << int(isa);
        EXPECT_EQ((m >> 5) & 1u, 0u) << int(isa);
        for (int e = 6; e < entries; ++e)
            EXPECT_EQ((m >> e) & 1u, 1u);
    }
}

TEST(ActMaskUnit, OrPanelBitsCrossesWordBoundaries)
{
    // alpha = 6 -> 36 uv bits per panel: panel 1 starts at bit 36, so
    // its run spills from word 0 into word 1 — the spill path.
    ActMask m;
    m.reshape(36, 2, 1, 40); // 40 tiles -> 3 panels of 16
    EXPECT_EQ(m.panels(), 3);
    m.clear();
    m.orPanelBits(1, 0, 1, (std::uint64_t(1) << 35) | 1u);
    EXPECT_TRUE(m.panelZero(0, 1, 0, 1));
    EXPECT_TRUE(m.panelZero(35, 1, 0, 1));
    EXPECT_FALSE(m.panelZero(1, 1, 0, 1));
    // Other planes and panels untouched.
    EXPECT_FALSE(m.panelZero(0, 0, 0, 1));
    EXPECT_FALSE(m.panelZero(0, 1, 0, 0));
    m.clear();
    EXPECT_FALSE(m.panelZero(0, 1, 0, 1));
}

TEST(ActMaskUnit, RowRangeZeroIsConservative)
{
    // 1 image, 40 tiles: flat row = 40 elements, panels of 16.
    ActMask m;
    m.reshape(4, 1, 1, 40);
    m.clear();
    // Nothing marked: no range is skippable.
    EXPECT_FALSE(m.rowRangeZero(2, 0, 0, 40));
    // Mark panels 0 and 2 zero for uv=2; panel 1 stays live.
    m.orPanelBits(0, 0, 0, std::uint64_t(1) << 2);
    m.orPanelBits(0, 0, 2, std::uint64_t(1) << 2);
    EXPECT_TRUE(m.rowRangeZero(2, 0, 0, 16));   // exactly panel 0
    EXPECT_TRUE(m.rowRangeZero(2, 0, 0, 10));   // inside panel 0
    EXPECT_FALSE(m.rowRangeZero(2, 0, 0, 17));  // touches panel 1
    EXPECT_FALSE(m.rowRangeZero(2, 0, 16, 16)); // panel 1 itself
    EXPECT_TRUE(m.rowRangeZero(2, 0, 32, 8));   // tail panel
    EXPECT_FALSE(m.rowRangeZero(3, 0, 0, 16));  // other uv untouched
}

// ------------------------------------------ Bitwise sparse execution

struct SparseCase
{
    int batch, in_ch, out_ch, h, w, m;
};

class SparseParityP : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseParityP, SparseForwardBitwiseEqualsDense)
{
    ExecScope guard(fp32Dense);
    const auto p = GetParam();
    const WinogradAlgo algo = makeWinograd(p.m, 3);
    Rng rng(515);
    Tensor x = reluSparseInput(p.batch, p.in_ch, p.h, p.w, rng);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    dy.fillUniform(rng);
    const WinoWeights W =
        prunedWeights(p.out_ch, p.in_ch, 3, algo, 0.6, rng);

    for (mk::Isa isa : {mk::Isa::Scalar, mk::Isa::Auto}) {
        ScopedExecConfig isaScope(withIsa(isa));
        for (int threads : {1, 8}) {
            ThreadPool::global().setThreadCount(threads);

            // Dense fp32 reference under the same ISA/thread setting.
            ScopedExecConfig denseScope(withSparse(false));
            WinoPlan dense(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
            Tensor y_ref(p.batch, p.out_ch, p.h, p.w);
            Tensor dx_ref(p.batch, p.in_ch, p.h, p.w);
            WinoWeights dW_ref(algo.alpha, p.out_ch, p.in_ch);
            dense.forwardInto(x, W, y_ref);
            dense.backwardDataInto(dy, W, dx_ref);
            dense.gradWeightsInto(x, dy, dW_ref);
            Tensor yf_ref(p.batch, p.out_ch, p.h, p.w);
            dense.forwardFusedInto(x, W, yf_ref);

            ScopedExecConfig sparseScope(withSparse(true));
            WinoPlan sparse(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
            EXPECT_TRUE(sparse.matches(algo, p.batch, p.in_ch,
                                       p.out_ch, p.h, p.w));
            // The dense plan no longer matches once the config
            // changed — pools must rebuild, never alias.
            EXPECT_FALSE(dense.matches(algo, p.batch, p.in_ch,
                                       p.out_ch, p.h, p.w));
            Tensor y(p.batch, p.out_ch, p.h, p.w);
            Tensor dx(p.batch, p.in_ch, p.h, p.w);
            WinoWeights dW(algo.alpha, p.out_ch, p.in_ch);
            // Twice: the second pass runs on dirty slabs and a dirty
            // (rebuilt) activation mask.
            for (int pass = 0; pass < 2; ++pass) {
                sparse.forwardInto(x, W, y);
                sparse.backwardDataInto(dy, W, dx);
                sparse.gradWeightsInto(x, dy, dW);
                EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f)
                    << "isa " << int(isa) << " threads " << threads;
                EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
                EXPECT_EQ(dW.maxAbsDiff(dW_ref), 0.0f);
            }
            Tensor yf(p.batch, p.out_ch, p.h, p.w);
            sparse.forwardFusedInto(x, W, yf);
            EXPECT_EQ(yf.maxAbsDiff(yf_ref), 0.0f) << "fused";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SparseParityP,
    ::testing::Values(
        SparseCase{1, 1, 1, 3, 3, 2},   // single ragged tile
        SparseCase{2, 3, 4, 9, 7, 2},   // ragged grid
        SparseCase{2, 4, 3, 12, 12, 4}, // F(4,3), even grid
        SparseCase{1, 5, 2, 18, 10, 6}),// F(6,3), alpha^2 = 64 bits
    [](const ::testing::TestParamInfo<SparseCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "c" +
               std::to_string(p.in_ch) + "k" + std::to_string(p.out_ch) +
               "h" + std::to_string(p.h) + "w" + std::to_string(p.w) +
               "F" + std::to_string(p.m);
    });

TEST(SparseExec, AllZeroInputYieldsExactZeroOutput)
{
    ExecScope guard(fp32Dense);
    ScopedExecConfig sparse(withSparse(true));
    const WinogradAlgo algo = makeWinograd(4, 3);
    Rng rng(77);
    Tensor x(2, 3, 10, 10); // zeros: every panel is skippable
    const WinoWeights W = prunedWeights(4, 3, 3, algo, 0.0, rng);
    WinoPlan plan(algo, 2, 3, 4, 10, 10);
    Tensor y(2, 4, 10, 10);
    plan.forwardInto(x, W, y);
    EXPECT_EQ(y.absMax(), 0.0f);
}

// --------------------------------------------- Half-precision bounds

class HalfPrecP : public ::testing::TestWithParam<SparseCase> {};

TEST_P(HalfPrecP, ForwardWithinDocumentedBoundsAndFusedBitwise)
{
    ExecScope guard(fp32Dense);
    const auto p = GetParam();
    const WinogradAlgo algo = makeWinograd(p.m, 3);
    Rng rng(909);
    Tensor x = reluSparseInput(p.batch, p.in_ch, p.h, p.w, rng);
    Tensor w(p.out_ch, p.in_ch, 3, 3);
    w.fillKaiming(rng);
    const WinoWeights W = transformWeights(w, algo);

    Tensor y_ref(p.batch, p.out_ch, p.h, p.w);
    {
        WinoPlan dense(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
        dense.forwardInto(x, W, y_ref);
    }
    const float scale = std::max(1.0f, y_ref.absMax());

    // Storage-format relative error bounds, measured and rounded up
    // with ~3-4x headroom (documented in DESIGN.md §4.15): the 16-bit
    // rounding happens once, on the transformed activations, and the
    // inverse transform amplifies by a constant that grows with m
    // (F(4,3)'s inverse has larger entries than F(2,3)'s, hence the
    // per-m split). bf16 keeps 8 mantissa bits (eps 2^-8), f16 11
    // (eps 2^-11).
    struct Bound { Prec prec; float rel; };
    const float bf16Rel = p.m <= 2 ? 3e-2f : 1e-1f;
    const float f16Rel = p.m <= 2 ? 4e-3f : 1e-2f;
    for (Bound b : {Bound{Prec::Bf16, bf16Rel}, Bound{Prec::F16, f16Rel}}) {
        ScopedExecConfig precScope(withPrec(b.prec));
        // Half storage composes with sparse skipping; run both ways.
        for (bool sp : {false, true}) {
            ScopedExecConfig sparseScope(withSparse(sp));
            WinoPlan plan(algo, p.batch, p.in_ch, p.out_ch, p.h, p.w);
            Tensor y(p.batch, p.out_ch, p.h, p.w);
            plan.forwardInto(x, W, y);
            EXPECT_LT(y.maxAbsDiff(y_ref), b.rel * scale)
                << precName(b.prec) << " sparse=" << sp;
            // Same plan, fused: identical encode + fp32 accumulation
            // order per output element, so staged and fused agree
            // BITWISE even in 16-bit storage.
            Tensor yf(p.batch, p.out_ch, p.h, p.w);
            plan.forwardFusedInto(x, W, yf);
            EXPECT_EQ(yf.maxAbsDiff(y), 0.0f)
                << precName(b.prec) << " sparse=" << sp;
            // A half-policy forward does not populate the fp32 input
            // slab; training callers must re-scatter.
            EXPECT_FALSE(plan.inputCached());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HalfPrecP,
    ::testing::Values(SparseCase{2, 3, 4, 9, 7, 2},
                      SparseCase{2, 4, 3, 12, 12, 4}),
    [](const ::testing::TestParamInfo<SparseCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "c" +
               std::to_string(p.in_ch) + "F" + std::to_string(p.m);
    });

TEST(HalfPrec, TrainingThroughHalfForwardStillLearns)
{
    // The backward pass re-scatters the saved fp32 input, so training
    // with 16-bit forward storage follows the fp32 trajectory closely.
    ExecScope guard(fp32Dense);
    Rng rng_a(55), rng_b(55), data_rng(66);
    const auto &algo = algoF2x2_3x3();
    nn::ConvLayer ref(2, 3, 3, nn::ConvMode::WinogradLayer, algo, rng_a);
    nn::ConvLayer lp(2, 3, 3, nn::ConvMode::WinogradLayer, algo, rng_b);

    Tensor x(2, 2, 8, 8);
    x.fillUniform(data_rng);
    // One fixed upstream gradient for BOTH layers: the backward pass
    // consumes the saved fp32 input (not the 16-bit forward result),
    // so with identical dy the weight trajectories must stay bitwise
    // in lockstep — any forward-storage error shows up in y only.
    Tensor dy(2, 3, 8, 8);
    dy.fillUniform(data_rng);
    for (int step = 0; step < 4; ++step) {
        Tensor ya, yb;
        {
            ScopedExecConfig fp32(withPrec(Prec::F32));
            ya = ref.forward(x, true);
            ref.backward(dy);
            ref.step(0.05f);
        }
        {
            ScopedExecConfig bf16(withPrec(Prec::Bf16));
            yb = lp.forward(x, true);
            lp.backward(dy);
            lp.step(0.05f);
        }
        EXPECT_LT(ya.maxAbsDiff(yb),
                  3e-2f * std::max(1.0f, ya.absMax()))
            << "step " << step;
    }
    EXPECT_EQ(ref.winoWeights().maxAbsDiff(lp.winoWeights()), 0.0f);
}

// ------------------------------------------- Pruning through training

TEST(Pruning, PrunedCoefficientsStayExactlyZeroThroughSgd)
{
    ExecScope guard(fp32Dense);
    ScopedExecConfig sparse(withSparse(true));
    Rng rng(41), data_rng(42);
    const auto &algo = algoF2x2_3x3();
    nn::ConvLayer layer(3, 4, 3, nn::ConvMode::WinogradLayer, algo, rng);

    const double achieved = layer.pruneWinogradWeights(0.7);
    EXPECT_NEAR(achieved, 0.7, 0.01);
    const quant::PruneMask *mask = layer.winoPruneMask();
    ASSERT_NE(mask, nullptr);

    Tensor x(4, 3, 8, 8);
    for (int step = 0; step < 6; ++step) {
        x.fillUniform(data_rng);
        Tensor y = layer.forward(x, true);
        layer.backward(y);
        layer.step(0.05f);
    }

    const WinoWeights &W = layer.winoWeights();
    std::size_t live_moved = 0;
    for (int uv = 0; uv < W.uvCount(); ++uv)
        for (int j = 0; j < W.outChannels(); ++j)
            for (int i = 0; i < W.inChannels(); ++i) {
                if (mask->pruned(uv, j, i))
                    ASSERT_EQ(W.at(uv, j, i), 0.0f)
                        << uv << "," << j << "," << i;
                else if (W.at(uv, j, i) != 0.0f)
                    ++live_moved;
            }
    // The surviving coefficients actually trained, and the achieved
    // ratio (exact-count rounding of 0.7) held through every step.
    EXPECT_GT(live_moved, 0u);
    EXPECT_GE(quant::winogradWeightSparsity(W), achieved - 1e-12);
}

// ----------------------------------------------- Policy-keyed caches

TEST(PolicyKeys, PlanCacheNeverAliasesWeightsAcrossPolicies)
{
    ExecScope guard(fp32Dense);
    serve::PlanCache cache(std::size_t(1) << 30);
    const auto &algo = algoF2x2_3x3();
    Rng rng(7);
    Tensor w(4, 3, 3, 3);
    w.fillUniform(rng);
    const ConvSpec spec{"layer0", 8, 3, 4, 16, 16, 3};

    auto w32 = cache.transformedWeights(spec, w, algo);
    auto w32b = cache.transformedWeights(spec, w, algo);
    EXPECT_EQ(w32.get(), w32b.get()); // same policy -> shared slab

    {
        ScopedExecConfig bf16(withPrec(Prec::Bf16));
        auto wbf = cache.transformedWeights(spec, w, algo);
        EXPECT_NE(wbf.get(), w32.get()); // never alias across prec

        ScopedExecConfig sparse(withSparse(true));
        auto wbfsp = cache.transformedWeights(spec, w, algo);
        EXPECT_NE(wbfsp.get(), wbf.get());
    }

    auto w32c = cache.transformedWeights(spec, w, algo);
    EXPECT_EQ(w32c.get(), w32.get()); // back to the original entry
}

TEST(PolicyKeys, TunerMemoizesPerPolicy)
{
    ExecScope guard([](ExecConfig &c) {
        fp32Dense(c);
        c.tune = tune::TuneMode::Analytic;
    });
    tune::setTuneCachePath(nullptr);
    tune::resetTunerForTest();
    const ConvSpec spec{"conv", 8, 16, 16, 32, 32, 3};

    const tune::TunerStats s0 = tune::tunerStats();
    tune::selectAlgorithm(spec);
    tune::selectAlgorithm(spec);
    const tune::TunerStats s1 = tune::tunerStats();
    EXPECT_EQ(s1.memoHits, s0.memoHits + 1);

    // A different precision is a different key: full selection again,
    // no memo hit.
    ScopedExecConfig bf16(withPrec(Prec::Bf16));
    tune::selectAlgorithm(spec);
    const tune::TunerStats s2 = tune::tunerStats();
    EXPECT_EQ(s2.memoHits, s1.memoHits);
    EXPECT_EQ(s2.selects, s1.selects + 1);
    // And it memoizes under its own key.
    tune::selectAlgorithm(spec);
    EXPECT_EQ(tune::tunerStats().memoHits, s1.memoHits + 1);
    tune::resetTunerForTest();
}

TEST(PolicyKeys, CostModelChargesPolicyAdjustments)
{
    ExecScope guard(fp32Dense);
    const ConvSpec spec{"conv", 8, 32, 32, 32, 32, 3};
    tune::AlgoChoice wino;
    wino.kind = tune::AlgoKind::Winograd;
    wino.m = 4;

    const double base = tune::predictMs(spec, wino);

    // 16-bit activations shrink the DRAM term.
    {
        ScopedExecConfig bf16(withPrec(Prec::Bf16));
        EXPECT_LT(tune::predictMs(spec, wino), base);
    }

    // The sparse policy leaves the prediction unchanged.
    {
        ScopedExecConfig sparse(withSparse(true));
        EXPECT_DOUBLE_EQ(tune::predictMs(spec, wino), base);
    }
    EXPECT_DOUBLE_EQ(tune::predictMs(spec, wino), base);
}

// ----------------------------------------------------- Traffic

TEST(HalfPrec, Bf16MovesMeasurablyFewerBytesThanFp32)
{
    // The PR's traffic acceptance gate: wino.staged.fwd.bytes_moved
    // counts the X-tile stream at its storage width, so bf16 must
    // report strictly fewer bytes than fp32 for one identical forward.
    ExecScope guard(fp32Dense);
    const WinogradAlgo algo = makeWinograd(4, 3);
    const int B = 2, C = 8, K = 8, H = 24;
    Rng rng(11);
    Tensor x(B, C, H, H);
    x.fillUniform(rng);
    Tensor w(K, C, 3, 3);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);
    Tensor y(B, K, H, H);

    const bool wasEnabled = metrics::enabled();
    auto measuredBytes = [&]() {
        metrics::setEnabled(true);
        metrics::reset();
        WinoPlan plan(algo, B, C, K, H, H);
        plan.forwardInto(x, W, y);
        double bytes = 0;
        for (const auto &s : metrics::snapshot())
            if (s.name == "wino.staged.fwd.bytes_moved")
                bytes = s.value;
        metrics::reset();
        return bytes;
    };

    const double b32 = measuredBytes();
    double b16 = 0;
    {
        ScopedExecConfig bf16(withPrec(Prec::Bf16));
        b16 = measuredBytes();
    }
    metrics::setEnabled(wasEnabled);

    ASSERT_GT(b32, 0.0);
    ASSERT_GT(b16, 0.0);
    EXPECT_LT(b16, b32);
    // The saving is exactly the X-slab halving: two streams touch the
    // slab (transform write, elementwise read), 2 bytes saved per
    // element each.
    const double xSlabElems =
        double(algo.alpha) * algo.alpha *
        TileGrid(H, H, algo).tiles() * B * C;
    EXPECT_NEAR(b32 - b16, 2.0 * xSlabElems * 2.0, 1.0);
}

} // namespace
} // namespace winomc
