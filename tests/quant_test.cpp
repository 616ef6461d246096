/**
 * @file
 * Tests for the quantizer and activation predictor: bracket/monotonicity
 * properties of the non-uniform quantizer, the no-false-negative
 * guarantee of the conservative prediction (property-tested over random
 * Gaussian tiles), 1D-vs-2D predict accuracy ordering, and zero-skip
 * counting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "quant/predict.hh"
#include "quant/prune.hh"
#include "quant/quantizer.hh"
#include "quant/zero_skip.hh"
#include "winograd/conv.hh"

namespace winomc::quant {
namespace {

// -------------------------------------------------------------- Quantizer

struct QuantCfg
{
    int levels, regions;
};

class QuantizerP : public ::testing::TestWithParam<QuantCfg> {};

TEST_P(QuantizerP, FloorBracketHolds)
{
    const auto cfg = GetParam();
    NonUniformQuantizer qz(cfg.levels, cfg.regions, 1.0);
    Rng rng(101);
    for (int k = 0; k < 20000; ++k) {
        float v = float(rng.gaussian(0.0, 1.3));
        Quantized q = qz.quantize(v);
        if (q.overflow) {
            EXPECT_GE(std::fabs(v), float(qz.fullScale()) * 0.999f);
            continue;
        }
        // Floor semantics: q <= v < q + res.
        EXPECT_LE(q.q, v) << "v=" << v;
        EXPECT_LT(v, q.q + q.res + 1e-6f) << "v=" << v;
        EXPECT_GT(q.res, 0.0f);
    }
}

TEST_P(QuantizerP, EncodeDecodeRoundTrip)
{
    const auto cfg = GetParam();
    NonUniformQuantizer qz(cfg.levels, cfg.regions, 2.0);
    Rng rng(102);
    for (int k = 0; k < 5000; ++k) {
        float v = float(rng.uniform(-qz.fullScale(), qz.fullScale()));
        int code = qz.encode(v);
        Quantized direct = qz.quantize(v);
        Quantized via = qz.decode(code);
        EXPECT_FLOAT_EQ(direct.q, via.q);
        EXPECT_FLOAT_EQ(direct.res, via.res);
        EXPECT_EQ(direct.overflow, via.overflow);
    }
}

TEST_P(QuantizerP, CodesMonotoneInValue)
{
    const auto cfg = GetParam();
    NonUniformQuantizer qz(cfg.levels, cfg.regions, 1.0);
    double lo = -qz.fullScale() * 0.999, hi = qz.fullScale() * 0.999;
    int prev = qz.encode(float(lo));
    for (int k = 1; k <= 400; ++k) {
        float v = float(lo + (hi - lo) * k / 400.0);
        int code = qz.encode(v);
        EXPECT_GE(code, prev) << "v=" << v;
        prev = code;
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, QuantizerP,
    ::testing::Values(QuantCfg{64, 1}, QuantCfg{64, 2}, QuantCfg{64, 4},
                      QuantCfg{64, 8}, QuantCfg{32, 1}, QuantCfg{32, 4},
                      QuantCfg{16, 2}),
    [](const ::testing::TestParamInfo<QuantCfg> &info) {
        return winomc::detail::concatMessage("L", info.param.levels, "R",
                                             info.param.regions);
    });

TEST(Quantizer, StepDoublesAcrossRegions)
{
    NonUniformQuantizer qz(64, 4, 1.0);
    // 8 steps per region per side; step in region r is delta * 2^r.
    double delta = qz.baseStep();
    // Value inside region 0.
    Quantized a = qz.quantize(float(delta * 0.5));
    EXPECT_NEAR(a.res, delta, 1e-6);
    // Value inside region 1 (just past 8 * delta).
    Quantized b = qz.quantize(float(delta * 9.0));
    EXPECT_NEAR(b.res, 2.0 * delta, 1e-6);
    // Region 3.
    double region3_lo = delta * 8.0 * (1 + 2 + 4);
    Quantized c = qz.quantize(float(region3_lo * 1.01));
    EXPECT_NEAR(c.res, 8.0 * delta, 1e-6);
}

TEST(Quantizer, BitsAndUniformDegenerate)
{
    NonUniformQuantizer q64(64, 4, 1.0);
    EXPECT_EQ(q64.bits(), 6);
    NonUniformQuantizer q32(32, 4, 1.0);
    EXPECT_EQ(q32.bits(), 5);

    // regions=1 is uniform: every step has the same width.
    NonUniformQuantizer qu(32, 1, 1.0);
    Rng rng(5);
    float first_res = -1.0f;
    for (int k = 0; k < 100; ++k) {
        Quantized q = qu.quantize(float(rng.uniform(-3.9, 3.9)));
        if (q.overflow)
            continue;
        if (first_res < 0)
            first_res = q.res;
        EXPECT_FLOAT_EQ(q.res, first_res);
    }
}

TEST_P(QuantizerP, BracketsTileTheRange)
{
    // Consecutive codes cover contiguous, non-overlapping brackets:
    // decode(k).q + decode(k).res == decode(k+1).q across the range.
    const auto cfg = GetParam();
    NonUniformQuantizer qz(cfg.levels, cfg.regions, 1.0);
    for (int code = 0; code + 1 < qz.levels(); ++code) {
        Quantized a = qz.decode(code);
        Quantized b = qz.decode(code + 1);
        ASSERT_FALSE(a.overflow);
        ASSERT_FALSE(b.overflow);
        EXPECT_NEAR(a.q + a.res, b.q, 1e-5)
            << "code " << code << " of " << qz.levels();
    }
    // The full grid spans [-range, range).
    Quantized lo = qz.decode(0);
    Quantized hi = qz.decode(qz.levels() - 1);
    EXPECT_NEAR(lo.q, -qz.fullScale(), 1e-5);
    EXPECT_NEAR(hi.q + hi.res, qz.fullScale(), 1e-5);
}

TEST(Quantizer, OverflowFlagged)
{
    NonUniformQuantizer qz(64, 4, 1.0); // range = 4 sigma = 4
    EXPECT_TRUE(qz.quantize(4.5f).overflow);
    EXPECT_TRUE(qz.quantize(-4.5f).overflow);
    EXPECT_FALSE(qz.quantize(3.9f).overflow);
    EXPECT_FALSE(qz.quantize(-3.9f).overflow);
    EXPECT_FALSE(qz.quantize(0.0f).overflow);
}

// -------------------------------------------------------------- Predictor

/// Gaussian random tiles: the distribution the paper observes for
/// Winograd-domain values (Section V-A).
WinoTiles
randomTiles(const WinogradAlgo &algo, int channels, int batch, int tiles,
            double sigma, double mean, Rng &rng)
{
    WinoTiles Y(algo.alpha, channels, batch, tiles);
    for (int uv = 0; uv < Y.uvCount(); ++uv)
        for (int c = 0; c < channels; ++c)
            for (int b = 0; b < batch; ++b)
                for (int t = 0; t < tiles; ++t)
                    Y.at(uv, c, b, t) = float(rng.gaussian(mean, sigma));
    return Y;
}

struct PredCfg
{
    int levels, regions;
    PredictMode mode;
};

class PredictorP : public ::testing::TestWithParam<PredCfg> {};

TEST_P(PredictorP, NoFalseNegativesOnGaussianTiles)
{
    const auto cfg = GetParam();
    const WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(777);
    // Negative mean so a sizable fraction of tiles is genuinely dead.
    WinoTiles Y = randomTiles(algo, 4, 4, 64, 1.0, -0.3, rng);

    double sigma = ActivationPredictor::wireSigma(Y, algo, cfg.mode);
    NonUniformQuantizer qz(cfg.levels, cfg.regions, sigma);
    ActivationPredictor pred(algo, qz, cfg.mode);
    PredictStats st = pred.run(Y);

    EXPECT_EQ(st.falseNegatives, 0u) << "conservativeness violated";
    EXPECT_GT(st.tiles, 0u);
    // Prediction can never exceed the actual dead ratio.
    EXPECT_LE(st.tilesDeadPredicted, st.tilesDeadActual);
    EXPECT_LE(st.linesDeadPredicted, st.linesDeadActual);
}

INSTANTIATE_TEST_SUITE_P(Configs, PredictorP,
    ::testing::Values(PredCfg{64, 1, PredictMode::TwoD},
                      PredCfg{64, 4, PredictMode::TwoD},
                      PredCfg{64, 8, PredictMode::TwoD},
                      PredCfg{32, 4, PredictMode::OneD},
                      PredCfg{32, 1, PredictMode::OneD},
                      PredCfg{16, 4, PredictMode::TwoD}),
    [](const ::testing::TestParamInfo<PredCfg> &info) {
        return std::string(info.param.mode == PredictMode::TwoD ? "p2d"
                                                                : "p1d") +
               "L" + std::to_string(info.param.levels) + "R" +
               std::to_string(info.param.regions);
    });

TEST(Predictor, PerfectQuantizerPredictsExactly)
{
    // With absurdly fine quantization the prediction approaches the
    // real-value upper limit (the dotted line of Fig 12).
    const WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(31);
    WinoTiles Y = randomTiles(algo, 2, 2, 64, 1.0, -0.5, rng);

    double sigma = ActivationPredictor::wireSigma(Y, algo,
                                                  PredictMode::OneD);
    NonUniformQuantizer qz(4096, 4, sigma);
    ActivationPredictor pred(algo, qz, PredictMode::OneD);
    PredictStats st = pred.run(Y);

    EXPECT_EQ(st.falseNegatives, 0u);
    // Nearly all actually-dead tiles should be caught.
    EXPECT_GE(st.tilesDeadPredicted,
              uint64_t(0.9 * double(st.tilesDeadActual)));
}

TEST(Predictor, OneDPredictsAtLeastAsManyTilesAsTwoD)
{
    // 1D predict accumulates only one stage of quantization error, so
    // with the same level budget it should catch at least as many dead
    // tiles (the paper's observation, Section V-B).
    const WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(32);
    WinoTiles Y = randomTiles(algo, 4, 2, 128, 1.0, -0.4, rng);

    double s2 = ActivationPredictor::wireSigma(Y, algo, PredictMode::TwoD);
    double s1 = ActivationPredictor::wireSigma(Y, algo, PredictMode::OneD);
    ActivationPredictor p2(algo, NonUniformQuantizer(32, 4, s2),
                           PredictMode::TwoD);
    ActivationPredictor p1(algo, NonUniformQuantizer(32, 4, s1),
                           PredictMode::OneD);
    PredictStats st2 = p2.run(Y);
    PredictStats st1 = p1.run(Y);

    EXPECT_GE(st1.tilesDeadPredicted, st2.tilesDeadPredicted);
}

TEST(Predictor, AllNegativeTilePredictedDead)
{
    const WinogradAlgo algo = makeWinograd(2, 3);
    WinoTiles Y(algo.alpha, 1, 1, 1);
    // Only the DC-ish element set to a large negative value: spatial
    // neurons are all strongly negative.
    for (int uv = 0; uv < Y.uvCount(); ++uv)
        Y.at(uv, 0, 0, 0) = -3.0f;

    NonUniformQuantizer qz(64, 4, 1.0);
    ActivationPredictor pred(algo, qz, PredictMode::OneD);
    PredictStats st = pred.run(Y);
    EXPECT_EQ(st.tilesDeadActual, 1u);
    EXPECT_EQ(st.falseNegatives, 0u);
}

TEST(Predictor, OverflowNeverSkips)
{
    const WinogradAlgo algo = makeWinograd(2, 3);
    WinoTiles Y(algo.alpha, 1, 1, 1);
    for (int uv = 0; uv < Y.uvCount(); ++uv)
        Y.at(uv, 0, 0, 0) = -100.0f; // far outside 4-sigma of qz below

    NonUniformQuantizer qz(64, 4, 1.0);
    ActivationPredictor pred(algo, qz, PredictMode::TwoD);
    PredictStats st = pred.run(Y);
    EXPECT_EQ(st.overflowTiles, 1u);
    EXPECT_EQ(st.tilesDeadPredicted, 0u); // conservative: no skip
    EXPECT_EQ(st.tilesDeadActual, 1u);
    EXPECT_EQ(st.falseNegatives, 0u);
}

// -------------------------------------------------------------- Zero skip

TEST(ZeroSkip, AllZeroInputFullySkippable)
{
    const WinogradAlgo algo = makeWinograd(2, 3);
    Tensor x(1, 1, 8, 8); // zeros
    ZeroSkipStats st = zeroSkipScatter(x, algo, PredictMode::TwoD);
    EXPECT_EQ(st.zeros, st.elems);
    EXPECT_DOUBLE_EQ(st.ratio(), 1.0);
}

TEST(ZeroSkip, DenseInputMostlyUnskippable)
{
    const WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(8);
    Tensor x(1, 1, 8, 8);
    x.fillUniform(rng, 0.5f, 1.5f); // strictly positive, dense
    ZeroSkipStats st = zeroSkipScatter(x, algo, PredictMode::TwoD);
    EXPECT_LT(st.ratio(), 0.1);
}

TEST(ZeroSkip, SparsePostReluInputPartiallySkippable)
{
    const WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(9);
    Tensor x(2, 2, 16, 16);
    x.fillGaussian(rng);
    // Apply ReLU and zero whole patches to mimic post-pool sparsity.
    for (int b = 0; b < 2; ++b)
        for (int c = 0; c < 2; ++c)
            for (int i = 0; i < 16; ++i)
                for (int j = 0; j < 16; ++j) {
                    float &v = x.at(b, c, i, j);
                    if (v < 0.0f || (i / 4 + j / 4) % 2 == 0)
                        v = 0.0f;
                }
    ZeroSkipStats st2 = zeroSkipScatter(x, algo, PredictMode::TwoD);
    ZeroSkipStats st1 = zeroSkipScatter(x, algo, PredictMode::OneD);
    EXPECT_GT(st2.ratio(), 0.1);
    // The one-sided representation preserves more raw zeros.
    EXPECT_GE(st1.ratio(), st2.ratio());
}

// ------------------------------------------------------------- Pruning

TEST(Prune, MagnitudePrunePicksSmallestAndHitsExactCount)
{
    // Distinct magnitudes: the pruned set is exactly the smallest-|w|
    // fraction, with round(sparsity * size) members.
    WinoWeights w(4, 3, 5); // 16 * 3 * 5 = 240 coefficients
    float v = 1.0f;
    for (int uv = 0; uv < w.uvCount(); ++uv)
        for (int j = 0; j < w.outChannels(); ++j)
            for (int i = 0; i < w.inChannels(); ++i) {
                w.at(uv, j, i) = (((uv + j + i) % 2) ? v : -v) * 0.01f;
                v += 1.0f;
            }

    PruneMask mask = magnitudePrune(w, 0.4);
    EXPECT_EQ(mask.prunedCount(), std::size_t(96)); // 0.4 * 240
    EXPECT_DOUBLE_EQ(mask.sparsity(), 0.4);

    // Every pruned magnitude <= every kept magnitude.
    float max_pruned = 0.0f, min_kept = 1e30f;
    for (int uv = 0; uv < w.uvCount(); ++uv)
        for (int j = 0; j < w.outChannels(); ++j)
            for (int i = 0; i < w.inChannels(); ++i) {
                const float a = std::fabs(w.at(uv, j, i));
                if (mask.pruned(uv, j, i))
                    max_pruned = std::max(max_pruned, a);
                else
                    min_kept = std::min(min_kept, a);
            }
    EXPECT_LE(max_pruned, min_kept);

    mask.apply(w);
    EXPECT_DOUBLE_EQ(winogradWeightSparsity(w), 0.4);
    for (int uv = 0; uv < w.uvCount(); ++uv)
        for (int j = 0; j < w.outChannels(); ++j)
            for (int i = 0; i < w.inChannels(); ++i)
                if (mask.pruned(uv, j, i)) {
                    EXPECT_EQ(w.at(uv, j, i), 0.0f);
                }
}

TEST(Prune, ThresholdTiesResolveDeterministically)
{
    // All magnitudes equal: the target count must still be met
    // exactly, ties resolved in flat index order (so two runs always
    // produce the same mask).
    WinoWeights w(2, 4, 4);
    w.fill(0.5f);
    PruneMask a = magnitudePrune(w, 0.5);
    PruneMask b = magnitudePrune(w, 0.5);
    EXPECT_EQ(a.prunedCount(), w.size() / 2);
    for (int uv = 0; uv < w.uvCount(); ++uv)
        for (int j = 0; j < w.outChannels(); ++j)
            for (int i = 0; i < w.inChannels(); ++i)
                EXPECT_EQ(a.pruned(uv, j, i), b.pruned(uv, j, i));
}

TEST(Prune, SparsityExtremesAndClamping)
{
    WinoWeights w(2, 2, 3);
    w.fill(1.0f);
    EXPECT_EQ(magnitudePrune(w, 0.0).prunedCount(), 0u);
    EXPECT_EQ(magnitudePrune(w, -2.0).prunedCount(), 0u); // clamped
    EXPECT_EQ(magnitudePrune(w, 1.0).prunedCount(), w.size());
    EXPECT_EQ(magnitudePrune(w, 7.0).prunedCount(), w.size());
    EXPECT_DOUBLE_EQ(PruneMask().sparsity(), 0.0); // empty mask
}

} // namespace
} // namespace winomc::quant
