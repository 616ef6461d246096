/**
 * @file
 * Tests for the Winograd transform generator and convolution kernels:
 * exact-rational Toom-Cook generation, equivalence with direct
 * convolution, adjoint/gradient correctness, and the cost model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/conv1d.hh"
#include "winograd/cost.hh"
#include "winograd/rational.hh"
#include "winograd/toom_cook.hh"

#include "ew_forms.hh"
#include "exec_scope.hh"

namespace winomc {

using test::elementwiseGradWeights;
using test::transformInput;
using test::transformInputAdjoint;
using test::inverseTransform;
using test::inverseTransformAdjoint;
using test::transformWeightsAdjoint;
using test::winogradForward;
using test::winogradBackwardData;
using test::winogradGradWeights;

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
const test::Fp32Pin fp32Pin;

namespace {

// ---------------------------------------------------------------- Rational

TEST(Rational, Arithmetic)
{
    Rational a(1, 2), b(1, 3);
    EXPECT_EQ((a + b), Rational(5, 6));
    EXPECT_EQ((a - b), Rational(1, 6));
    EXPECT_EQ((a * b), Rational(1, 6));
    EXPECT_EQ((a / b), Rational(3, 2));
    EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(Rational, NormalizesSignAndGcd)
{
    EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
    EXPECT_EQ(Rational(6, 3), Rational(2));
    EXPECT_EQ(Rational(0, 7), Rational(0));
    EXPECT_DOUBLE_EQ(Rational(-3, 4).toDouble(), -0.75);
}

TEST(Rational, LargeIntermediatesStayExact)
{
    // Lagrange denominators with points up to +-4.
    Rational d(1);
    for (int k = -4; k <= 4; ++k)
        if (k != 3)
            d *= Rational(3 - k);
    Rational r = Rational(1) / d;
    EXPECT_EQ((r * d), Rational(1));
}

// --------------------------------------------------------------- ToomCook

TEST(ToomCook, DefaultPointSequence)
{
    auto pts = defaultPoints(5);
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_EQ(pts[0], Rational(0));
    EXPECT_EQ(pts[1], Rational(1));
    EXPECT_EQ(pts[2], Rational(-1));
    EXPECT_EQ(pts[3], Rational(2));
    EXPECT_EQ(pts[4], Rational(-2));
}

TEST(ToomCook, F23MatchesHandDerivedMatrices)
{
    // Hand-verified in the derivation notes: points {0, 1, -1} + inf.
    auto tc = generateToomCook(2, 3);
    Matrix BT = toMatrix(tc.BT);
    Matrix expect_bt{{1, 0, -1, 0},
                     {0, 0.5, 0.5, 0},
                     {0, -0.5, 0.5, 0},
                     {0, -1, 0, 1}};
    EXPECT_LT(BT.maxAbsDiff(expect_bt), 1e-12);

    Matrix G = toMatrix(tc.G);
    Matrix expect_g{{1, 0, 0}, {1, 1, 1}, {1, -1, 1}, {0, 0, 1}};
    EXPECT_LT(G.maxAbsDiff(expect_g), 1e-12);

    Matrix AT = toMatrix(tc.AT);
    Matrix expect_at{{1, 1, 1, 0}, {0, 1, -1, 1}};
    EXPECT_LT(AT.maxAbsDiff(expect_at), 1e-12);
}

/// 1D filtering check straight from the bilinear form:
/// y = A^T [(G w) (.) (B^T x)] must equal valid correlation.
void
check1dFiltering(int m, int r, uint64_t seed)
{
    auto tc = generateToomCook(m, r);
    Matrix BT = toMatrix(tc.BT);
    Matrix G = toMatrix(tc.G);
    Matrix AT = toMatrix(tc.AT);
    const int alpha = tc.alpha;

    Rng rng(seed);
    std::vector<double> x(size_t(alpha), 0.0), w(size_t(r), 0.0);
    for (auto &v : x)
        v = rng.uniform(-2, 2);
    for (auto &v : w)
        v = rng.uniform(-2, 2);

    std::vector<double> gx(size_t(alpha), 0), gw(size_t(alpha), 0);
    for (int i = 0; i < alpha; ++i)
        for (int j = 0; j < alpha; ++j)
            gx[size_t(i)] += BT.at(i, j) * x[size_t(j)];
    for (int i = 0; i < alpha; ++i)
        for (int j = 0; j < r; ++j)
            gw[size_t(i)] += G.at(i, j) * w[size_t(j)];

    for (int o = 0; o < m; ++o) {
        double y = 0;
        for (int i = 0; i < alpha; ++i)
            y += AT.at(o, i) * gx[size_t(i)] * gw[size_t(i)];
        double ref = 0;
        for (int k = 0; k < r; ++k)
            ref += w[size_t(k)] * x[size_t(o + k)];
        EXPECT_NEAR(y, ref, 1e-9)
            << "F(" << m << "," << r << ") output " << o;
    }
}

struct MR
{
    int m, r;
};

class ToomCookFilterP : public ::testing::TestWithParam<MR> {};

TEST_P(ToomCookFilterP, ComputesValidCorrelation)
{
    for (uint64_t seed = 1; seed <= 20; ++seed)
        check1dFiltering(GetParam().m, GetParam().r, seed);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ToomCookFilterP,
    ::testing::Values(MR{2, 3}, MR{4, 3}, MR{2, 5}, MR{3, 3}, MR{6, 3},
                      MR{4, 5}, MR{1, 3}, MR{2, 2}, MR{5, 5}),
    [](const ::testing::TestParamInfo<MR> &info) {
        return "F" + std::to_string(info.param.m) + "_" +
               std::to_string(info.param.r);
    });

// ------------------------------------------------------------------- Algo

TEST(Algo, PresetDimensions)
{
    const auto &a = algoF2x2_3x3();
    EXPECT_EQ(a.m, 2);
    EXPECT_EQ(a.r, 3);
    EXPECT_EQ(a.alpha, 4);
    EXPECT_EQ(a.BT.rows(), 4);
    EXPECT_EQ(a.G.rows(), 4);
    EXPECT_EQ(a.G.cols(), 3);
    EXPECT_EQ(a.AT.rows(), 2);

    const auto &b = algoF4x4_3x3();
    EXPECT_EQ(b.alpha, 6);
    const auto &c = algoF2x2_5x5();
    EXPECT_EQ(c.alpha, 6);
    EXPECT_EQ(c.r, 5);
}

// ----------------------------------------------------- Convolution kernels

struct ConvCase
{
    int batch, in_ch, out_ch, h, w, m, r;
};

class WinogradConvP : public ::testing::TestWithParam<ConvCase> {};

TEST_P(WinogradConvP, ForwardMatchesDirect)
{
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(42);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.r, p.r);
    x.fillUniform(rng);
    w.fillUniform(rng);

    Tensor ref = directConvForward(x, w);
    WinoWeights W = transformWeights(w, algo);
    Tensor got = winogradForward(x, W, algo);

    ASSERT_TRUE(got.sameShape(ref));
    EXPECT_LT(got.maxAbsDiff(ref), 1e-3f * std::max(1.0f, ref.absMax()));
}

TEST_P(WinogradConvP, BackwardDataMatchesDirect)
{
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(43);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.r, p.r);
    dy.fillUniform(rng);
    w.fillUniform(rng);

    Tensor ref = directConvBackwardData(dy, w);
    WinoWeights W = transformWeights(w, algo);
    Tensor got = winogradBackwardData(dy, W, algo, p.h, p.w);

    ASSERT_TRUE(got.sameShape(ref));
    EXPECT_LT(got.maxAbsDiff(ref), 1e-3f * std::max(1.0f, ref.absMax()));
}

TEST_P(WinogradConvP, SpatialWeightGradientMatchesDirect)
{
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(44);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor dy(p.batch, p.out_ch, p.h, p.w);
    x.fillUniform(rng);
    dy.fillUniform(rng);

    Tensor ref = directConvGradWeights(x, dy, p.r);
    // Winograd-domain gradient mapped back through the weight-transform
    // adjoint must equal the spatial gradient (chain rule through
    // W = G w G^T).
    WinoWeights dW = winogradGradWeights(x, dy, algo);
    Tensor got = transformWeightsAdjoint(dW, algo);

    ASSERT_TRUE(got.sameShape(ref));
    float scale = std::max(1.0f, ref.absMax());
    EXPECT_LT(got.maxAbsDiff(ref), 2e-3f * scale);
}

INSTANTIATE_TEST_SUITE_P(Shapes, WinogradConvP,
    ::testing::Values(
        ConvCase{1, 1, 1, 4, 4, 2, 3},    // one tile, F(2x2,3x3)
        ConvCase{1, 1, 1, 5, 7, 2, 3},    // boundary crop
        ConvCase{2, 3, 4, 8, 8, 2, 3},
        ConvCase{2, 3, 4, 9, 10, 2, 3},   // ragged tiles
        ConvCase{1, 2, 2, 12, 12, 4, 3},  // F(4x4,3x3)
        ConvCase{2, 3, 2, 13, 9, 4, 3},
        ConvCase{1, 2, 3, 10, 10, 2, 5},  // F(2x2,5x5)
        ConvCase{2, 2, 2, 7, 11, 2, 5},
        ConvCase{1, 1, 1, 6, 6, 3, 3},    // F(3x3,3x3)
        ConvCase{1, 4, 1, 6, 6, 1, 3}),   // m=1 degenerate
    [](const ::testing::TestParamInfo<ConvCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "i" +
               std::to_string(p.in_ch) + "j" + std::to_string(p.out_ch) +
               "h" + std::to_string(p.h) + "w" + std::to_string(p.w) +
               "F" + std::to_string(p.m) + "r" + std::to_string(p.r);
    });

// The same-padded direct kernels bind an odd square filter; a kernel
// they would read only partly must abort, not run.
TEST(DirectConvDeathTest, BackwardDataRejectsNonSquareKernel)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Tensor dy(1, 2, 6, 6);
    Tensor w(2, 3, 3, 5);
    EXPECT_DEATH(directConvBackwardData(dy, w), "odd square");
}

TEST(DirectConvDeathTest, GradWeightsRejectsEvenKernel)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Tensor x(1, 3, 6, 6);
    Tensor dy(1, 2, 6, 6);
    EXPECT_DEATH(directConvGradWeights(x, dy, 4), "odd filter size");
}

/// Numerical gradient check of the Winograd *layer*: parameters are the
/// Winograd-domain weights W; loss L = 0.5 * ||y||^2.
TEST(WinogradLayerGrad, MatchesNumericalGradient)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(7);
    const int B = 1, I = 2, J = 2, H = 4, Wd = 4;
    Tensor x(B, I, H, Wd);
    x.fillUniform(rng);
    Tensor w(J, I, 3, 3);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);

    // Analytic: dL/dW = gradWeights(x, dy) with dy = y.
    Tensor y = winogradForward(x, W, algo);
    WinoTiles X = transformInput(x, algo);
    WinoTiles dY = inverseTransformAdjoint(y, algo);
    WinoWeights dW = elementwiseGradWeights(dY, X);

    auto loss = [&](const WinoWeights &Wt) {
        Tensor yy = winogradForward(x, Wt, algo);
        double l = 0;
        for (int b = 0; b < B; ++b)
            for (int j = 0; j < J; ++j)
                for (int r = 0; r < H; ++r)
                    for (int c = 0; c < Wd; ++c)
                        l += 0.5 * double(yy.at(b, j, r, c)) *
                             yy.at(b, j, r, c);
        return l;
    };

    const float eps = 1e-3f;
    for (int uv = 0; uv < algo.tileElems(); uv += 3) {
        for (int j = 0; j < J; ++j) {
            for (int i = 0; i < I; ++i) {
                WinoWeights Wp = W, Wm = W;
                Wp.at(uv, j, i) += eps;
                Wm.at(uv, j, i) -= eps;
                double num = (loss(Wp) - loss(Wm)) / (2.0 * eps);
                EXPECT_NEAR(num, double(dW.at(uv, j, i)),
                            2e-2 * std::max(1.0, std::abs(num)))
                    << "uv=" << uv << " j=" << j << " i=" << i;
            }
        }
    }
}

/// Gradient check w.r.t. the *input* through the full pipeline.
TEST(WinogradInputGrad, MatchesNumericalGradient)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(8);
    const int B = 1, I = 2, J = 2, H = 6, Wd = 5;
    Tensor x(B, I, H, Wd);
    x.fillUniform(rng);
    Tensor w(J, I, 3, 3);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);

    Tensor y = winogradForward(x, W, algo);
    Tensor dx = winogradBackwardData(y, W, algo, H, Wd);

    auto loss = [&](const Tensor &xt) {
        Tensor yy = winogradForward(xt, W, algo);
        double l = 0;
        for (int b = 0; b < B; ++b)
            for (int j = 0; j < J; ++j)
                for (int r = 0; r < H; ++r)
                    for (int c = 0; c < Wd; ++c)
                        l += 0.5 * double(yy.at(b, j, r, c)) *
                             yy.at(b, j, r, c);
        return l;
    };

    const float eps = 1e-3f;
    for (int i = 0; i < I; ++i) {
        for (int r = 0; r < H; r += 2) {
            for (int c = 0; c < Wd; c += 2) {
                Tensor xp = x, xm = x;
                xp.at(0, i, r, c) += eps;
                xm.at(0, i, r, c) -= eps;
                double num = (loss(xp) - loss(xm)) / (2.0 * eps);
                EXPECT_NEAR(num, double(dx.at(0, i, r, c)),
                            2e-2 * std::max(1.0, std::abs(num)));
            }
        }
    }
}

/// Transform adjoint property: <T(x), y> == <x, T*(y)> for random x, y.
TEST(Adjoints, InputTransformAdjointProperty)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(9);
    const int B = 2, C = 2, H = 6, Wd = 6;
    Tensor x(B, C, H, Wd);
    x.fillUniform(rng);
    WinoTiles X = transformInput(x, algo);

    WinoTiles Yr(X.alphaEdge(), C, B, X.tiles());
    for (int uv = 0; uv < X.uvCount(); ++uv)
        for (int c = 0; c < C; ++c)
            for (int b = 0; b < B; ++b)
                for (int t = 0; t < X.tiles(); ++t)
                    Yr.at(uv, c, b, t) = float(rng.uniform(-1, 1));

    double lhs = 0;
    for (int uv = 0; uv < X.uvCount(); ++uv)
        for (int c = 0; c < C; ++c)
            for (int b = 0; b < B; ++b)
                for (int t = 0; t < X.tiles(); ++t)
                    lhs += double(X.at(uv, c, b, t)) * Yr.at(uv, c, b, t);

    Tensor xa = transformInputAdjoint(Yr, algo, H, Wd);
    double rhs = 0;
    for (int b = 0; b < B; ++b)
        for (int c = 0; c < C; ++c)
            for (int r = 0; r < H; ++r)
                for (int cc = 0; cc < Wd; ++cc)
                    rhs += double(x.at(b, c, r, cc)) * xa.at(b, c, r, cc);

    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

/// The modified join of Section VII-A: joining (mean) in the Winograd
/// domain equals joining after the inverse transform, because the
/// inverse transform is linear - the identity that lets FractalNet's
/// join skip one tile gather per branch.
TEST(WinogradDomainJoin, CommutesWithInverseTransform)
{
    WinogradAlgo algo = makeWinograd(2, 3);
    Rng rng(99);
    const int B = 2, C = 3, H = 9, Wd = 7;
    Tensor xa(B, C, H, Wd), xb(B, C, H, Wd), xc(B, C, H, Wd);
    xa.fillUniform(rng);
    xb.fillUniform(rng);
    xc.fillUniform(rng);

    WinoTiles A = transformInput(xa, algo);
    WinoTiles Bt = transformInput(xb, algo);
    WinoTiles Ct = transformInput(xc, algo);

    // Winograd-domain join, then one inverse transform.
    WinoTiles joined = tileMean({&A, &Bt, &Ct});
    Tensor wino_path = inverseTransform(joined, algo, H, Wd);

    // Spatial join of three separately inverse-transformed branches.
    Tensor sa = inverseTransform(A, algo, H, Wd);
    Tensor sb = inverseTransform(Bt, algo, H, Wd);
    Tensor sc = inverseTransform(Ct, algo, H, Wd);
    sa += sb;
    sa += sc;
    sa *= 1.0f / 3.0f;

    EXPECT_LT(wino_path.maxAbsDiff(sa), 1e-5f);
}

// ------------------------------------------------------- 1D convolution

struct Conv1dCase
{
    int batch, in_ch, out_ch, h, w, m, r;
};

class Winograd1dP : public ::testing::TestWithParam<Conv1dCase> {};

TEST_P(Winograd1dP, MatchesDirect1d)
{
    const auto p = GetParam();
    WinogradAlgo algo = makeWinograd(p.m, p.r);
    Rng rng(77);
    Tensor x(p.batch, p.in_ch, p.h, p.w);
    Tensor w(p.out_ch, p.in_ch, p.r, 1);
    x.fillUniform(rng);
    w.fillUniform(rng);

    Tensor ref = directConv1dForward(x, w);
    Tensor got = winograd1dForward(x, w, algo);
    ASSERT_TRUE(got.sameShape(ref));
    EXPECT_LT(got.maxAbsDiff(ref), 1e-4f * std::max(1.0f, ref.absMax()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, Winograd1dP,
    ::testing::Values(
        Conv1dCase{1, 1, 1, 4, 3, 2, 3},   // F(2,3): the 4x1 tile of
                                           // Section VII-B
        Conv1dCase{2, 3, 4, 9, 5, 2, 3},   // ragged rows
        Conv1dCase{1, 2, 2, 12, 4, 4, 3},  // F(4,3) 1D
        Conv1dCase{2, 2, 3, 11, 3, 2, 5}), // F(2,5) 1D
    [](const ::testing::TestParamInfo<Conv1dCase> &info) {
        const auto &p = info.param;
        return "b" + std::to_string(p.batch) + "h" + std::to_string(p.h) +
               "F" + std::to_string(p.m) + "r" + std::to_string(p.r);
    });

TEST(Winograd1d, SingleTapIdentity)
{
    // r=1 degenerates: F(m,1) convolution is a per-channel scale.
    WinogradAlgo algo = makeWinograd(2, 1);
    Rng rng(5);
    Tensor x(1, 1, 6, 3);
    x.fillUniform(rng);
    Tensor w(1, 1, 1, 1);
    w.at(0, 0, 0, 0) = 2.5f;
    Tensor y = winograd1dForward(x, w, algo);
    for (int i = 0; i < 6; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(y.at(0, 0, i, j), 2.5f * x.at(0, 0, i, j), 1e-5f);
}

// ------------------------------------------------------------- Cost model

TEST(CostModel, WinogradReducesComputeButInflatesAccesses)
{
    // A mid-network layer; the Figure 1 claim.
    ConvSpec spec{"mid", 256, 128, 128, 28, 28, 3};
    ConvCost d = directConvIterCost(spec);
    ConvCost w = winogradConvIterCost(spec, algoF4x4_3x3());

    double compute_ratio = double(d.mults) / double(w.mults);
    double access_ratio = double(w.dramBytes()) / double(d.dramBytes());
    EXPECT_GT(compute_ratio, 1.8);
    EXPECT_LT(compute_ratio, 5.0);
    EXPECT_GT(access_ratio, 2.0);
    EXPECT_LT(access_ratio, 8.0);
}

TEST(CostModel, PhasesSumToIteration)
{
    ConvSpec spec{"x", 32, 16, 32, 14, 14, 3};
    ConvCost sum = directConvCost(spec, Phase::Fprop);
    sum += directConvCost(spec, Phase::Bprop);
    sum += directConvCost(spec, Phase::UpdateGrad);
    ConvCost it = directConvIterCost(spec);
    EXPECT_EQ(sum.mults, it.mults);
    EXPECT_EQ(sum.dramBytes(), it.dramBytes());
}

TEST(CostModel, DirectMacCountExact)
{
    ConvSpec spec{"x", 2, 3, 4, 8, 8, 3};
    ConvCost c = directConvCost(spec, Phase::Fprop);
    EXPECT_EQ(c.mults, uint64_t(2) * 3 * 4 * 8 * 8 * 9);
}

} // namespace
} // namespace winomc
