/**
 * @file
 * SIMD micro-kernel layer tests: runtime ISA dispatch (env seeding,
 * fallback ladder, garbage rejection), scalar-vs-vector numerical
 * parity at both the primitive and the full-pipeline level (odd
 * shapes exercising the masked tails), bitwise contracts (ReLU,
 * pairwise multiply, AvgPool2 row), and per-ISA bitwise invariance
 * across thread counts.
 *
 * The scalar table is the parity oracle: it is compiled with the same
 * flags as the legacy kernels it replaced, so "scalar == vector within
 * ULP bound" here transitively checks the vector paths against the
 * pre-dispatch numerics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"

#include "exec_scope.hh"

using namespace winomc;
using test::withIsa;

namespace {

std::vector<float>
randomVec(std::size_t n, unsigned seed, float lo = -1.0f,
          float hi = 1.0f)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = lo + (hi - lo) * rng.uniform();
    return v;
}

/** Every ISA level the dispatcher can actually deliver on this host:
 *  always Scalar, plus whatever resolveIsa() keeps of the others. */
std::vector<mk::Isa>
usableIsas()
{
    std::vector<mk::Isa> out = {mk::Isa::Scalar};
    for (mk::Isa isa :
         {mk::Isa::Sse2, mk::Isa::Avx2, mk::Isa::Avx512})
        if (mk::resolveIsa(isa) == isa)
            out.push_back(isa);
    return out;
}

/** Scopes the execution config and thread count of each test so test
 *  order cannot leak a pinned ISA into unrelated tests. */
class SimdTest : public ::testing::Test
{
  protected:
    test::ExecScope scope;
};

/** The config WINOMC_ISA=`value` seeds (every other knob unset). */
ExecConfig
seededWithIsa(const char *value)
{
    return parseExecConfig([value](const char *var) {
        return std::strcmp(var, "WINOMC_ISA") == 0 ? value : nullptr;
    });
}

// ------------------------------------------------------------------
// The fallback ladder
// ------------------------------------------------------------------

TEST_F(SimdTest, ResolveIsaNeverEscalatesAndScalarIsFixed)
{
    EXPECT_EQ(mk::resolveIsa(mk::Isa::Scalar), mk::Isa::Scalar);
    EXPECT_EQ(mk::resolveIsa(mk::Isa::Auto), mk::highestSupported());
    // A requested level either sticks or falls DOWN the ladder.
    for (mk::Isa isa :
         {mk::Isa::Sse2, mk::Isa::Avx2, mk::Isa::Avx512}) {
        mk::Isa got = mk::resolveIsa(isa);
        EXPECT_LE(int(got), int(isa));
    }
}

TEST_F(SimdTest, GarbageEnvValueFallsBackAndNeverCrashes)
{
    const ExecConfig cfg = seededWithIsa("definitely-not-an-isa");
    EXPECT_EQ(cfg.isa, mk::Isa::Auto);
    ScopedExecConfig seeded(cfg);
    const mk::MicroKernels &K = mk::kernels();
    EXPECT_EQ(K.isa, mk::highestSupported());
    EXPECT_EQ(mk::activeIsa(), mk::highestSupported());
    // And the kernels actually run.
    float y[3] = {1.0f, -2.0f, 3.0f};
    K.reluForward(y, nullptr, y, 3);
    EXPECT_EQ(y[1], 0.0f);
}

TEST_F(SimdTest, EnvScalarPinsScalarTable)
{
    ScopedExecConfig seeded(seededWithIsa("scalar"));
    EXPECT_EQ(mk::activeIsa(), mk::Isa::Scalar);
    EXPECT_STREQ(mk::kernels().name, "scalar");
}

TEST_F(SimdTest, EveryUsableTableIsFullyPopulated)
{
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        EXPECT_EQ(K.isa, isa);
        EXPECT_NE(K.name, nullptr);
        EXPECT_GE(K.floatLanes, 1);
        EXPECT_GE(K.doubleLanes, 1);
        EXPECT_NE(K.panelAccum, nullptr);
        EXPECT_NE(K.panelAccumSel, nullptr);
        EXPECT_NE(K.panelAccumGrouped, nullptr);
        EXPECT_NE(K.panelAccumHalf, nullptr);
        EXPECT_NE(K.dotBlockDouble, nullptr);
        EXPECT_NE(K.xformFromTiles, nullptr);
        EXPECT_NE(K.xformToTiles, nullptr);
        EXPECT_NE(K.rowAccumDouble, nullptr);
        EXPECT_NE(K.sumDouble, nullptr);
        EXPECT_NE(K.reluForward, nullptr);
        EXPECT_NE(K.mulPairwise, nullptr);
        EXPECT_NE(K.axpy, nullptr);
        EXPECT_NE(K.avgPool2Row, nullptr);
    }
}

// ------------------------------------------------------------------
// Primitive-level parity across odd lengths (masked tails)
// ------------------------------------------------------------------

TEST_F(SimdTest, ElementwisePrimitivesBitwiseMatchScalarOnOddLengths)
{
    const mk::MicroKernels *scalar = mk::detail::scalarTable();
    ASSERT_NE(scalar, nullptr);
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (std::int64_t n : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33}) {
            auto x = randomVec(std::size_t(n), 7u + unsigned(n));
            auto b = randomVec(std::size_t(n), 80u + unsigned(n));
            // ReLU (+ mask) is bitwise across every ISA.
            std::vector<float> yS(std::size_t(n), 0.0f), yV(std::size_t(n), 0.0f);
            std::vector<float> mS(std::size_t(n), 0.0f), mV(std::size_t(n), 0.0f);
            scalar->reluForward(yS.data(), mS.data(), x.data(), n);
            K.reluForward(yV.data(), mV.data(), x.data(), n);
            EXPECT_EQ(0, std::memcmp(yS.data(), yV.data(),
                                     std::size_t(n) * 4))
                << mk::isaName(isa) << " relu n=" << n;
            EXPECT_EQ(0, std::memcmp(mS.data(), mV.data(),
                                     std::size_t(n) * 4))
                << mk::isaName(isa) << " relu mask n=" << n;
            // Pairwise multiply is bitwise (no reduction).
            scalar->mulPairwise(yS.data(), x.data(), b.data(), n);
            K.mulPairwise(yV.data(), x.data(), b.data(), n);
            EXPECT_EQ(0, std::memcmp(yS.data(), yV.data(),
                                     std::size_t(n) * 4))
                << mk::isaName(isa) << " mul n=" << n;
        }
    }
}

TEST_F(SimdTest, PanelAccumGroupedBitwiseMatchesBlockedSel)
{
    // The sparse elementwise path's contract: one whole-column
    // panelAccumGrouped call over compacted rows must be bitwise
    // identical to the blocked sequence of panelAccumSel calls it
    // replaces (same per-element FMA chains, intermediate y
    // store/loads are exact in fp32 — only the y traffic differs).
    // 19 rows = register blocks of 8, 8, and a 3-row tail; patterns
    // cover scattered drops, a fully dead middle block, and a sparse
    // survivor set.
    const int ni = 19;
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (int len : {1, 7, 16, 33, 64}) {
            std::vector<std::vector<float>> rows;
            std::vector<float> w;
            for (int i = 0; i < ni; ++i) {
                rows.push_back(randomVec(
                    std::size_t(len), 100u + unsigned(i * 7 + len)));
                w.push_back(i % 5 == 0 ? 0.0f
                                       : 0.3f * float(i) - 2.0f);
            }
            for (int pat = 0; pat < 3; ++pat) {
                auto kept = [&](int i) {
                    if (w[std::size_t(i)] == 0.0f)
                        return false;
                    if (pat == 1 && i >= 8 && i < 16)
                        return false; // middle block fully dead
                    if (pat == 2 && i % 2)
                        return false;
                    return true;
                };
                std::vector<float> yRef =
                    randomVec(std::size_t(len), 999u + unsigned(len));
                std::vector<float> yGrp = yRef;
                // Reference: one panelAccumSel per non-empty block.
                std::vector<const float *> xb;
                std::vector<float> wb;
                for (int b0 = 0; b0 < ni; b0 += 8) {
                    const int orig = std::min(8, ni - b0);
                    xb.clear();
                    wb.clear();
                    for (int i = b0; i < b0 + orig; ++i)
                        if (kept(i)) {
                            xb.push_back(rows[std::size_t(i)].data());
                            wb.push_back(w[std::size_t(i)]);
                        }
                    if (!xb.empty())
                        K.panelAccumSel(yRef.data(), xb.data(),
                                        wb.data(), int(xb.size()),
                                        len, orig);
                }
                // Grouped: compact across blocks, one y pass.
                std::vector<const float *> xc;
                std::vector<float> wc;
                std::vector<std::uint8_t> grp;
                int tailOrig = 0;
                for (int b0 = 0; b0 < ni; b0 += 8) {
                    const int orig = std::min(8, ni - b0);
                    const int base = int(xc.size());
                    for (int i = b0; i < b0 + orig; ++i)
                        if (kept(i)) {
                            xc.push_back(rows[std::size_t(i)].data());
                            wc.push_back(w[std::size_t(i)]);
                        }
                    if (int(xc.size()) != base) {
                        grp.push_back(
                            std::uint8_t(int(xc.size()) - base));
                        tailOrig = orig;
                    }
                }
                ASSERT_FALSE(xc.empty());
                K.panelAccumGrouped(yGrp.data(), xc.data(), wc.data(),
                                    int(xc.size()), len, grp.data(),
                                    int(grp.size()), tailOrig);
                EXPECT_EQ(0, std::memcmp(yRef.data(), yGrp.data(),
                                         std::size_t(len) * 4))
                    << mk::isaName(isa) << " len=" << len
                    << " pat=" << pat;
            }
        }
    }
}

TEST_F(SimdTest, ReductionPrimitivesMatchScalarWithinUlp)
{
    const mk::MicroKernels *scalar = mk::detail::scalarTable();
    ASSERT_NE(scalar, nullptr);
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (std::int64_t n : {1, 3, 7, 8, 9, 17, 64, 101, 1000}) {
            auto a = randomVec(std::size_t(n), 11u + unsigned(n));
            auto b = randomVec(std::size_t(n), 12u + unsigned(n));
            // Double-precision reductions: reassociation noise is far
            // below float resolution, just not bitwise.
            const float *pa = a.data();
            const float *pb = b.data();
            double dS = 0.0, dV = 0.0;
            scalar->dotBlockDouble(&dS, 1, &pa, 1, &pb, 1, int(n));
            K.dotBlockDouble(&dV, 1, &pa, 1, &pb, 1, int(n));
            EXPECT_NEAR(dS, dV, 1e-10 * (std::abs(dS) + 1.0))
                << mk::isaName(isa) << " dot n=" << n;
            const double sS = scalar->sumDouble(a.data(), n);
            const double sV = K.sumDouble(a.data(), n);
            EXPECT_NEAR(sS, sV, 1e-10 * (std::abs(sS) + 1.0))
                << mk::isaName(isa) << " sum n=" << n;
            // axpy: the only divergence is one FMA contraction per
            // element, bounded by half an ulp of the product |a*x|
            // (<= 0.37 here). Cancellation makes a relative-ULP bound
            // meaningless, so bound the absolute error instead.
            std::vector<float> yS = b, yV = b;
            scalar->axpy(yS.data(), 0.37f, a.data(), n);
            K.axpy(yV.data(), 0.37f, a.data(), n);
            for (std::int64_t i = 0; i < n; ++i)
                EXPECT_NEAR(yS[std::size_t(i)], yV[std::size_t(i)],
                            2.5e-7)
                    << mk::isaName(isa) << " axpy n=" << n
                    << " i=" << i;
        }
    }
}

TEST_F(SimdTest, DotBlockBitwiseMatchesSinglePairCalls)
{
    // The grad-weights contract: every pair of an na x nb block gets
    // exactly the single-pair reduction, so blocking never changes dW.
    // Rows start at odd float offsets (no vector alignment), the
    // accumulators start nonzero (the kernel adds) with a row stride
    // wider than nb, and entries outside the block must stay untouched.
    constexpr int kLd = mk::kDotBlock + 1;
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (int len : {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 255, 256}) {
            const std::size_t pitch = std::size_t(len) + 3;
            auto buf = randomVec(2 * mk::kDotBlock * pitch + 1,
                                 500u + unsigned(len));
            const float *a[mk::kDotBlock], *b[mk::kDotBlock];
            for (int r = 0; r < mk::kDotBlock; ++r) {
                a[r] = buf.data() + 1 + std::size_t(r) * pitch;
                b[r] = buf.data() + 1 +
                       std::size_t(mk::kDotBlock + r) * pitch;
            }
            for (int na = 1; na <= mk::kDotBlock; ++na) {
                for (int nb = 1; nb <= mk::kDotBlock; ++nb) {
                    double acc[mk::kDotBlock * kLd];
                    for (int e = 0; e < mk::kDotBlock * kLd; ++e)
                        acc[e] = 0.25 * (e + 1);
                    K.dotBlockDouble(acc, kLd, a, na, b, nb, len);
                    for (int j = 0; j < mk::kDotBlock; ++j) {
                        for (int i = 0; i < kLd; ++i) {
                            double want = 0.25 * (j * kLd + i + 1);
                            if (j < na && i < nb)
                                K.dotBlockDouble(&want, 1, &a[j], 1,
                                                 &b[i], 1, len);
                            EXPECT_EQ(0, std::memcmp(&want,
                                                     &acc[j * kLd + i],
                                                     sizeof(double)))
                                << mk::isaName(isa) << " len=" << len
                                << " block " << na << "x" << nb
                                << " pair " << j << "," << i;
                        }
                    }
                }
            }
        }
    }
}

/**
 * The per-pair double dot product every table computed before the
 * blocked grad-weights kernel, restated in portable code so the check
 * below does not lean on the kernel under test. Scalar: four chains,
 * the tail into chain 0, (s0 + s1) + (s2 + s3). Vector levels, per
 * lane: chain 0 over the even full chunks of `lanes` floats, chain 1
 * over the odd ones and then the zero-filled tail; FMA from AVX2 up,
 * multiply-then-add at SSE2; the lanes of chain0 + chain1 summed in
 * simd::hsum's pairwise tree.
 */
double
perPairDot(mk::Isa isa, int lanes, const float *a, const float *b,
           int len)
{
    if (isa == mk::Isa::Scalar) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        int k = 0;
        for (; k + 4 <= len; k += 4) {
            s0 += double(a[k]) * b[k];
            s1 += double(a[k + 1]) * b[k + 1];
            s2 += double(a[k + 2]) * b[k + 2];
            s3 += double(a[k + 3]) * b[k + 3];
        }
        for (; k < len; ++k)
            s0 += double(a[k]) * b[k];
        return (s0 + s1) + (s2 + s3);
    }
    const bool fused = isa != mk::Isa::Sse2;
    const auto step = [fused](double &acc, double x, double y) {
        acc = fused ? std::fma(x, y, acc) : acc + x * y;
    };
    double c0[8] = {}, c1[8] = {};
    const int chunks = len / lanes;
    for (int q = 0; q < chunks; ++q)
        for (int l = 0; l < lanes; ++l)
            step(q % 2 ? c1[l] : c0[l], a[q * lanes + l],
                 b[q * lanes + l]);
    if (chunks * lanes < len)
        for (int l = 0; l < lanes; ++l) {
            const int k = chunks * lanes + l;
            step(c1[l], k < len ? a[k] : 0.0f, k < len ? b[k] : 0.0f);
        }
    for (int l = 0; l < lanes; ++l)
        c0[l] += c1[l];
    for (int n = lanes; n > 1; n /= 2)
        for (int i = 0; i < n / 2; ++i)
            c0[i] = c0[2 * i] + c0[2 * i + 1];
    return c0[0];
}

TEST_F(SimdTest, GradWeightsBitwiseMatchPerPairReference)
{
    // dW[uv][j][i] = sum over 256-lane blocks (ascending) of the
    // per-pair dot: the loop the blocked kernel replaced. Shapes:
    // train_wino's five F(4,3) convs at batch 16 (bt = 16 x tiles),
    // then channel counts off multiples of 4 (and past one 16-wide
    // I block) and bt below one vector or past one 256-lane block.
    struct Shape { int alpha, nj, ni, bt; };
    const Shape shapes[] = {
        {6, 32, 1, 1024}, {6, 32, 32, 1024}, {6, 64, 32, 256},
        {6, 128, 64, 64}, {6, 128, 128, 64},
        {4, 5, 7, 3},     {6, 6, 18, 300},   {4, 3, 2, 7},
    };
    constexpr int kParentKBlock = 256;
    for (const Shape &s : shapes) {
        WinoTiles dY(s.alpha, s.nj, 1, s.bt), X(s.alpha, s.ni, 1, s.bt);
        Rng rng(900u + unsigned(s.nj * 131 + s.ni * 7 + s.bt));
        for (int uv = 0; uv < dY.uvCount(); ++uv) {
            for (int j = 0; j < s.nj; ++j)
                for (int k = 0; k < s.bt; ++k)
                    dY.row(uv, j)[k] = rng.uniform() - 0.5f;
            for (int i = 0; i < s.ni; ++i)
                for (int k = 0; k < s.bt; ++k)
                    X.row(uv, i)[k] = rng.uniform() - 0.5f;
        }
        const int uvs = dY.uvCount();
        for (mk::Isa isa : usableIsas()) {
            ScopedExecConfig isaScope(withIsa(isa));
            const int lanes = mk::kernels().doubleLanes;
            WinoWeights want(s.alpha, s.nj, s.ni);
            for (int uv = 0; uv < uvs; ++uv)
                for (int j = 0; j < s.nj; ++j)
                    for (int i = 0; i < s.ni; ++i) {
                        double acc = 0.0;
                        for (int k0 = 0; k0 < s.bt; k0 += kParentKBlock)
                            acc += perPairDot(
                                isa, lanes, dY.row(uv, j) + k0,
                                X.row(uv, i) + k0,
                                std::min(kParentKBlock, s.bt - k0));
                        want.at(uv, j, i) = float(acc);
                    }
            // A uv sub-range writes its slice and nothing else.
            const int uv0 = 1, uv1 = uvs - 2;
            for (int threads : {1, 4}) {
                ThreadPool::global().setThreadCount(threads);
                WinoWeights full(s.alpha, s.nj, s.ni);
                WinoWeights part(s.alpha, s.nj, s.ni);
                full.fill(-7.0f);
                part.fill(-7.0f);
                elementwiseGradWeightsInto(dY, X, full);
                elementwiseGradWeightsInto(dY, X, part, uv0, uv1);
                int bad = 0;
                for (int uv = 0; uv < uvs; ++uv)
                    for (int j = 0; j < s.nj; ++j)
                        for (int i = 0; i < s.ni; ++i) {
                            const float w = want.at(uv, j, i);
                            const float p = uv >= uv0 && uv < uv1
                                                ? w
                                                : -7.0f;
                            bad += std::memcmp(&w, &full.at(uv, j, i),
                                               sizeof(float)) != 0;
                            bad += std::memcmp(&p, &part.at(uv, j, i),
                                               sizeof(float)) != 0;
                        }
                EXPECT_EQ(bad, 0)
                    << mk::isaName(isa) << " threads=" << threads
                    << " J=" << s.nj << " I=" << s.ni << " bt=" << s.bt;
            }
        }
    }

    // Random data rarely shows the vector chain assignment: the double
    // rounding it changes seldom survives the cast to float. This pair
    // does. At lane 0 the even chunk adds 1, the odd chunk 2^60 and the
    // tail -2^60 (every other lane adds 1 + 0), so the per-pair order
    // gives exactly W, and any other grouping of the tail loses the 1.
    for (mk::Isa isa : usableIsas()) {
        if (isa == mk::Isa::Scalar)
            continue;
        ScopedExecConfig isaScope(withIsa(isa));
        const int lanes = mk::kernels().doubleLanes;
        const int bt = 2 * lanes + 1;
        WinoTiles dY(4, 1, 1, bt), X(4, 1, 1, bt);
        for (int uv = 0; uv < dY.uvCount(); ++uv) {
            float *a = dY.row(uv, 0), *b = X.row(uv, 0);
            for (int k = 0; k < bt; ++k)
                a[k] = b[k] = 0.0f;
            for (int l = 0; l < lanes; ++l)
                a[l] = b[l] = 1.0f;
            a[lanes] = b[lanes] = 0x1p30f;
            a[2 * lanes] = -0x1p30f;
            b[2 * lanes] = 0x1p30f;
        }
        ASSERT_EQ(perPairDot(isa, lanes, dY.row(0, 0), X.row(0, 0), bt),
                  double(lanes));
        WinoWeights dW(4, 1, 1);
        elementwiseGradWeightsInto(dY, X, dW);
        for (int uv = 0; uv < dW.uvCount(); ++uv)
            EXPECT_EQ(dW.at(uv, 0, 0), float(lanes))
                << mk::isaName(isa) << " uv=" << uv;
    }
}

TEST_F(SimdTest, AvgPool2RowBitwiseAcrossIsas)
{
    const mk::MicroKernels *scalar = mk::detail::scalarTable();
    ASSERT_NE(scalar, nullptr);
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (int outW : {1, 2, 3, 5, 8, 13, 16, 17}) {
            auto r0 = randomVec(std::size_t(2 * outW), 21u);
            auto r1 = randomVec(std::size_t(2 * outW), 22u);
            std::vector<float> yS(std::size_t(outW), 0.0f);
            std::vector<float> yV(std::size_t(outW), 0.0f);
            scalar->avgPool2Row(yS.data(), r0.data(), r1.data(), outW);
            K.avgPool2Row(yV.data(), r0.data(), r1.data(), outW);
            EXPECT_EQ(0, std::memcmp(yS.data(), yV.data(),
                                     std::size_t(outW) * 4))
                << mk::isaName(isa) << " outW=" << outW;
        }
    }
}

// ------------------------------------------------------------------
// Pipeline-level parity on odd shapes: N=1, C != K, tile counts not a
// multiple of any vector width, all three generated algorithms.
// ------------------------------------------------------------------

struct OddShape
{
    int n, c, k, hw;
};

void
expectTensorNear(const Tensor &a, const Tensor &b, float tol,
                 const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    const float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(pa[i], pb[i],
                    tol * std::max(1.0f, std::abs(pa[i])))
            << what << " flat index " << i;
}

TEST_F(SimdTest, PipelineMatchesScalarWithinTolOnOddShapes)
{
    const OddShape shapes[] = {{1, 3, 5, 9}, {2, 5, 3, 13}};
    const WinogradAlgo f6 = makeWinograd(6, 3);
    const WinogradAlgo *algos[] = {&algoF2x2_3x3(), &algoF4x4_3x3(),
                                   &f6};
    for (const WinogradAlgo *algo : algos) {
        for (const OddShape &s : shapes) {
            Rng rng(5);
            Tensor x(s.n, s.c, s.hw, s.hw);
            Tensor w(s.k, s.c, 3, 3);
            Tensor dy(s.n, s.k, s.hw, s.hw);
            x.fillUniform(rng);
            w.fillUniform(rng);
            dy.fillUniform(rng);

            Tensor yS, dxS;
            WinoWeights gS;
            {
                ScopedExecConfig scalar(withIsa(mk::Isa::Scalar));
                WinoWeights Ws = transformWeights(w, *algo);
                yS = winogradForward(x, Ws, *algo);
                dxS = winogradBackwardData(dy, Ws, *algo, s.hw, s.hw);
                gS = winogradGradWeights(x, dy, *algo);
            }

            WinoWeights Wv = transformWeights(w, *algo);
            Tensor yV = winogradForward(x, Wv, *algo);
            Tensor dxV = winogradBackwardData(dy, Wv, *algo, s.hw,
                                              s.hw);
            WinoWeights gV = winogradGradWeights(x, dy, *algo);

            // Larger tiles are worse conditioned: F(6,3)'s transform
            // matrices amplify reassociation + FMA noise by orders of
            // magnitude over F(2,3) (the classic large-tile Winograd
            // accuracy cliff), so the bound scales with m.
            const float tol = algo->m >= 6 ? 1e-2f : 1e-3f;
            expectTensorNear(yS, yV, tol, "forward");
            expectTensorNear(dxS, dxV, tol, "backward-data");
            ASSERT_EQ(gS.size(), gV.size());
            for (std::size_t i = 0; i < gS.size(); ++i)
                ASSERT_NEAR(gS.raw()[i], gV.raw()[i],
                            tol * std::max(1.0f,
                                           std::abs(gS.raw()[i])))
                    << "gradW flat index " << i << " m=" << algo->m;
        }
    }
}

TEST_F(SimdTest, DirectConvMatchesScalarWithinTol)
{
    Rng rng(9);
    Tensor x(1, 3, 11, 11);
    Tensor w(5, 3, 3, 3);
    Tensor dy(1, 5, 11, 11);
    x.fillUniform(rng);
    w.fillUniform(rng);
    dy.fillUniform(rng);

    Tensor yS, dxS, gS;
    {
        ScopedExecConfig scalar(withIsa(mk::Isa::Scalar));
        yS = directConvForward(x, w);
        dxS = directConvBackwardData(dy, w);
        gS = directConvGradWeights(x, dy, 3);
    }
    Tensor yV = directConvForward(x, w);
    Tensor dxV = directConvBackwardData(dy, w);
    Tensor gV = directConvGradWeights(x, dy, 3);

    expectTensorNear(yS, yV, 1e-5f, "direct forward");
    expectTensorNear(dxS, dxV, 1e-5f, "direct backward-data");
    // GradWeights stays on the one scalar kernel by contract: its
    // serial (b, oy, ox) reduction order is part of the bitwise spec.
    EXPECT_EQ(0, std::memcmp(gS.data(), gV.data(), gS.size() * 4));
}

// ------------------------------------------------------------------
// Bitwise reproducibility across thread counts, per ISA
// ------------------------------------------------------------------

TEST_F(SimdTest, PipelineBitwiseInvariantAcrossThreadCountsPerIsa)
{
    Rng rng(3);
    Tensor x(2, 5, 13, 13);
    Tensor w(3, 5, 3, 3);
    Tensor dy(2, 3, 13, 13);
    x.fillUniform(rng);
    w.fillUniform(rng);
    dy.fillUniform(rng);
    const auto &algo = algoF4x4_3x3();

    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        WinoWeights W = transformWeights(w, algo);

        ThreadPool::global().setThreadCount(1);
        Tensor y1 = winogradForward(x, W, algo);
        Tensor dx1 = winogradBackwardData(dy, W, algo, 13, 13);
        WinoWeights g1 = winogradGradWeights(x, dy, algo);

        ThreadPool::global().setThreadCount(8);
        Tensor y8 = winogradForward(x, W, algo);
        Tensor dx8 = winogradBackwardData(dy, W, algo, 13, 13);
        WinoWeights g8 = winogradGradWeights(x, dy, algo);

        EXPECT_EQ(0, std::memcmp(y1.data(), y8.data(), y1.size() * 4))
            << mk::isaName(isa);
        EXPECT_EQ(0,
                  std::memcmp(dx1.data(), dx8.data(), dx1.size() * 4))
            << mk::isaName(isa);
        EXPECT_EQ(0, std::memcmp(g1.raw(), g8.raw(), g1.size() * 4))
            << mk::isaName(isa);
    }
}

} // namespace
