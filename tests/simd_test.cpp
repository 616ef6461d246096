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
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/tiling.hh"
#include "winograd/xform_tables.hh"

#include "ew_forms.hh"
#include "ew_oracle.hh"
#include "exec_scope.hh"

using namespace winomc;
using test::perPairDot;
using test::rowBlockRef;
using test::usableIsas;
using test::withIsa;
using test::transformInput;
using test::transformInputAdjoint;
using test::inverseTransform;
using test::inverseTransformAdjoint;
using test::winogradForward;
using test::winogradBackwardData;
using test::winogradGradWeights;

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

/**
 * Fills `rows` rows of `len` lanes (row stride `pitch`) with values
 * spread over 2^-20 .. 2^20 and exact ±0 mixed in; one row in two
 * gets +2^30 at lanes 0 mod 16 and sign2 * 2^30 at lanes 2 mod 16.
 * Two such rows with opposite sign2 meet at +2^60 in lane class 0 and
 * -2^60 in class 2 of a grad-weights reduction: simd::hsum's tree
 * loses classes 1 and 3 to them, a sequential fold only class 1, so
 * the order the lane classes fold in reaches the float result.
 */
void
spreadRows(Rng &rng, float *v, int rows, std::size_t pitch,
           int len, float sign2)
{
    for (int r = 0; r < rows; ++r) {
        const bool cancel = rng.uniformInt(0, 1) == 0;
        for (int k = 0; k < len; ++k) {
            float &e = v[std::size_t(r) * pitch + std::size_t(k)];
            e = std::ldexp(rng.uniform() - 0.5f,
                           int(rng.uniformInt(-20, 20)));
            if (rng.uniformInt(0, 15) == 0)
                e = rng.uniformInt(0, 1) ? 0.0f : -0.0f;
            if (cancel && k % 16 == 0)
                e = 0x1p30f;
            if (cancel && k % 16 == 2)
                e = sign2 * 0x1p30f;
        }
    }
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
    for (mk::Isa isa : mk::kIsaLadder) {
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
        EXPECT_NE(K.rowBlockAccum, nullptr);
        EXPECT_NE(K.panelAccumGrouped, nullptr);
        EXPECT_NE(K.panelAccumHalf, nullptr);
        EXPECT_NE(K.gradWeights, nullptr);
        EXPECT_NE(K.xformFromTiles, nullptr);
        EXPECT_NE(K.xformToTiles, nullptr);
        EXPECT_EQ(K.tabled == nullptr, isa == mk::Isa::Scalar);
        EXPECT_NE(K.directRow, nullptr);
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

TEST_F(SimdTest, RowBlockAccumBitwiseMatchesNaiveOracle)
{
    // The dense element-wise contract: every element of a row block is
    // the oracle's chain over all ni input rows, zero weights included
    // (scalar: the blocked nest with its zero-block skip). Rows start
    // at odd float offsets; y starts nonzero (the kernel adds); weight
    // 8-blocks are zero in every row, in one row only, or hold ±0
    // entries; x holds exact ±0; both weight orientations run.
    constexpr int kMaxNi = 70, kLd = 5;
    const int nis[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33, 64, 70};
    const int lens[] = {1, 3, 4, 15, 16, 17, 31, 33, 63, 64, 65, 100,
                        129, 256, 300};
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (int len : lens) {
            const std::size_t xs = std::size_t(len) + 3;
            auto x = randomVec(kMaxNi * xs + 1, 40u + unsigned(len));
            for (std::size_t e = 0; e < x.size(); e += 7)
                x[e] = e % 2 ? -0.0f : 0.0f;
            // W (kLd x kMaxNi, forward) and W^T (kMaxNi x kLd,
            // backward data) hold the same values.
            auto wF = randomVec(std::size_t(kMaxNi) * kLd,
                                60u + unsigned(len));
            std::vector<float> wT(wF.size());
            for (int i = 0; i < kMaxNi; ++i)
                for (int j = 0; j < kLd; ++j) {
                    float &wij = wF[std::size_t(j) * kMaxNi + i];
                    if (i / 8 == 1 || (i / 8 == 3 && j == 2))
                        wij = 0.0f; // dead in every row; in row 2 only
                    else if ((i + j) % 11 == 0)
                        wij = (i + j) % 2 ? -0.0f : 0.0f;
                    wT[std::size_t(i) * kLd + j] = wij;
                }
            for (int ni : nis) {
                for (int nj = 1; nj <= mk::kRowBlock; ++nj) {
                    for (bool transposed : {false, true}) {
                        const float *w = transposed ? wT.data() : wF.data();
                        const std::ptrdiff_t wsJ = transposed ? 1 : kMaxNi;
                        const std::ptrdiff_t wsI = transposed ? kLd : 1;
                        std::vector<std::vector<float>> yK, yR;
                        float *pk[mk::kRowBlock], *pr[mk::kRowBlock];
                        for (int j = 0; j < nj; ++j) {
                            yK.push_back(randomVec(
                                std::size_t(len),
                                80u + unsigned(j * 131 + len)));
                            yR.push_back(yK.back());
                        }
                        for (int j = 0; j < nj; ++j) {
                            pk[j] = yK[std::size_t(j)].data();
                            pr[j] = yR[std::size_t(j)].data();
                        }
                        K.rowBlockAccum(pk, nj, x.data() + 1, xs, ni, w,
                                        wsJ, wsI, len);
                        rowBlockRef(isa, pr, nj, x.data() + 1, xs, ni, w,
                                    wsJ, wsI, len);
                        for (int j = 0; j < nj; ++j)
                            EXPECT_EQ(0, std::memcmp(pk[j], pr[j],
                                                     std::size_t(len) * 4))
                                << mk::isaName(isa) << " nj=" << nj
                                << " ni=" << ni << " len=" << len
                                << " row " << j
                                << (transposed ? " W^T" : " W");
                    }
                }
            }
        }
    }
}

TEST_F(SimdTest, PanelAccumGroupedBitwiseMatchesDenseOracle)
{
    // The sparse elementwise path's contract: one whole-column
    // panelAccumGrouped call over compacted rows is bitwise the dense
    // kernel over the uncompacted column with the dropped rows'
    // weights zeroed (dropped terms are exact zeros for finite
    // inputs). The dense side is the in-test oracle rowBlockRef.
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
                // Oracle: the dense column, dropped rows zero-weighted.
                std::vector<float> xDense(std::size_t(ni * len));
                std::vector<float> wDense(static_cast<std::size_t>(ni));
                for (int i = 0; i < ni; ++i) {
                    std::copy(rows[std::size_t(i)].begin(),
                              rows[std::size_t(i)].end(),
                              xDense.begin() + std::ptrdiff_t(i) * len);
                    wDense[std::size_t(i)] = kept(i) ? w[std::size_t(i)]
                                                     : 0.0f;
                }
                float *yr = yRef.data();
                rowBlockRef(isa, &yr, 1, xDense.data(), std::size_t(len),
                            ni, wDense.data(), 0, 1, len);
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
            std::vector<double> scratch(mk::gradWeightsScratch(1, 1, int(n)));
            float dS = 0.0f, dV = 0.0f;
            scalar->gradWeights(&dS, 1, a.data(), 0, 1, b.data(), 0, 1,
                                int(n), scratch.data());
            K.gradWeights(&dV, 1, a.data(), 0, 1, b.data(), 0, 1, int(n),
                          scratch.data());
            EXPECT_NEAR(dS, dV, 1e-6 * (std::abs(dS) + 1.0))
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
    // The grad-weights contract: every pair of an nj x ni block gets
    // exactly the single-pair reduction, so blocking never changes dW.
    // Sides run from the narrow-row path (1-3) through the transposed
    // panels and their ragged edges, on either operand; rows start at
    // odd float offsets (no vector alignment), dw's row stride is
    // wider than ni, and entries outside the block must stay untouched.
    const int sides[] = {1, 2, 3, 4, 5, 8, 9, 17};
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (int len : {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 255, 256,
                        257}) {
            const std::size_t pitch = std::size_t(len) + 3;
            Rng rng(500u + unsigned(len));
            std::vector<float> dy(17 * pitch + 1), x(17 * pitch + 1);
            spreadRows(rng, dy.data() + 1, 17, pitch, len, -1.0f);
            spreadRows(rng, x.data() + 1, 17, pitch, len, 1.0f);
            std::vector<double> one(mk::gradWeightsScratch(1, 1, len));
            for (int nj : sides) {
                for (int ni : sides) {
                    const int ld = ni + 3;
                    std::vector<double> scratch(
                        mk::gradWeightsScratch(nj, ni, len));
                    std::vector<float> dw(std::size_t(nj) * ld, -7.0f);
                    K.gradWeights(dw.data(), std::size_t(ld), dy.data() + 1,
                                  pitch, nj, x.data() + 1, pitch, ni, len,
                                  scratch.data());
                    int bad = 0;
                    for (int j = 0; j < nj; ++j) {
                        for (int i = 0; i < ld; ++i) {
                            float want = -7.0f;
                            if (i < ni)
                                K.gradWeights(&want, 1,
                                              dy.data() + 1 + j * pitch,
                                              pitch, 1,
                                              x.data() + 1 + i * pitch,
                                              pitch, 1, len, one.data());
                            bad += std::memcmp(&want,
                                               &dw[std::size_t(j) * ld + i],
                                               sizeof want) != 0;
                        }
                    }
                    EXPECT_EQ(bad, 0) << mk::isaName(isa) << " len=" << len
                                      << " block " << nj << "x" << ni;
                }
            }
        }
    }
}

TEST_F(SimdTest, DotBlockReductionMatchesHsumTree)
{
    // mk::gradWeights against the per-pair chains restated in
    // tests/ew_oracle.hh, per 256-lane block summed in ascending order,
    // at every usable ISA. Shapes put the wide side on either operand
    // (and J or I = 1); lane counts hit every tail and block edge; rows
    // are strided past their length and dw's row stride is wider than
    // I (the gap must stay untouched). The values come from spreadRows,
    // so the order the lane classes fold in reaches the float result;
    // a sequential fold must differ from the tree somewhere, or the
    // check is blind to it.
    struct Shape { int nj, ni; };
    const Shape shapes[] = {{1, 1}, {1, 19}, {23, 1}, {5, 37},
                            {37, 5}, {16, 16}, {3, 17}, {18, 3}};
    constexpr int kBlock = mk::kGradKBlock;
    std::map<mk::Isa, int> visibleByIsa;
    for (int bt : {1, 7, 63, 64, 255, 256, 257, 513}) {
        for (const Shape &s : shapes) {
            Rng rng(1300u + unsigned(bt * 97 + s.nj * 13 + s.ni));
            const std::size_t pitch = std::size_t(bt) + 3;
            std::vector<float> dy(std::size_t(s.nj) * pitch),
                x(std::size_t(s.ni) * pitch);
            spreadRows(rng, dy.data(), s.nj, pitch, bt, -1.0f);
            spreadRows(rng, x.data(), s.ni, pitch, bt, 1.0f);
            const int ld = s.ni + 2;
            std::vector<double> scratch(
                mk::gradWeightsScratch(s.nj, s.ni, bt));
            for (mk::Isa isa : usableIsas()) {
                ScopedExecConfig isaScope(withIsa(isa));
                const mk::MicroKernels &K = mk::kernels();
                const int lanes = K.doubleLanes;
                std::vector<float> dw(std::size_t(s.nj) * ld, -7.0f);
                K.gradWeights(dw.data(), std::size_t(ld), dy.data(), pitch,
                              s.nj, x.data(), pitch, s.ni, bt,
                              scratch.data());
                int bad = 0, treeVisible = 0;
                for (int j = 0; j < s.nj; ++j) {
                    for (int i = 0; i < ld; ++i) {
                        const float got = dw[std::size_t(j) * ld + i];
                        if (i >= s.ni) {
                            bad += got != -7.0f;
                            continue;
                        }
                        const float *a = dy.data() + std::size_t(j) * pitch;
                        const float *b = x.data() + std::size_t(i) * pitch;
                        double acc = 0.0, seq = 0.0;
                        for (int k0 = 0; k0 < bt; k0 += kBlock) {
                            const int kb = std::min(kBlock, bt - k0);
                            acc += perPairDot(isa, lanes, a + k0, b + k0, kb);
                            if (isa == mk::Isa::Scalar)
                                continue;
                            // The same lane classes folded in order.
                            double v[8], sum = 0.0;
                            test::pairLanes(lanes, a + k0, b + k0, kb, v);
                            for (int l = 0; l < lanes; ++l)
                                sum += v[l];
                            seq += sum;
                        }
                        const float want = float(acc);
                        bad += std::memcmp(&want, &got, sizeof got) != 0;
                        treeVisible += float(seq) != want;
                    }
                }
                EXPECT_EQ(bad, 0) << mk::isaName(isa) << " J=" << s.nj
                                  << " I=" << s.ni << " bt=" << bt;
                visibleByIsa[isa] += treeVisible;
            }
        }
    }
    for (mk::Isa isa : usableIsas())
        if (isa != mk::Isa::Scalar) {
            EXPECT_GT(visibleByIsa[isa], 0) << mk::isaName(isa);
        }

    // The chain of the tail chunk, which random data rarely shows: in
    // lane class 0 the even chunk adds 1, the odd one 2^60 and the tail
    // -2^60, so only the tail in chain 1 (with the odd chunk) keeps the
    // 1. Every row holds the pattern, on both paths.
    for (mk::Isa isa : usableIsas()) {
        if (isa == mk::Isa::Scalar)
            continue;
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        const int lanes = K.doubleLanes;
        const int bt = 2 * lanes + 1;
        for (const Shape &s : {Shape{1, 19}, Shape{5, 37}, Shape{37, 5}}) {
            std::vector<float> dy(std::size_t(s.nj) * bt, 0.0f),
                x(std::size_t(s.ni) * bt, 0.0f);
            const auto pattern = [&](float *r, float tailSign) {
                r[0] = 1.0f;
                r[lanes] = 0x1p30f;
                r[2 * lanes] = tailSign * 0x1p30f;
            };
            for (int j = 0; j < s.nj; ++j)
                pattern(dy.data() + std::size_t(j) * bt, -1.0f);
            for (int i = 0; i < s.ni; ++i)
                pattern(x.data() + std::size_t(i) * bt, 1.0f);
            ASSERT_EQ(perPairDot(isa, lanes, dy.data(), x.data(), bt), 1.0);
            std::vector<double> scratch(
                mk::gradWeightsScratch(s.nj, s.ni, bt));
            std::vector<float> dw(std::size_t(s.nj) * s.ni);
            K.gradWeights(dw.data(), std::size_t(s.ni), dy.data(),
                          std::size_t(bt), s.nj, x.data(), std::size_t(bt),
                          s.ni, bt, scratch.data());
            EXPECT_EQ(std::count(dw.begin(), dw.end(), 1.0f),
                      std::ptrdiff_t(dw.size()))
                << mk::isaName(isa) << " J=" << s.nj << " I=" << s.ni;
        }
    }
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
// Tabled transforms: compile-time coefficients vs the generic bodies
// ------------------------------------------------------------------

/** Sandwich matrix M of tabled transform Id, dense row-major. */
template <int Id>
std::vector<double>
tabledMatrix()
{
    using M = mk::xf::TabledXform<Id>;
    std::vector<double> out;
    for (int i = 0; i < M::rows; ++i)
        for (int t = 0; t < M::cols; ++t)
            out.push_back(M::at(i, t));
    return out;
}

/** The Toom-Cook matrix tabled transform `id` claims to hold. */
const Matrix &
toomCookMatrix(int id)
{
    const WinogradAlgo &algo = algoForTile(2 + 2 * (id / 4));
    const Matrix *byOrient[] = {&algo.BT, &algo.B, &algo.AT, &algo.A};
    return *byOrient[id % 4];
}

TEST_F(SimdTest, CoefficientTablesMatchToomCookBitwise)
{
    static_assert(mk::xf::kTabledXforms == 12,
                  "F(2,3), F(4,3), F(6,3) x four orientations");
    const auto tables = []<int... Id>(std::integer_sequence<int, Id...>) {
        return std::vector<std::vector<double>>{tabledMatrix<Id>()...};
    }(std::make_integer_sequence<int, mk::xf::kTabledXforms>{});
    for (int id = 0; id < mk::xf::kTabledXforms; ++id) {
        const Matrix &M = toomCookMatrix(id);
        ASSERT_EQ(tables[id].size(), std::size_t(M.rows() * M.cols()))
            << "tabled transform " << id;
        EXPECT_EQ(0, std::memcmp(tables[id].data(), M.data(),
                                 tables[id].size() * sizeof(double)))
            << "tabled transform " << id << " differs from "
            << "generateToomCook";
    }
}

TEST_F(SimdTest, TabledTransformsBitwiseMatchGenericBodies)
{
    constexpr int P = mk::kTilePanel;
    constexpr std::size_t kStride = 19; // tile-row stride > one panel
    Rng rng(91);
    // Finite panel values with exact ±0 mixed in (ReLU and its
    // backward produce both); widened floats, as packTilePanel makes.
    const auto draw = [&rng](std::size_t i) {
        if (i % 11 == 0)
            return 0.0;
        if (i % 13 == 0)
            return -0.0;
        return double(float(-2.0 + 4.0 * rng.uniform()));
    };
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const mk::MicroKernels &K = mk::kernels();
        for (int id = 0; id < 12; ++id) {
            const Matrix &L = toomCookMatrix(id);
            const Matrix R = L.transposed();
            const int p = L.rows(), n = L.cols();
            const mk::XformBodies tb =
                mk::xformBodies(K, L.data(), p, n, R.data(), n, p);
            const bool toTiles = id % 4 == 0 || id % 4 == 3;
            if (isa != mk::Isa::Scalar) {
                // The orientation's own body really is specialized.
                EXPECT_TRUE(toTiles ? tb.toTiles != K.xformToTiles
                                    : tb.fromTiles != K.xformFromTiles)
                    << mk::isaName(isa) << " transform " << id;
            }
            for (int cnt = 1; cnt <= P; ++cnt) {
                const std::string at = std::string(mk::isaName(isa)) +
                                       " transform " +
                                       std::to_string(id) + " cnt " +
                                       std::to_string(cnt);
                std::vector<double> soa(std::size_t(n * n * P));
                std::vector<float> tiles(std::size_t(n * n) * kStride);
                for (std::size_t i = 0; i < soa.size(); ++i)
                    soa[i] = draw(i);
                for (std::size_t i = 0; i < tiles.size(); ++i)
                    tiles[i] = float(draw(i));

                std::vector<double> fromG(std::size_t(p * p * P), -7.0),
                    fromT = fromG;
                K.xformFromTiles(L.data(), p, n, R.data(), n, p,
                                 tiles.data(), kStride, fromG.data(), cnt);
                tb.fromTiles(L.data(), p, n, R.data(), n, p, tiles.data(),
                             kStride, fromT.data(), cnt);
                EXPECT_EQ(0, std::memcmp(fromG.data(), fromT.data(),
                                         fromG.size() * sizeof(double)))
                    << "fromTiles " << at;

                std::vector<float> toG(std::size_t(p * p) * kStride, -7.0f),
                    toT = toG;
                K.xformToTiles(L.data(), p, n, R.data(), n, p, soa.data(),
                               toG.data(), kStride, cnt);
                tb.toTiles(L.data(), p, n, R.data(), n, p, soa.data(),
                           toT.data(), kStride, cnt);
                EXPECT_EQ(0, std::memcmp(toG.data(), toT.data(),
                                         toG.size() * sizeof(float)))
                    << "toTiles " << at;
            }
        }
        // Matching is by value. F(2,5) uses F(4,3)'s six points, so
        // its B^T is F(4,3)'s and runs that body; its A^T is its own
        // and keeps the generic one, as does a tabled matrix paired
        // with something other than its transpose.
        const WinogradAlgo &f25 = algoF2x2_5x5();
        const WinogradAlgo &f4 = algoF4x4_3x3();
        const mk::XformBodies in25 = mk::xformBodies(
            K, f25.BT.data(), 6, 6, f25.B.data(), 6, 6);
        EXPECT_EQ(in25.toTiles,
                  mk::xformBodies(K, f4.BT.data(), 6, 6, f4.B.data(), 6, 6)
                      .toTiles)
            << mk::isaName(isa);
        const mk::XformBodies inv25 = mk::xformBodies(
            K, f25.AT.data(), 2, 6, f25.A.data(), 6, 2);
        EXPECT_EQ(inv25.fromTiles, K.xformFromTiles) << mk::isaName(isa);
        const mk::XformBodies mixed = mk::xformBodies(
            K, f4.BT.data(), 6, 6, f4.BT.data(), 6, 6);
        EXPECT_EQ(mixed.toTiles, K.xformToTiles) << mk::isaName(isa);
    }
}

/** Image b of x as a batch-1 tensor. */
Tensor
imageOf(const Tensor &x, int b)
{
    Tensor out(1, x.c(), x.h(), x.w());
    const std::size_t n = out.size();
    std::memcpy(out.data(), x.data() + std::size_t(b) * n,
                n * sizeof(float));
    return out;
}

/** Image b of X as a batch-1 tile set. */
WinoTiles
imageOf(const WinoTiles &X, int b)
{
    WinoTiles out(X.alphaEdge(), X.channels(), 1, X.tiles());
    for (int uv = 0; uv < X.uvCount(); ++uv)
        for (int c = 0; c < X.channels(); ++c)
            for (int t = 0; t < X.tiles(); ++t)
                out.at(uv, c, 0, t) = X.at(uv, c, b, t);
    return out;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameBits(const WinoTiles &a, const WinoTiles &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.row(0, 0), b.row(0, 0), a.size() * sizeof(float)) ==
               0;
}

TEST_F(SimdTest, SmallMapPanelsSpanImagesBitwise)
{
    // Maps of fewer than kTilePanel tiles run panels across the images
    // of a channel; every image must come out as if run alone.
    struct Case
    {
        int m, h, w;
    };
    const Case cases[] = {{2, 7, 5}, {4, 9, 6}, {6, 8, 8}, {4, 1, 13}};
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        for (const Case &cs : cases) {
            const WinogradAlgo &algo = algoForTile(cs.m);
            ASSERT_LT(TileGrid(cs.h, cs.w, algo).tiles(), mk::kTilePanel);
            Rng rng(unsigned(31 * cs.m + cs.h));
            Tensor x(5, 3, cs.h, cs.w);
            x.fillUniform(rng);
            const WinoTiles X = transformInput(x, algo);
            const Tensor dx = transformInputAdjoint(X, algo, cs.h, cs.w);
            const Tensor y = inverseTransform(X, algo, cs.h, cs.w);
            const WinoTiles dY = inverseTransformAdjoint(x, algo);
            for (int b = 0; b < x.n(); ++b) {
                const std::string at = std::string(mk::isaName(isa)) +
                                       " " + algo.name() + " " +
                                       std::to_string(cs.h) + "x" +
                                       std::to_string(cs.w) + " image " +
                                       std::to_string(b);
                const Tensor xb = imageOf(x, b);
                const WinoTiles Xb = imageOf(X, b);
                EXPECT_TRUE(sameBits(transformInput(xb, algo), Xb))
                    << "input " << at;
                EXPECT_TRUE(sameBits(
                    transformInputAdjoint(Xb, algo, cs.h, cs.w),
                    imageOf(dx, b)))
                    << "input adjoint " << at;
                EXPECT_TRUE(sameBits(inverseTransform(Xb, algo, cs.h, cs.w),
                                     imageOf(y, b)))
                    << "inverse " << at;
                EXPECT_TRUE(sameBits(inverseTransformAdjoint(xb, algo),
                                     imageOf(dY, b)))
                    << "inverse adjoint " << at;
            }
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

TEST_F(SimdTest, DirectConvBitwiseMatchesScalarOnEveryIsa)
{
    Rng rng(9);
    Tensor x(1, 3, 11, 11);
    Tensor w(5, 3, 3, 3);
    Tensor dy(1, 5, 11, 11);
    // Strided, rectangular and padded: 5x3 kernel, stride (2,3), pad
    // (1,2) on a 13x17 map.
    Tensor xr(2, 3, 13, 17);
    Tensor wr(4, 3, 5, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);
    dy.fillUniform(rng);
    xr.fillUniform(rng);
    wr.fillUniform(rng);

    auto run = [&] {
        return std::vector<Tensor>{directConvForward(x, w),
                                   directConvBackwardData(dy, w),
                                   directConvGradWeights(x, dy, 3),
                                   directConvForward(xr, wr, 2, 3, 1, 2)};
    };
    std::vector<Tensor> ref;
    {
        ScopedExecConfig scalar(withIsa(mk::Isa::Scalar));
        ref = run();
    }
    const char *names[] = {"forward", "backward-data", "grad-weights",
                           "strided rectangular forward"};
    // Every product is exact in double, so FMA and mul + add round
    // alike: the vector row kernel is bitwise the scalar one.
    // GradWeights stays on the one scalar kernel by contract: its
    // serial (b, oy, ox) reduction order is part of the bitwise spec.
    for (mk::Isa isa : usableIsas()) {
        ScopedExecConfig isaScope(withIsa(isa));
        const std::vector<Tensor> got = run();
        for (std::size_t k = 0; k < ref.size(); ++k) {
            ASSERT_TRUE(got[k].sameShape(ref[k])) << names[k];
            EXPECT_EQ(0, std::memcmp(ref[k].data(), got[k].data(),
                                     ref[k].size() * sizeof(float)))
                << names[k] << " isa=" << mk::isaName(isa);
        }
    }
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
