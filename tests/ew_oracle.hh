/**
 * @file
 * Naive per-element oracles of the element-wise GEMM micro-kernels,
 * restated in portable code so the parity tests do not lean on the
 * kernels under test.
 *
 *  - rowBlockRef: mk::rowBlockAccum. Vector levels: each element is
 *    one chain of std::fma from y's value over every input row in
 *    ascending order. Scalar:
 *    the blocked nest of the scalar table (8 input rows at a time, a
 *    flat 8-term sum for a full block, an accumulate loop for a ragged
 *    one, a row's all-zero 8-weight block skipped).
 *  - perPairDot: one pair's dot product over one mk::kGradKBlock-lane
 *    block of mk::gradWeights; pairLanes and hsumTree are its
 *    vector-level halves.
 *
 * The test TUs are compiled with the baseline flags (no FMA), so
 * `acc + w * x` rounds twice, as the scalar table does, and every
 * vector level's fused step is spelled std::fma.
 */

#ifndef WINOMC_TESTS_EW_ORACLE_HH
#define WINOMC_TESTS_EW_ORACLE_HH

#include <cmath>
#include <cstddef>

#include "winograd/microkernel.hh"

namespace winomc::test {

/** y[j][k] += sum_i w[j * wsJ + i * wsI] * x[i * xStride + k] as ISA
 *  `isa` computes it (see the file comment). */
inline void
rowBlockRef(mk::Isa isa, float *const *y, int nj, const float *x,
            std::size_t xStride, int ni, const float *w,
            std::ptrdiff_t wsJ, std::ptrdiff_t wsI, int len)
{
    const auto xAt = [&](int i, int k) {
        return x[std::size_t(i) * xStride + std::size_t(k)];
    };
    for (int j = 0; j < nj; ++j) {
        const auto wAt = [&](int i) { return w[j * wsJ + i * wsI]; };
        for (int k = 0; k < len; ++k) {
            float acc = y[j][k];
            if (isa != mk::Isa::Scalar) {
                for (int i = 0; i < ni; ++i)
                    acc = std::fma(wAt(i), xAt(i, k), acc);
                y[j][k] = acc;
                continue;
            }
            for (int i0 = 0; i0 < ni; i0 += 8) {
                const int ib = ni - i0 < 8 ? ni - i0 : 8;
                bool any = false;
                for (int i = i0; i < i0 + ib; ++i)
                    any = any || wAt(i) != 0.0f;
                if (!any)
                    continue;
                if (ib == 8) {
                    float s = wAt(i0) * xAt(i0, k);
                    for (int i = i0 + 1; i < i0 + 8; ++i)
                        s += wAt(i) * xAt(i, k);
                    acc += s;
                } else {
                    for (int i = i0; i < i0 + ib; ++i)
                        acc += wAt(i) * xAt(i, k);
                }
            }
            y[j][k] = acc;
        }
    }
}

/**
 * The lane values c0 + c1 (lanes <= 8 of them) whose hsum is one
 * vector-level gradWeights pair block: per lane, chain 0 over the even
 * full chunks of `lanes` doubles, chain 1 over the odd ones and then
 * the zero-filled tail, each step one std::fma.
 */
inline void
pairLanes(int lanes, const float *a, const float *b, int len, double *out)
{
    const auto step = [](double &acc, double x, double y) {
        acc = std::fma(x, y, acc);
    };
    double c1[8] = {};
    for (int l = 0; l < lanes; ++l)
        out[l] = 0.0;
    const int chunks = len / lanes;
    for (int q = 0; q < chunks; ++q)
        for (int l = 0; l < lanes; ++l)
            step(q % 2 ? c1[l] : out[l], a[q * lanes + l],
                 b[q * lanes + l]);
    if (chunks * lanes < len)
        for (int l = 0; l < lanes; ++l) {
            const int k = chunks * lanes + l;
            step(c1[l], k < len ? a[k] : 0.0f, k < len ? b[k] : 0.0f);
        }
    for (int l = 0; l < lanes; ++l)
        out[l] += c1[l];
}

/** simd::hsum's tree over v[0..lanes): adjacent lanes, then adjacent
 *  pair sums, ... (v is overwritten). */
inline double
hsumTree(double *v, int lanes)
{
    for (int n = lanes; n > 1; n /= 2)
        for (int i = 0; i < n / 2; ++i)
            v[i] = v[2 * i] + v[2 * i + 1];
    return v[0];
}

/**
 * One gradWeights pair block as `isa` computes it. Scalar: four chains,
 * the tail into chain 0, (s0 + s1) + (s2 + s3). Vector levels:
 * hsumTree over pairLanes.
 */
inline double
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
    double v[8] = {};
    pairLanes(lanes, a, b, len, v);
    return hsumTree(v, lanes);
}

} // namespace winomc::test

#endif // WINOMC_TESTS_EW_ORACLE_HH
