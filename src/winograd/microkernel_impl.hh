/**
 * @file
 * Generic vector micro-kernel bodies, parameterized by the VF/VD
 * wrappers of common/simd.hh. Include order in every vector TU:
 *
 *     #include "winograd/microkernel.hh"
 *     #include "common/simd.hh"       // resolves VF/VD for this TU's -m flags
 *     #include "winograd/microkernel_impl.hh"
 *
 * Everything here lives in an anonymous namespace: each TU gets its
 * own copy compiled at its own ISA level, and exports only its
 * distinctly named factory (see WINOMC_MK_DEFINE_TABLE below), so
 * mixing TUs compiled with different -m flags is ODR-clean.
 *
 * Numerics: these bodies may fuse (FMA) and keep W partial sums, but
 * the operation order is a pure function of the lane width, so any
 * fixed ISA level is bitwise reproducible across runs and thread
 * counts. Reductions accumulate in double and combine lanes with a
 * fixed pairwise tree (simd::hsum).
 *
 * Transforms: DenseSandwich reads the coefficients at run time;
 * TabledSandwich runs the same chains over the compile-time tables of
 * xform_tables.hh and is bitwise DenseSandwich for finite inputs. The
 * tile-panel pack and unpack are pure data movement (a float <->
 * double convert at most), so every level is bitwise the scalar
 * loops: AVX2 and AVX-512 pack with one masked gather per transform
 * entry (SSE2 has no gather and keeps the loop), and unpack walks
 * lanes in ascending order, the overlap-add's summation order.
 */

#ifndef WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH
#define WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH

#include <algorithm>
#include <array>
#include <type_traits>
#include <utility>

#include "winograd/xform_tables.hh"

namespace {
namespace mkimpl {

using simd::VD;
using simd::VF;
using winomc::mk::kTilePanel;

static_assert(kTilePanel % VD::W == 0,
              "tile panel must hold whole double vectors");
static_assert(kTilePanel % VF::W == 0 || VF::W > kTilePanel,
              "tile panel must hold whole float vectors");

/** f(std::integral_constant<int, I>{}) for I = 0 .. N-1, unrolled. */
template <int N, typename F>
[[gnu::always_inline]] inline void
unrolled(F &&f)
{
    [&]<int... I>(std::integer_sequence<int, I...>) {
        (f(std::integral_constant<int, I>{}), ...);
    }(std::make_integer_sequence<int, N>{});
}

/** Vectors per accumulator row of rowBlockAccum: a 4 x 4 block of the
 *  32 zmm registers at AVX-512, 4 x 2 of the 16 registers below. */
constexpr int kRowVecs = VF::W >= 16 ? 4 : 2;

/**
 * NV vectors of an NJ-row block at lane k: the NJ x NV accumulators
 * start from y and stay in registers over the whole reduction, one fma
 * per input row in ascending order, each x vector loaded once for all
 * NJ rows. `load` / `store` are the full or the partial forms.
 */
template <int NJ, int NV, typename LoadFn, typename StoreFn>
[[gnu::always_inline]] inline void
rowBlockStep(float *const *y, const float *x, std::size_t xStride, int ni,
             const float *w, std::ptrdiff_t wsJ, std::ptrdiff_t wsI, int k,
             LoadFn load, StoreFn store)
{
    VF acc[NJ][NV];
    const float *wj[NJ];
    unrolled<NJ>([&](auto j) {
        wj[j] = w + j * wsJ;
        unrolled<NV>([&](auto v) { acc[j][v] = load(y[j] + k + v * VF::W); });
    });
    const float *xi = x + k;
    for (int i = 0; i < ni; ++i, xi += xStride) {
        VF xv[NV];
        unrolled<NV>([&](auto v) { xv[v] = load(xi + v * VF::W); });
        unrolled<NJ>([&](auto j) {
            const VF wv = VF::broadcast(*wj[j]);
            wj[j] += wsI;
            unrolled<NV>([&](auto v) {
                acc[j][v] = VF::fma(wv, xv[v], acc[j][v]);
            });
        });
    }
    unrolled<NJ>([&](auto j) {
        unrolled<NV>([&](auto v) { store(acc[j][v], y[j] + k + v * VF::W); });
    });
}

/** rowBlockAccum at a fixed row count: kRowVecs-vector blocks, then
 *  single vectors, then the masked tail. */
template <int NJ>
void
rowBlockFixed(float *const *y, const float *x, std::size_t xStride, int ni,
              const float *w, std::ptrdiff_t wsJ, std::ptrdiff_t wsI,
              int len)
{
    const auto load = [](const float *p) { return VF::load(p); };
    const auto store = [](VF a, float *p) { a.store(p); };
    int k = 0;
    for (; k + kRowVecs * VF::W <= len; k += kRowVecs * VF::W)
        rowBlockStep<NJ, kRowVecs>(y, x, xStride, ni, w, wsJ, wsI, k, load,
                                   store);
    for (; k + VF::W <= len; k += VF::W)
        rowBlockStep<NJ, 1>(y, x, xStride, ni, w, wsJ, wsI, k, load, store);
    if (k < len) {
        const int r = len - k;
        rowBlockStep<NJ, 1>(
            y, x, xStride, ni, w, wsJ, wsI, k,
            [r](const float *p) { return VF::loadPartial(p, r); },
            [r](VF a, float *p) { a.storePartial(p, r); });
    }
}

using RowBlockFn = void (*)(float *const *, const float *, std::size_t,
                            int, const float *, std::ptrdiff_t,
                            std::ptrdiff_t, int);

static_assert(winomc::mk::kRowBlock == 4,
              "kRowBlockFns instantiates blocks of up to 4 rows");

constexpr RowBlockFn kRowBlockFns[4] = {rowBlockFixed<1>, rowBlockFixed<2>,
                                        rowBlockFixed<3>, rowBlockFixed<4>};

void
rowBlockAccum(float *const *y, int nj, const float *x, std::size_t xStride,
              int ni, const float *w, std::ptrdiff_t wsJ,
              std::ptrdiff_t wsI, int len)
{
    kRowBlockFns[nj - 1](y, x, xStride, ni, w, wsJ, wsI, len);
}

/**
 * One FMA step of every pair of an NA x NB block at offset k: the NB
 * b-chunks are loaded once, each a-chunk once, so a full 4 x 4 block
 * does 16 FMAs per 8 loads. `load` is the full or the partial
 * float->double load.
 */
template <int NA, int NB, typename LoadFn>
inline void
dotBlockStep(VD (&c)[NA][NB], const float *const *a,
             const float *const *b, int k, LoadFn load)
{
    VD bv[NB];
#pragma GCC unroll 4
    for (int i = 0; i < NB; ++i)
        bv[i] = load(b[i] + k);
#pragma GCC unroll 4
    for (int j = 0; j < NA; ++j) {
        const VD av = load(a[j] + k);
#pragma GCC unroll 4
        for (int i = 0; i < NB; ++i)
            c[j][i] = VD::fma(av, bv[i], c[j][i]);
    }
}

/**
 * Fixed-size body of dotBlockDouble. Each pair keeps the single-pair
 * reduction order — chain 0 over the even full VD chunks, chain 1
 * over the odd full chunks then the zero-filled tail (whose surplus
 * lanes add exact 0 * 0 terms), combined as hsum(chain0 + chain1) —
 * and each chain runs as its own pass with NA * NB accumulators. The
 * pairs' hsums run VD::W at a time through simd::hsumEach (a short
 * last group padded with zero vectors whose sums are dropped).
 */
template <int NA, int NB>
void
dotBlockFixed(double *acc, int ldAcc, const float *const *a,
              const float *const *b, int len)
{
    const auto full = [](const float *p) {
        return VD::loadFromFloat(p);
    };
    const int chunks = len / VD::W;
    VD c0[NA][NB], c1[NA][NB];
#pragma GCC unroll 4
    for (int j = 0; j < NA; ++j)
#pragma GCC unroll 4
        for (int i = 0; i < NB; ++i)
            c0[j][i] = c1[j][i] = VD::zero();
    for (int q = 0; q < chunks; q += 2)
        dotBlockStep(c0, a, b, q * VD::W, full);
    for (int q = 1; q < chunks; q += 2)
        dotBlockStep(c1, a, b, q * VD::W, full);
    const int k = chunks * VD::W;
    if (k < len) {
        const int r = len - k;
        dotBlockStep(c1, a, b, k, [r](const float *p) {
            return VD::loadFromFloatPartial(p, r);
        });
    }
    constexpr int P = NA * NB;
    unrolled<(P + VD::W - 1) / VD::W>([&](auto g) {
        constexpr int p0 = decltype(g)::value * VD::W;
        VD pairs[VD::W];
        unrolled<VD::W>([&](auto l) {
            constexpr int p = p0 + decltype(l)::value;
            if constexpr (p < P)
                pairs[l] = VD::add(c0[p / NB][p % NB], c1[p / NB][p % NB]);
            else
                pairs[l] = VD::zero();
        });
        double sums[VD::W];
        simd::hsumEach(pairs).store(sums);
        unrolled<VD::W>([&](auto l) {
            constexpr int p = p0 + decltype(l)::value;
            if constexpr (p < P)
                acc[p / NB * ldAcc + p % NB] += sums[l];
        });
    });
}

using DotBlockFn = void (*)(double *, int, const float *const *,
                            const float *const *, int);

static_assert(winomc::mk::kDotBlock == 4,
              "kDotBlockFns instantiates blocks up to 4 x 4");

constexpr DotBlockFn kDotBlockFns[4][4] = {
    {dotBlockFixed<1, 1>, dotBlockFixed<1, 2>, dotBlockFixed<1, 3>,
     dotBlockFixed<1, 4>},
    {dotBlockFixed<2, 1>, dotBlockFixed<2, 2>, dotBlockFixed<2, 3>,
     dotBlockFixed<2, 4>},
    {dotBlockFixed<3, 1>, dotBlockFixed<3, 2>, dotBlockFixed<3, 3>,
     dotBlockFixed<3, 4>},
    {dotBlockFixed<4, 1>, dotBlockFixed<4, 2>, dotBlockFixed<4, 3>,
     dotBlockFixed<4, 4>},
};

void
dotBlockDouble(double *acc, int ldAcc, const float *const *a, int na,
               const float *const *b, int nb, int len)
{
    kDotBlockFns[na - 1][nb - 1](acc, ldAcc, a, b, len);
}

/**
 * The generic SoA sandwich: out = L * in * R per lane, lanes processed
 * VD::W at a time, coefficients read at run time. Every entry is one
 * fma chain from +0 over all terms in ascending order. `loadIn(e, l0,
 * lc)` yields entry e for lanes [l0, l0 + lc); `store(e, l0, lc, v)`
 * writes the output entry.
 */
struct DenseSandwich
{
    template <typename LoadFn, typename StoreFn>
    static void
    run(const double *L, int p, int n, const double *R, int k, int q,
        int cnt, LoadFn loadIn, StoreFn store)
    {
        for (int l0 = 0; l0 < cnt; l0 += VD::W) {
            const int lc = cnt - l0 < VD::W ? cnt - l0 : VD::W;
            VD tmp[8 * 8];
            for (int i = 0; i < p; ++i) {
                for (int j = 0; j < k; ++j) {
                    VD acc = VD::zero();
                    for (int t = 0; t < n; ++t)
                        acc = VD::fma(VD::broadcast(L[i * n + t]),
                                      loadIn(t * k + j, l0, lc), acc);
                    tmp[i * k + j] = acc;
                }
            }
            for (int i = 0; i < p; ++i) {
                for (int j = 0; j < q; ++j) {
                    VD acc = VD::zero();
                    for (int t = 0; t < k; ++t)
                        acc = VD::fma(VD::broadcast(R[t * q + j]),
                                      tmp[i * k + t], acc);
                    store(i * q + j, l0, lc, acc);
                }
            }
        }
    }
};

/**
 * sum_t M(Row, t) * x[t * S] for t < M::cols, as DenseSandwich's fma
 * chain computes it, on compile-time coefficients. Terms with a 0
 * coefficient are dropped: the dense chain starts at +0 and can never
 * reach -0 (x + y is -0 only if both are), so adding their exact ±0
 * product changes nothing for finite x. A ±1 coefficient becomes an
 * add or subtract, which is what fma(±1, x, acc) rounds to. The first
 * surviving term still adds into +0, as the dense chain does.
 */
template <class M, int Row, int S, int T = 0>
[[gnu::always_inline]] inline VD
tabledChain(const VD *x, VD acc = VD::zero())
{
    if constexpr (T == M::cols) {
        return acc;
    } else {
        constexpr double c = M::at(Row, T);
        if constexpr (c == 0.0) {
            return tabledChain<M, Row, S, T + 1>(x, acc);
        } else {
            VD next;
            if constexpr (c == 1.0)
                next = VD::add(acc, x[T * S]);
            else if constexpr (c == -1.0)
                next = VD::sub(acc, x[T * S]);
            else
                next = VD::fma(VD::broadcast(c), x[T * S], acc);
            return tabledChain<M, Row, S, T + 1>(x, next);
        }
    }
}

/**
 * DenseSandwich for out = M * in * M^T with M a tabled transform
 * (xform_tables.hh): straight-line code whose independent chains the
 * compiler interleaves. Bitwise DenseSandwich for finite inputs (see
 * tabledChain); the run-time L/R/dims arguments are ignored.
 */
template <class M>
struct TabledSandwich
{
    template <typename LoadFn, typename StoreFn>
    static void
    run(const double *, int, int, const double *, int, int, int cnt,
        LoadFn loadIn, StoreFn store)
    {
        constexpr int p = M::rows, n = M::cols;
        for (int l0 = 0; l0 < cnt; l0 += VD::W) {
            const int lc = cnt - l0 < VD::W ? cnt - l0 : VD::W;
            VD in[n * n], tmp[p * n];
            unrolled<n * n>([&](auto e) { in[e] = loadIn(e, l0, lc); });
            // tmp = M * in: column j of in has stride n.
            unrolled<p>([&](auto i) {
                unrolled<n>([&](auto j) {
                    tmp[i * n + j] =
                        tabledChain<M, decltype(i)::value, n>(in + j);
                });
            });
            // out = tmp * M^T: entry (i, j) walks row j of M.
            unrolled<p>([&](auto i) {
                unrolled<p>([&](auto j) {
                    store(i * p + j, l0, lc,
                          tabledChain<M, decltype(j)::value, 1>(
                              tmp + i * n));
                });
            });
        }
    }
};

template <class Body = DenseSandwich>
void
xformFromTiles(const double *L, int p, int n, const double *R, int k,
               int q, const float *in, std::size_t inStride, double *out,
               int cnt)
{
    Body::run(
        L, p, n, R, k, q, cnt,
        [&](int e, int l0, int lc) {
            const float *src = in + std::size_t(e) * inStride + l0;
            return lc == VD::W ? VD::loadFromFloat(src)
                               : VD::loadFromFloatPartial(src, lc);
        },
        [&](int e, int l0, int, VD v) {
            // The SoA panel always holds kTilePanel lanes, so a full
            // store stays in bounds; surplus lanes are never read.
            v.store(out + e * kTilePanel + l0);
        });
}

template <class Body = DenseSandwich>
void
xformToTiles(const double *L, int p, int n, const double *R, int k,
             int q, const double *in, float *out, std::size_t outStride,
             int cnt)
{
    Body::run(
        L, p, n, R, k, q, cnt,
        [&](int e, int l0, int) {
            return VD::load(in + e * kTilePanel + l0);
        },
        [&](int e, int l0, int lc, VD v) {
            float *dst = out + std::size_t(e) * outStride + l0;
            if (lc == VD::W)
                v.storeToFloat(dst);
            else
                v.storeToFloatPartial(dst, lc);
        });
}

template <class Body = DenseSandwich>
void
xformToTilesHalf(const double *L, int p, int n, const double *R, int k,
                 int q, const double *in, std::uint16_t *out,
                 std::size_t outStride, int cnt, int halfKind)
{
    const bool bf16 = halfKind == winomc::mk::kHalfBf16;
    Body::run(
        L, p, n, R, k, q, cnt,
        [&](int e, int l0, int) {
            return VD::load(in + e * kTilePanel + l0);
        },
        [&](int e, int l0, int lc, VD v) {
            // Round double -> float exactly as xformToTiles would,
            // then encode with the software RNE reference so every
            // ISA level writes identical bits.
            float tmp[VD::W > 4 ? VD::W : 4] = {};
            v.storeToFloat(tmp);
            std::uint16_t *dst = out + std::size_t(e) * outStride + l0;
            if (bf16)
                for (int l = 0; l < lc; ++l)
                    dst[l] = winomc::half::f32ToBf16(tmp[l]);
            else
                for (int l = 0; l < lc; ++l)
                    dst[l] = winomc::half::f32ToF16(tmp[l]);
        });
}

/** The bodies tabled transform Id runs: spatial -> tiles for the input
 *  and inverse-adjoint orientations, tiles -> spatial for the others. */
template <int Id>
constexpr winomc::mk::XformBodies
tabledBodies()
{
    using M = TabledSandwich<winomc::mk::xf::TabledXform<Id>>;
    constexpr int o = Id % winomc::mk::xf::kOrients;
    if constexpr (o == winomc::mk::xf::kInput ||
                  o == winomc::mk::xf::kInverseAdjoint)
        return {nullptr, xformToTiles<M>, xformToTilesHalf<M>};
    else
        return {xformFromTiles<M>, nullptr, nullptr};
}

constexpr auto kTabled =
    []<int... Id>(std::integer_sequence<int, Id...>) {
        return std::array<winomc::mk::XformBodies, sizeof...(Id)>{
            tabledBodies<Id>()...};
    }(std::make_integer_sequence<int, winomc::mk::xf::kTabledXforms>{});

#if WINOMC_SIMD_LEVEL == 3

/**
 * Spatial -> SoA gather, one masked gather per transform entry: lane l
 * of entry (i, j) loads plane[lanePlane[l] + (tr[l]+i)*w + tc[l]+j]
 * when that pixel is inside the map and l < cnt, else +0.0 (padding,
 * boundary crop and surplus lanes alike), so border panels take the
 * same path as interior ones. Pure data movement: bitwise the scalar
 * loop.
 */
void
packTilePanel(double *soa, const float *plane, const int *lanePlane,
              int h, int w, const int *tr, const int *tc, int eh, int ew,
              int cnt)
{
    const __mmask16 lanes = __mmask16((1u << cnt) - 1u);
    const __m512i r0 = _mm512_maskz_loadu_epi32(lanes, tr);
    const __m512i c0 = _mm512_maskz_loadu_epi32(lanes, tc);
    const __m512i base = _mm512_add_epi32(
        _mm512_maskz_loadu_epi32(lanes, lanePlane),
        _mm512_add_epi32(_mm512_mullo_epi32(r0, _mm512_set1_epi32(w)),
                         c0));
    // Unsigned compares: a negative row or column wraps above h / w.
    __mmask16 colIn[winomc::mk::kMaxTileEdge];
    for (int j = 0; j < ew; ++j)
        colIn[j] = _mm512_cmplt_epu32_mask(
            _mm512_add_epi32(c0, _mm512_set1_epi32(j)),
            _mm512_set1_epi32(w));
    for (int i = 0; i < eh; ++i) {
        const __mmask16 rowIn =
            lanes & _mm512_cmplt_epu32_mask(
                        _mm512_add_epi32(r0, _mm512_set1_epi32(i)),
                        _mm512_set1_epi32(h));
        const __m512i rowIdx =
            _mm512_add_epi32(base, _mm512_set1_epi32(i * w));
        for (int j = 0; j < ew; ++j) {
            const __m512 v = _mm512_mask_i32gather_ps(
                _mm512_setzero_ps(), __mmask16(rowIn & colIn[j]),
                _mm512_add_epi32(rowIdx, _mm512_set1_epi32(j)), plane, 4);
            double *dst = soa + std::size_t(i * ew + j) * kTilePanel;
            _mm512_storeu_pd(dst,
                             _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
            _mm512_storeu_pd(dst + 8,
                             _mm512_cvtps_pd(_mm256_castpd_ps(
                                 _mm512_extractf64x4_pd(
                                     _mm512_castps_pd(v), 1))));
        }
    }
}

#elif WINOMC_SIMD_LEVEL == 2

/**
 * AVX2 form of the masked-gather pack: two 8-lane gathers per entry
 * (the second skipped, stored as zeros, when cnt <= 8).
 */
void
packTilePanel(double *soa, const float *plane, const int *lanePlane,
              int h, int w, const int *tr, const int *tc, int eh, int ew,
              int cnt)
{
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i minus1 = _mm256_set1_epi32(-1);
    const __m256i hv = _mm256_set1_epi32(h);
    const __m256i wv = _mm256_set1_epi32(w);
    for (int l0 = 0; l0 < kTilePanel; l0 += 8) {
        if (cnt <= l0) {
            for (int e = 0; e < eh * ew; ++e) {
                double *dst = soa + std::size_t(e) * kTilePanel + l0;
                _mm256_storeu_pd(dst, _mm256_setzero_pd());
                _mm256_storeu_pd(dst + 4, _mm256_setzero_pd());
            }
            continue;
        }
        const __m256i lanes =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(cnt - l0), iota);
        const __m256i r0 = _mm256_maskload_epi32(tr + l0, lanes);
        const __m256i c0 = _mm256_maskload_epi32(tc + l0, lanes);
        const __m256i base = _mm256_add_epi32(
            _mm256_maskload_epi32(lanePlane + l0, lanes),
            _mm256_add_epi32(_mm256_mullo_epi32(r0, wv), c0));
        // in-range(v, n): -1 < v && v < n.
        const auto inRange = [&](__m256i v, __m256i n) {
            return _mm256_and_si256(_mm256_cmpgt_epi32(v, minus1),
                                    _mm256_cmpgt_epi32(n, v));
        };
        __m256i colIn[winomc::mk::kMaxTileEdge];
        for (int j = 0; j < ew; ++j)
            colIn[j] = inRange(
                _mm256_add_epi32(c0, _mm256_set1_epi32(j)), wv);
        for (int i = 0; i < eh; ++i) {
            const __m256i rowIn = _mm256_and_si256(
                lanes,
                inRange(_mm256_add_epi32(r0, _mm256_set1_epi32(i)), hv));
            const __m256i rowIdx =
                _mm256_add_epi32(base, _mm256_set1_epi32(i * w));
            for (int j = 0; j < ew; ++j) {
                const __m256 v = _mm256_mask_i32gather_ps(
                    _mm256_setzero_ps(), plane,
                    _mm256_add_epi32(rowIdx, _mm256_set1_epi32(j)),
                    _mm256_castsi256_ps(_mm256_and_si256(rowIn, colIn[j])),
                    4);
                double *dst =
                    soa + std::size_t(i * ew + j) * kTilePanel + l0;
                _mm256_storeu_pd(dst,
                                 _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
                _mm256_storeu_pd(dst + 4,
                                 _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
            }
        }
    }
}

#else

/** SSE2 has no gather: the scalar loop structure, bounds per element. */
void
packTilePanel(double *soa, const float *planes, const int *lanePlane,
              int h, int w, const int *tr, const int *tc, int eh, int ew,
              int cnt)
{
    for (int l = 0; l < cnt; ++l) {
        const float *plane = planes + lanePlane[l];
        const int r0 = tr[l];
        const int c0 = tc[l];
        for (int i = 0; i < eh; ++i) {
            const int rr = r0 + i;
            const bool rowIn = rr >= 0 && rr < h;
            for (int j = 0; j < ew; ++j) {
                const int cc = c0 + j;
                const bool in_map = rowIn && cc >= 0 && cc < w;
                soa[std::size_t(i * ew + j) * kTilePanel + l] =
                    in_map ? double(plane[std::size_t(rr) * w + cc])
                           : 0.0;
            }
        }
    }
    // Surplus lanes must stay defined for whole-vector panel sweeps.
    if (cnt < kTilePanel)
        for (int e = 0; e < eh * ew; ++e)
            for (int l = cnt; l < kTilePanel; ++l)
                soa[std::size_t(e) * kTilePanel + l] = 0.0;
}

#endif

template <bool kAdd>
inline void
putFloat(float &dst, double v)
{
    if constexpr (kAdd)
        dst += float(v);
    else
        dst = float(v);
}

/** One lane's eh x EW block, wholly inside the map, from the SoA
 *  panel (src = soa + lane) to the plane at `row`: no tests, and the
 *  row unrolled at its compile-time width. */
template <bool kAdd, int EW>
void
unpackInsideLane(float *row, int w, int eh, const double *src)
{
    for (int i = 0; i < eh; ++i, row += w, src += EW * kTilePanel)
        unrolled<EW>([&](auto j) {
            putFloat<kAdd>(row[j], src[j * kTilePanel]);
        });
}

template <bool kAdd>
constexpr auto kUnpackInside =
    []<int... J>(std::integer_sequence<int, J...>) {
        return std::array{unpackInsideLane<kAdd, J + 1>...};
    }(std::make_integer_sequence<int, winomc::mk::kMaxTileEdge>{});

/**
 * SoA -> spatial scatter (kAdd: overlap-add), lanes strictly in
 * ascending order — the order the overlap-add sums in is part of the
 * bitwise contract. A lane whose eh x ew block lies inside the map
 * stores without per-element tests; a border lane crops its block to
 * the map once. Pure data movement: bitwise the scalar loops.
 */
template <bool kAdd>
void
unpackPanel(float *plane, int h, int w, const int *tr, const int *tc,
            int eh, int ew, const double *soa, int cnt)
{
    const auto inside = kUnpackInside<kAdd>[std::size_t(ew - 1)];
    for (int l = 0; l < cnt; ++l) {
        const int r0 = tr[l];
        const int c0 = tc[l];
        const double *src = soa + l;
        if (r0 >= 0 && c0 >= 0 && r0 + eh <= h && c0 + ew <= w) {
            inside(plane + std::size_t(r0) * w + c0, w, eh, src);
            continue;
        }
        // Border lane: crop the block to the map once, not per entry.
        const int i1 = std::min(eh, h - r0);
        const int j0 = std::max(0, -c0), j1 = std::min(ew, w - c0);
        for (int i = std::max(0, -r0); i < i1; ++i) {
            float *row = plane + std::size_t(r0 + i) * w;
            const double *s = src + std::size_t(i * ew) * kTilePanel;
            for (int j = j0; j < j1; ++j)
                putFloat<kAdd>(row[c0 + j], s[j * kTilePanel]);
        }
    }
}

void
rowAccumDouble(double *acc, const float *x, double w, int n)
{
    const VD wv = VD::broadcast(w);
    int i = 0;
    for (; i + VD::W <= n; i += VD::W) {
        VD a = VD::load(acc + i);
        a = VD::fma(VD::loadFromFloat(x + i), wv, a);
        a.store(acc + i);
    }
    for (; i < n; ++i)
        acc[i] += double(x[i]) * w;
}

double
sumDouble(const float *x, std::int64_t n)
{
    VD acc = VD::zero();
    std::int64_t i = 0;
    for (; i + VD::W <= n; i += VD::W)
        acc = VD::add(acc, VD::loadFromFloat(x + i));
    if (i < n)
        acc = VD::add(acc, VD::loadFromFloatPartial(x + i, int(n - i)));
    return simd::hsum(acc);
}

void
reluForward(float *y, float *mask, const float *x, std::int64_t n)
{
    std::int64_t i = 0;
    if (mask) {
        for (; i + VF::W <= n; i += VF::W) {
            VF v = VF::load(x + i);
            VF::reluOf(v).store(y + i);
            VF::gtZeroOne(v).store(mask + i);
        }
        if (i < n) {
            const int r = int(n - i);
            VF v = VF::loadPartial(x + i, r);
            VF::reluOf(v).storePartial(y + i, r);
            VF::gtZeroOne(v).storePartial(mask + i, r);
        }
    } else {
        for (; i + VF::W <= n; i += VF::W)
            VF::reluOf(VF::load(x + i)).store(y + i);
        if (i < n) {
            const int r = int(n - i);
            VF::reluOf(VF::loadPartial(x + i, r)).storePartial(y + i, r);
        }
    }
}

void
mulPairwise(float *dst, const float *a, const float *b, std::int64_t n)
{
    std::int64_t i = 0;
    for (; i + VF::W <= n; i += VF::W)
        VF::mul(VF::load(a + i), VF::load(b + i)).store(dst + i);
    if (i < n) {
        const int r = int(n - i);
        VF::mul(VF::loadPartial(a + i, r), VF::loadPartial(b + i, r))
            .storePartial(dst + i, r);
    }
}

void
axpy(float *y, float a, const float *x, std::int64_t n)
{
    const VF av = VF::broadcast(a);
    std::int64_t i = 0;
    for (; i + VF::W <= n; i += VF::W)
        VF::fma(av, VF::load(x + i), VF::load(y + i)).store(y + i);
    if (i < n) {
        const int r = int(n - i);
        VF::fma(av, VF::loadPartial(x + i, r), VF::loadPartial(y + i, r))
            .storePartial(y + i, r);
    }
}

void
panelAccumGrouped(float *y, const float *const *x, const float *w,
                  int nv, int len, const std::uint8_t * /*grpNv*/,
                  int /*nGroups*/, int /*tailOrig*/)
{
    // One sequential FMA chain over all surviving rows — exactly the
    // chain the blocked per-group calls would produce, so the group
    // structure only matters to the scalar TU. The chain is serial in
    // v by the bitwise contract; the only ILP available is across k,
    // so run four independent column accumulators per pass (each
    // element still sees its own unchanged chain).
    int k = 0;
    for (; k + 4 * VF::W <= len; k += 4 * VF::W) {
        VF a0 = VF::load(y + k);
        VF a1 = VF::load(y + k + VF::W);
        VF a2 = VF::load(y + k + 2 * VF::W);
        VF a3 = VF::load(y + k + 3 * VF::W);
        for (int v = 0; v < nv; ++v) {
            const float *xv = x[v] + k;
            const VF wv = VF::broadcast(w[v]);
            a0 = VF::fma(wv, VF::load(xv), a0);
            a1 = VF::fma(wv, VF::load(xv + VF::W), a1);
            a2 = VF::fma(wv, VF::load(xv + 2 * VF::W), a2);
            a3 = VF::fma(wv, VF::load(xv + 3 * VF::W), a3);
        }
        a0.store(y + k);
        a1.store(y + k + VF::W);
        a2.store(y + k + 2 * VF::W);
        a3.store(y + k + 3 * VF::W);
    }
    for (; k + VF::W <= len; k += VF::W) {
        VF acc = VF::load(y + k);
        for (int v = 0; v < nv; ++v)
            acc = VF::fma(VF::broadcast(w[v]), VF::load(x[v] + k), acc);
        acc.store(y + k);
    }
    if (k < len) {
        const int r = len - k;
        VF acc = VF::loadPartial(y + k, r);
        for (int v = 0; v < nv; ++v)
            acc = VF::fma(VF::broadcast(w[v]),
                          VF::loadPartial(x[v] + k, r), acc);
        acc.storePartial(y + k, r);
    }
}

void
panelAccumHalf(float *y, const std::uint16_t *const *x, const float *w,
               int nv, int len, int halfKind)
{
    const bool bf16 = halfKind == winomc::mk::kHalfBf16;
    int k = 0;
    // Two independent column accumulators: the per-row chain is serial
    // by the bitwise contract, so ILP comes from the k axis (each
    // element keeps its own unchanged chain).
    for (; k + 2 * VF::W <= len; k += 2 * VF::W) {
        VF a0 = VF::load(y + k);
        VF a1 = VF::load(y + k + VF::W);
        for (int v = 0; v < nv; ++v) {
            const std::uint16_t *xv = x[v] + k;
            const VF wv = VF::broadcast(w[v]);
            a0 = VF::fma(wv, bf16 ? VF::loadBf16(xv) : VF::loadF16(xv),
                         a0);
            a1 = VF::fma(wv,
                         bf16 ? VF::loadBf16(xv + VF::W)
                              : VF::loadF16(xv + VF::W),
                         a1);
        }
        a0.store(y + k);
        a1.store(y + k + VF::W);
    }
    for (; k + VF::W <= len; k += VF::W) {
        VF acc = VF::load(y + k);
        for (int v = 0; v < nv; ++v) {
            const VF xv = bf16 ? VF::loadBf16(x[v] + k)
                               : VF::loadF16(x[v] + k);
            acc = VF::fma(VF::broadcast(w[v]), xv, acc);
        }
        acc.store(y + k);
    }
    if (k < len) {
        const int r = len - k;
        VF acc = VF::loadPartial(y + k, r);
        for (int v = 0; v < nv; ++v) {
            const VF xv = bf16 ? VF::loadBf16Partial(x[v] + k, r)
                               : VF::loadF16Partial(x[v] + k, r);
            acc = VF::fma(VF::broadcast(w[v]), xv, acc);
        }
        acc.storePartial(y + k, r);
    }
}

std::uint64_t
nonzeroMask(const float *w, int n)
{
    std::uint64_t m = 0;
    int i = 0;
    for (; i + VF::W <= n; i += VF::W)
        m |= std::uint64_t(VF::nonzeroBits(VF::load(w + i))) << i;
    if (i < n) // zero-filled lanes set no bit
        m |= std::uint64_t(VF::nonzeroBits(VF::loadPartial(w + i, n - i)))
             << i;
    return m;
}

std::uint64_t
panelZeroMask(const float *x, std::size_t stride, int entries, int cnt)
{
    // A row is zero iff no lane compares != 0.0f (every lane ±0; NaN
    // and denormals count as nonzero), the scalar test, one vector
    // compare per VF::W lanes whatever the optimizer vectorizes.
    std::uint64_t m = 0;
    for (int e = 0; e < entries; ++e) {
        const float *p = x + std::size_t(e) * stride;
        unsigned bits = 0;
        int l = 0;
        for (; l + VF::W <= cnt; l += VF::W)
            bits |= VF::nonzeroBits(VF::load(p + l));
        if (l < cnt)
            bits |= VF::nonzeroBits(VF::loadPartial(p + l, cnt - l));
        if (!bits)
            m |= std::uint64_t(1) << e;
    }
    return m;
}

std::uint64_t
panelZeroMaskHalf(const std::uint16_t *x, std::size_t stride,
                  int entries, int cnt)
{
    std::uint64_t m = 0;
    for (int e = 0; e < entries; ++e) {
        const std::uint16_t *p = x + std::size_t(e) * stride;
        unsigned bits = 0;
        for (int l = 0; l < cnt; ++l)
            bits |= p[l];
        if (!(bits & 0x7fffu)) // both formats: ±0 only
            m |= std::uint64_t(1) << e;
    }
    return m;
}

void
avgPool2Row(float *y, const float *r0, const float *r1, int outW)
{
    // Deinterleave through small stack panels, then combine with the
    // exact scalar association ((a + b) + c) + d so every ISA level
    // matches the scalar result bitwise.
    const VF quarter = VF::broadcast(0.25f);
    int o = 0;
    for (; o + VF::W <= outW; o += VF::W) {
        float t0[VF::W], t1[VF::W], t2[VF::W], t3[VF::W];
        for (int l = 0; l < VF::W; ++l) {
            t0[l] = r0[2 * (o + l)];
            t1[l] = r0[2 * (o + l) + 1];
            t2[l] = r1[2 * (o + l)];
            t3[l] = r1[2 * (o + l) + 1];
        }
        VF s = VF::add(
            VF::add(VF::add(VF::load(t0), VF::load(t1)), VF::load(t2)),
            VF::load(t3));
        VF::mul(quarter, s).store(y + o);
    }
    for (; o < outW; ++o)
        y[o] = 0.25f *
               (r0[2 * o] + r0[2 * o + 1] + r1[2 * o] + r1[2 * o + 1]);
}

} // namespace mkimpl
} // namespace

/**
 * Expands to the factory definition for this TU's ISA level. The table
 * is a function-local static so it needs no global constructor order.
 */
#define WINOMC_MK_DEFINE_TABLE(factoryName, isaEnum, isaStr)              \
    namespace winomc::mk::detail {                                        \
    const MicroKernels *factoryName()                                     \
    {                                                                     \
        static const MicroKernels table = {                               \
            isaEnum,          isaStr,                                     \
            simd::VF::W,      simd::VD::W,                                \
            mkimpl::rowBlockAccum,  mkimpl::dotBlockDouble,               \
            mkimpl::xformFromTiles<>, mkimpl::xformToTiles<>,             \
            mkimpl::packTilePanel,  mkimpl::unpackPanel<false>,           \
            mkimpl::unpackPanel<true>,                                    \
            mkimpl::rowAccumDouble, mkimpl::sumDouble,                    \
            mkimpl::reluForward,    mkimpl::mulPairwise,                  \
            mkimpl::axpy,           mkimpl::avgPool2Row,                  \
            mkimpl::panelAccumGrouped, mkimpl::panelAccumHalf,            \
            mkimpl::xformToTilesHalf<>, mkimpl::kTabled.data(),           \
            mkimpl::nonzeroMask,                                          \
            mkimpl::panelZeroMask,  mkimpl::panelZeroMaskHalf,            \
        };                                                                \
        return &table;                                                    \
    }                                                                     \
    }

#endif // WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH
