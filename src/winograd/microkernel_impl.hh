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
 * loops: pack is one masked gather per transform entry, and unpack
 * walks lanes in ascending order, the overlap-add's summation order.
 */

#ifndef WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH
#define WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
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
 *  32 zmm registers at AVX-512, 4 x 2 of the 16 at AVX2. */
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

/** Double vectors per panel of gradWeights' wide operand, and narrow
 *  rows per register block: 4 x 2 vectors x 2 chains = 16 of the 32
 *  registers at AVX-512, 2 x 2 x 2 = 8 of the 16 at AVX2. */
constexpr int kGradVecs = 2;
constexpr int kGradPanel = kGradVecs * VD::W;
constexpr int kGradRows = VD::W >= 8 ? 4 : 2;
static_assert(winomc::mk::kGradPanelPad % kGradPanel == 0 &&
                  winomc::mk::kGradKBlock % (2 * VD::W) == 0 &&
                  winomc::mk::kGradLanePad % (2 * VD::W) == 0,
              "gradWeightsScratch must cover every level's padding");

/**
 * A narrow side of fewer rows than this takes gradWeights' row path:
 * packing the wide side costs about as much per element as four
 * narrow rows' fmas on it.
 */
constexpr int kGradRowPath = 4;

/**
 * simd::hsum's adjacent-pair tree over s[0 .. VD::W), with vertical
 * adds: lane p of the result is the tree over lane p of every s[l]
 * (s is overwritten).
 */
[[gnu::always_inline]] inline VD
foldTree(VD *s)
{
    for (int n = VD::W; n > 1; n /= 2)
        for (int i = 0; i < n / 2; ++i)
            s[i] = VD::add(s[2 * i], s[2 * i + 1]);
    return s[0];
}

/**
 * Where the lanes of one k block sit once packed. The block's chunks
 * of VD::W lanes fill an even number of slots so that a slot's parity
 * is its chain: full chunk q in slot q, the zero-filled tail chunk in
 * the first odd slot not below the full ones (chain 1), every other
 * slot +0. An all-zero slot adds exact +0 terms to a chain that starts
 * at +0, which never changes it.
 */
struct GradSlots
{
    explicit GradSlots(int kb)
        : chunks(kb / VD::W), tailLanes(kb % VD::W),
          pairs((chunks + (tailLanes ? 2 : 1)) / 2)
    {
    }

    /** Slot s of the block row at p (the block's lane 0) as doubles. */
    [[gnu::always_inline]] VD
    load(const float *p, int s) const
    {
        if (s < chunks)
            return VD::loadFromFloat(p + s * VD::W);
        if (tailLanes && s == (chunks | 1))
            return VD::loadFromFloatPartial(p + chunks * VD::W, tailLanes);
        return VD::zero();
    }

    int chunks, tailLanes;
    int pairs; ///< slots / 2
};

/**
 * The wide operand of one k block in panel-major, slot order:
 * pan[(c / kGradPanel) * lanes * kGradPanel + k * kGradPanel +
 * c % kGradPanel] for slot lanes k < lanes = 2 * pairs * VD::W, +0 in
 * the padding columns up to wPad. VD::W rows at a time are converted
 * and transposed in registers.
 */
void
packGradPanel(double *pan, const float *rows, std::size_t stride, int nw,
              int wPad, const GradSlots &g)
{
    const int lanes = 2 * g.pairs * VD::W;
    for (int c0 = 0; c0 < wPad; c0 += VD::W) {
        double *dst = pan + std::size_t(c0 / kGradPanel) * lanes *
                                kGradPanel +
                      c0 % kGradPanel;
        const int rc = nw - c0;
        for (int s = 0; s < 2 * g.pairs; ++s) {
            VD r[VD::W];
            unrolled<VD::W>([&](auto l) {
                r[l] = l < rc ? g.load(rows + (c0 + l) * stride, s)
                              : VD::zero();
            });
            simd::transpose(r);
            unrolled<VD::W>([&](auto l) {
                r[l].store(dst + std::size_t(s * VD::W + l) * kGradPanel);
            });
        }
    }
}

/** One slot lane k into c: lane k of the RN narrow rows (broadcast)
 *  times lane k of the panel's kGradVecs vectors. */
template <int RN>
[[gnu::always_inline]] inline void
gradStep(VD (&c)[RN][kGradVecs], const double *nar, int ldNar,
         const double *pan, int k)
{
    VD pv[kGradVecs];
    for (int v = 0; v < kGradVecs; ++v)
        pv[v] = VD::load(pan + k * kGradPanel + v * VD::W);
    for (int r = 0; r < RN; ++r) {
        const VD b = VD::broadcast(nar[r * ldNar + k]);
        for (int v = 0; v < kGradVecs; ++v)
            c[r][v] = VD::fma(b, pv[v], c[r][v]);
    }
}

/**
 * Panel path: RN narrow rows (slot lanes, row stride ldNar) x one
 * kGradPanel-wide panel of a k block of `pairs` slot pairs. For each
 * lane class l the pair's two chains run interleaved in registers,
 * chain 0 over the even slots and chain 1 over the odd ones; the
 * classes' c0 + c1 fold with foldTree into acc (row stride ldAcc).
 */
template <int RN>
void
gradBlock(double *acc, int ldAcc, const double *nar, int ldNar,
          const double *pan, int pairs)
{
    VD sum[VD::W][RN][kGradVecs];
    for (int l = 0; l < VD::W; ++l) {
        VD c0[RN][kGradVecs], c1[RN][kGradVecs];
        for (int r = 0; r < RN; ++r)
            for (int v = 0; v < kGradVecs; ++v)
                c0[r][v] = c1[r][v] = VD::zero();
        for (int k = l; k < 2 * pairs * VD::W; k += 2 * VD::W) {
            gradStep<RN>(c0, nar, ldNar, pan, k);
            gradStep<RN>(c1, nar, ldNar, pan, k + VD::W);
        }
        for (int r = 0; r < RN; ++r)
            for (int v = 0; v < kGradVecs; ++v)
                sum[l][r][v] = VD::add(c0[r][v], c1[r][v]);
    }
    for (int r = 0; r < RN; ++r)
        for (int v = 0; v < kGradVecs; ++v) {
            VD t[VD::W];
            for (int l = 0; l < VD::W; ++l)
                t[l] = sum[l][r][v];
            double *a = acc + r * ldAcc + v * VD::W;
            VD::add(VD::load(a), foldTree(t)).store(a);
        }
}

using GradBlockFn = void (*)(double *, int, const double *, int,
                             const double *, int);

constexpr auto kGradBlockFns = []<int... R>(std::integer_sequence<int, R...>) {
    return std::array<GradBlockFn, kGradRows>{gradBlock<R + 1>...};
}(std::make_integer_sequence<int, kGradRows>{});

/**
 * Row path: one narrow row (slot lanes) against VD::W wide rows at a
 * time, converted as they are read. Each pair's lane classes sit
 * across the lanes of its own two chain vectors, chain 0 over the even
 * slots and chain 1 over the odd ones, as in a horizontal dot; the
 * VD::W x VD::W block of class sums c0 + c1 is transposed and folded
 * with foldTree into acc. Wide rows past nw repeat the last one and
 * their sums land in acc's padding.
 */
void
gradRows(double *acc, const double *nar, const float *rows,
         std::size_t stride, int nw, const GradSlots &g)
{
    for (int c0 = 0; c0 < nw; c0 += VD::W) {
        const float *w[VD::W];
        for (int c = 0; c < VD::W; ++c)
            w[c] = rows + std::size_t(std::min(c0 + c, nw - 1)) * stride;
        VD a0[VD::W], a1[VD::W];
        for (int c = 0; c < VD::W; ++c)
            a0[c] = a1[c] = VD::zero();
        const auto pair = [&](int s, const auto &load) {
            const VD n0 = VD::load(nar + s * VD::W);
            const VD n1 = VD::load(nar + (s + 1) * VD::W);
            for (int c = 0; c < VD::W; ++c) {
                a0[c] = VD::fma(load(w[c], s), n0, a0[c]);
                a1[c] = VD::fma(load(w[c], s + 1), n1, a1[c]);
            }
        };
        int s = 0;
        for (; s + 1 < g.chunks; s += 2) // slots of full chunks
            pair(s, [](const float *p, int t) {
                return VD::loadFromFloat(p + t * VD::W);
            });
        if (s < 2 * g.pairs)
            pair(s, [&g](const float *p, int t) { return g.load(p, t); });
        for (int c = 0; c < VD::W; ++c)
            a0[c] = VD::add(a0[c], a1[c]);
        simd::transpose(a0);
        VD::add(VD::load(acc + c0), foldTree(a0)).store(acc + c0);
    }
}

/**
 * The transposed grad-weights GEMM (see MicroKernels::gradWeights).
 * Per kGradKBlock-lane block the narrow side's rows are converted to
 * double slot lanes once; with kGradRowPath rows or more the wide side
 * is packed into transposed panels once and gradBlock runs over
 * (panel, row block), else gradRows reads it directly. The [nn][wPad]
 * double accumulators are cast to float once at the end.
 */
void
gradWeights(float *dw, std::size_t ldDw, const float *dy,
            std::size_t dyStride, int nj, const float *x,
            std::size_t xStride, int ni, int len, double *scratch)
{
    using winomc::mk::kGradKBlock;
    const bool wideI = ni >= nj;
    const int nw = wideI ? ni : nj, nn = wideI ? nj : ni;
    const float *wide = wideI ? x : dy, *narrow = wideI ? dy : x;
    const std::size_t ws = wideI ? xStride : dyStride;
    const std::size_t ns = wideI ? dyStride : xStride;
    const int wPad = (nw + kGradPanel - 1) / kGradPanel * kGradPanel;
    const int lanesMax = GradSlots(std::min(len, kGradKBlock)).pairs * 2 *
                         VD::W;
    // 64-byte aligned: [nn][lanesMax] narrow rows, the wide panels,
    // then the [nn][wPad] accumulators.
    double *nar = reinterpret_cast<double *>(
        (reinterpret_cast<std::uintptr_t>(scratch) + 63) &
        ~std::uintptr_t(63));
    double *pan = nar + std::size_t(nn) * lanesMax;
    double *acc = pan + std::size_t(lanesMax) * wPad;
    std::fill(acc, acc + std::size_t(nn) * wPad, 0.0);
    const bool panels = nn >= kGradRowPath;
    for (int k0 = 0; k0 < len; k0 += kGradKBlock) {
        const GradSlots g(std::min(kGradKBlock, len - k0));
        const int lanes = 2 * g.pairs * VD::W;
        for (int r = 0; r < nn; ++r)
            for (int s = 0; s < 2 * g.pairs; ++s)
                g.load(narrow + r * ns + k0, s)
                    .store(nar + std::size_t(r) * lanes + s * VD::W);
        if (!panels) {
            for (int r = 0; r < nn; ++r)
                gradRows(acc + std::size_t(r) * wPad,
                         nar + std::size_t(r) * lanes, wide + k0, ws, nw,
                         g);
            continue;
        }
        packGradPanel(pan, wide + k0, ws, nw, wPad, g);
        for (int c0 = 0; c0 < wPad; c0 += kGradPanel)
            for (int r0 = 0; r0 < nn; r0 += kGradRows)
                kGradBlockFns[std::size_t(std::min(kGradRows, nn - r0) - 1)](
                    acc + std::size_t(r0) * wPad + c0, wPad,
                    nar + std::size_t(r0) * lanes, lanes,
                    pan + std::size_t(c0) * lanes, g.pairs);
    }
    for (int r = 0; r < nn; ++r) {
        const double *a = acc + std::size_t(r) * wPad;
        if (wideI) {
            float *d = dw + r * ldDw;
            int c = 0;
            for (; c + VD::W <= nw; c += VD::W)
                VD::load(a + c).storeToFloat(d + c);
            if (c < nw)
                VD::load(a + c).storeToFloatPartial(d + c, nw - c);
        } else {
            for (int c = 0; c < nw; ++c)
                dw[c * ldDw + r] = float(a[c]);
        }
    }
    simd::zeroUpper(); // the folded converts above (see zeroUpper)
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
        return {nullptr, xformToTiles<M>};
    else
        return {xformFromTiles<M>, nullptr};
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

#else

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

/**
 * eh rows of EW pixels of one lane's block from the SoA panel to the
 * plane at `row`: no tests, each row unrolled at its compile-time
 * width. src = soa + lane + the first entry written; block rows are
 * srcEw entries apart (EW for a whole block, kept at compile time so
 * the common inside-the-map lane addresses by constants).
 */
template <bool kAdd, int EW, int kSrcEw = EW>
void
unpackLaneRows(float *row, int w, int eh, const double *src,
               int srcEw = kSrcEw)
{
    const int step = (kSrcEw ? kSrcEw : srcEw) * kTilePanel;
    for (int i = 0; i < eh; ++i, row += w, src += step)
        unrolled<EW>([&](auto j) {
            putFloat<kAdd>(row[j], src[j * kTilePanel]);
        });
}

/** [EW - 1]: a whole EW-wide block (srcEw ignored), and a cropped
 *  block of EW columns whose source rows are srcEw entries apart. */
template <bool kAdd>
constexpr auto kUnpackWhole =
    []<int... J>(std::integer_sequence<int, J...>) {
        return std::array{unpackLaneRows<kAdd, J + 1>...};
    }(std::make_integer_sequence<int, winomc::mk::kMaxTileEdge>{});
template <bool kAdd>
constexpr auto kUnpackCropped =
    []<int... J>(std::integer_sequence<int, J...>) {
        return std::array{unpackLaneRows<kAdd, J + 1, 0>...};
    }(std::make_integer_sequence<int, winomc::mk::kMaxTileEdge>{});

/**
 * SoA -> spatial scatter (kAdd: overlap-add), lanes strictly in
 * ascending order — the order the overlap-add sums in is part of the
 * bitwise contract. A lane whose eh x ew block lies inside the map
 * writes it whole; a border lane crops its block to the map once and
 * writes the rest with rows unrolled at the cropped width. Neither
 * tests per element. Pure data movement: bitwise the scalar loops.
 */
template <bool kAdd>
void
unpackPanel(float *plane, int h, int w, const int *tr, const int *tc,
            int eh, int ew, const double *soa, int cnt)
{
    const auto whole = kUnpackWhole<kAdd>[std::size_t(ew - 1)];
    for (int l = 0; l < cnt; ++l) {
        const int r0 = tr[l];
        const int c0 = tc[l];
        const double *src = soa + l;
        if (r0 >= 0 && c0 >= 0 && r0 + eh <= h && c0 + ew <= w) {
            whole(plane + std::size_t(r0) * w + c0, w, eh, src, ew);
            continue;
        }
        const int i0 = std::max(0, -r0), i1 = std::min(eh, h - r0);
        const int j0 = std::max(0, -c0), j1 = std::min(ew, w - c0);
        if (i1 > i0 && j1 > j0)
            kUnpackCropped<kAdd>[std::size_t(j1 - j0 - 1)](
                plane + std::size_t(r0 + i0) * w + (c0 + j0), w, i1 - i0,
                src + std::size_t(i0 * ew + j0) * kTilePanel, ew);
    }
}

/** Output channels a directRow pass keeps in registers (16 zmm
 *  accumulators at AVX-512, 8 of the 16 at AVX2), vectors per
 *  channel, and the kernel columns one mask table covers. */
constexpr int kDirOuts = VD::W >= 8 ? winomc::mk::kDirectBlock
                                    : winomc::mk::kDirectBlock / 2;
constexpr int kDirVecs = 2;
constexpr int kDirTaps = 16;
static_assert(winomc::mk::kDirectBlock % kDirOuts == 0,
              "a packed block is whole passes");

/**
 * Columns [x0, x0 + NV * VD::W) of channels [o0, o0 + kDirOuts) of one
 * directRow: the kDirOuts x NV accumulators start at +0 and take one
 * masked fma per (c, live ky, kx) tap in that order, each input slice
 * loaded and widened once for all channels. A tap's mask keeps only
 * the columns it covers, so the rest add nothing and are not read.
 */
template <int NV>
void
directChunk(const winomc::mk::DirectRow &r, int o0, int x0)
{
    using winomc::mk::kDirectBlock;
    VD::Mask mask[kDirTaps][NV];
    std::ptrdiff_t base[kDirTaps];
    const auto fill = [&](int k0) {
        for (int t = 0; t < std::min(kDirTaps, r.kw - k0); ++t) {
            const winomc::mk::DirectTap &tap = r.taps[k0 + t];
            base[t] = std::ptrdiff_t(tap.from) - tap.lo + x0;
            for (int v = 0; v < NV; ++v) {
                const int c0 = x0 + v * VD::W;
                const int lo = std::clamp(tap.lo - c0, 0, VD::W);
                const int hi = std::clamp(tap.lo + tap.n - c0, lo, VD::W);
                mask[t][v] = VD::maskOf((1u << hi) - (1u << lo));
            }
        }
    };
    VD acc[kDirOuts][NV];
    // Plain loops over the compile-time block, fully unrolled: a lambda
    // capturing acc would keep the block in memory.
#pragma GCC unroll 16
    for (int o = 0; o < kDirOuts; ++o)
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v)
            acc[o][v] = VD::zero();
    const bool oneTable = r.kw <= kDirTaps;
    if (oneTable)
        fill(0);
    const float *inC = r.in;
    const double *wC = r.w + o0;
    for (int c = 0; c < r.nc; ++c, inC += r.inPlane, wC += r.wPlane) {
        const float *row = inC;
        const double *wk = wC;
        for (int ky = 0; ky < r.nky; ++ky, row += r.kyStep) {
            for (int k0 = 0; k0 < r.kw; k0 += kDirTaps) {
                if (!oneTable)
                    fill(k0);
                const int nt = std::min(kDirTaps, r.kw - k0);
                for (int t = 0; t < nt; ++t, wk += kDirectBlock) {
                    VD xv[NV];
#pragma GCC unroll 4
                    for (int v = 0; v < NV; ++v)
                        xv[v] = VD::loadFromFloatMasked(
                            row + base[t] + v * VD::W, mask[t][v]);
#pragma GCC unroll 16
                    for (int o = 0; o < kDirOuts; ++o) {
                        const VD wv = VD::broadcast(wk[o]);
#pragma GCC unroll 4
                        for (int v = 0; v < NV; ++v)
                            acc[o][v] = VD::fmaMasked(xv[v], wv, acc[o][v],
                                                      mask[t][v]);
                    }
                }
            }
        }
    }
#pragma GCC unroll 16
    for (int o = 0; o < kDirOuts; ++o) {
        if (o0 + o >= r.no)
            break;
        float *out = r.out + std::size_t(o0 + o) * r.outStride + x0;
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
            const VD a = acc[o][v];
            const int n = std::min(VD::W, r.ow - x0 - v * VD::W);
            if (n == VD::W)
                a.storeToFloat(out + v * VD::W);
            else if (n > 0)
                a.storeToFloatPartial(out + v * VD::W, n);
        }
    }
}

void
directRow(const winomc::mk::DirectRow &r)
{
    constexpr int kChunk = kDirVecs * VD::W;
    for (int o0 = 0; o0 < r.no; o0 += kDirOuts) {
        int x0 = 0;
        for (; x0 + kChunk <= r.ow; x0 += kChunk)
            directChunk<kDirVecs>(r, o0, x0);
        if (r.ow - x0 > VD::W)
            directChunk<kDirVecs>(r, o0, x0);
        else if (x0 < r.ow)
            directChunk<1>(r, o0, x0);
    }
    simd::zeroUpper();
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

/**
 * y[k] += sum_v w[v] * x[v][k] over rows read by the full and partial
 * loads Load / LoadPart (VF::load, or a 16-bit decode, exact): one
 * sequential FMA chain per element over the rows in ascending order.
 * The chain is serial in v by the bitwise contract; the only ILP
 * available is across k, so run four independent column accumulators
 * per pass (each element still sees its own unchanged chain).
 */
template <auto Load, auto LoadPart, class Elem>
void
accumRows(float *y, const Elem *const *x, const float *w, int nv, int len)
{
    int k = 0;
    for (; k + 4 * VF::W <= len; k += 4 * VF::W) {
        VF a0 = VF::load(y + k);
        VF a1 = VF::load(y + k + VF::W);
        VF a2 = VF::load(y + k + 2 * VF::W);
        VF a3 = VF::load(y + k + 3 * VF::W);
        for (int v = 0; v < nv; ++v) {
            const Elem *xv = x[v] + k;
            const VF wv = VF::broadcast(w[v]);
            a0 = VF::fma(wv, Load(xv), a0);
            a1 = VF::fma(wv, Load(xv + VF::W), a1);
            a2 = VF::fma(wv, Load(xv + 2 * VF::W), a2);
            a3 = VF::fma(wv, Load(xv + 3 * VF::W), a3);
        }
        a0.store(y + k);
        a1.store(y + k + VF::W);
        a2.store(y + k + 2 * VF::W);
        a3.store(y + k + 3 * VF::W);
    }
    for (; k + VF::W <= len; k += VF::W) {
        VF acc = VF::load(y + k);
        for (int v = 0; v < nv; ++v)
            acc = VF::fma(VF::broadcast(w[v]), Load(x[v] + k), acc);
        acc.store(y + k);
    }
    if (k < len) {
        const int r = len - k;
        VF acc = VF::loadPartial(y + k, r);
        for (int v = 0; v < nv; ++v)
            acc = VF::fma(VF::broadcast(w[v]), LoadPart(x[v] + k, r),
                          acc);
        acc.storePartial(y + k, r);
    }
}

void
panelAccumGrouped(float *y, const float *const *x, const float *w,
                  int nv, int len, const std::uint8_t * /*grpNv*/,
                  int /*nGroups*/, int /*tailOrig*/)
{
    // One sequential chain over all surviving rows is exactly the chain
    // the blocked per-group calls would produce, so the group structure
    // only matters to the scalar TU.
    accumRows<VF::load, VF::loadPartial>(y, x, w, nv, len);
}

void
panelAccumHalf(float *y, const std::uint16_t *const *x, const float *w,
               int nv, int len, int halfKind)
{
    if (halfKind == winomc::mk::kHalfBf16)
        accumRows<VF::loadBf16, VF::loadBf16Partial>(y, x, w, nv, len);
    else
        accumRows<VF::loadF16, VF::loadF16Partial>(y, x, w, nv, len);
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
            mkimpl::rowBlockAccum,  mkimpl::gradWeights,                  \
            mkimpl::xformFromTiles<>, mkimpl::xformToTiles<>,             \
            mkimpl::packTilePanel,  mkimpl::unpackPanel<false>,           \
            mkimpl::unpackPanel<true>,                                    \
            mkimpl::directRow,      mkimpl::sumDouble,                    \
            mkimpl::reluForward,    mkimpl::mulPairwise,                  \
            mkimpl::axpy,           mkimpl::avgPool2Row,                  \
            mkimpl::panelAccumGrouped, mkimpl::panelAccumHalf,            \
            mkimpl::kTabled.data(), mkimpl::nonzeroMask,                  \
            mkimpl::panelZeroMask,                                        \
        };                                                                \
        return &table;                                                    \
    }                                                                     \
    }

#endif // WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH
