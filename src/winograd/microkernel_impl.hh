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
 */

#ifndef WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH
#define WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH

#include <bit>

namespace {
namespace mkimpl {

using simd::VD;
using simd::VF;
using winomc::mk::kTilePanel;

static_assert(kTilePanel % VD::W == 0,
              "tile panel must hold whole double vectors");
static_assert(kTilePanel % VF::W == 0 || VF::W > kTilePanel,
              "tile panel must hold whole float vectors");

void
panelAccum(float *y, const float *const *x, const float *w, int nv,
           int len)
{
    int k = 0;
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
 * and each chain runs as its own pass with NA * NB accumulators.
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
#pragma GCC unroll 4
    for (int j = 0; j < NA; ++j)
#pragma GCC unroll 4
        for (int i = 0; i < NB; ++i)
            acc[j * ldAcc + i] +=
                simd::hsum(VD::add(c0[j][i], c1[j][i]));
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
 * Shared SoA sandwich: out = L * in * R per lane, lanes processed
 * VD::W at a time. `loadIn(e, l0, lc)` yields entry e for lanes
 * [l0, l0 + lc); `store(e, l0, lc, v)` writes the output entry.
 */
template <typename LoadFn, typename StoreFn>
inline void
sandwichPanel(const double *L, int p, int n, const double *R, int k,
              int q, int cnt, LoadFn loadIn, StoreFn store)
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

void
xformFromTiles(const double *L, int p, int n, const double *R, int k,
               int q, const float *in, std::size_t inStride, double *out,
               int cnt)
{
    sandwichPanel(
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

void
xformToTiles(const double *L, int p, int n, const double *R, int k,
             int q, const double *in, float *out, std::size_t outStride,
             int cnt)
{
    sandwichPanel(
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

/**
 * Layout pack/unpack between spatial planes and SoA tile panels.
 * These are pure data movement (a float->double widen at most), so
 * every ISA level shares the scalar loop structure — the strided
 * scatter/gather pattern (stride kTilePanel doubles per entry) does
 * not map onto contiguous vector loads, and bitwise parity with the
 * scalar oracle comes for free.
 */
void
packTilePanel(double *soa, const float *plane, int h, int w,
              const int *tr, const int *tc, int eh, int ew, int cnt)
{
    for (int l = 0; l < cnt; ++l) {
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

void
unpackTilePanel(float *plane, int h, int w, const int *tr, const int *tc,
                int eh, int ew, const double *soa, int cnt)
{
    for (int l = 0; l < cnt; ++l) {
        const int r0 = tr[l];
        const int c0 = tc[l];
        for (int i = 0; i < eh; ++i) {
            const int rr = r0 + i;
            if (rr < 0 || rr >= h)
                continue; // boundary crop
            float *row = plane + std::size_t(rr) * w;
            for (int j = 0; j < ew; ++j) {
                const int cc = c0 + j;
                if (cc < 0 || cc >= w)
                    continue;
                row[cc] =
                    float(soa[std::size_t(i * ew + j) * kTilePanel + l]);
            }
        }
    }
}

void
unpackAddTilePanel(float *plane, int h, int w, const int *tr,
                   const int *tc, int eh, int ew, const double *soa,
                   int cnt)
{
    for (int l = 0; l < cnt; ++l) {
        const int r0 = tr[l];
        const int c0 = tc[l];
        for (int i = 0; i < eh; ++i) {
            const int rr = r0 + i;
            if (rr < 0 || rr >= h)
                continue;
            float *row = plane + std::size_t(rr) * w;
            for (int j = 0; j < ew; ++j) {
                const int cc = c0 + j;
                if (cc < 0 || cc >= w)
                    continue;
                row[cc] +=
                    float(soa[std::size_t(i * ew + j) * kTilePanel + l]);
            }
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
panelAccumSel(float *y, const float *const *x, const float *w, int nv,
              int len, int /*origNv*/)
{
    // The vector panelAccum accumulates row products sequentially for
    // every nv, so dropping rows whose terms are exactly zero cannot
    // change any partial sum: origNv is a scalar-TU concern only.
    panelAccum(y, x, w, nv, len);
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

void
xformToTilesHalf(const double *L, int p, int n, const double *R, int k,
                 int q, const double *in, std::uint16_t *out,
                 std::size_t outStride, int cnt, int halfKind)
{
    const bool bf16 = halfKind == winomc::mk::kHalfBf16;
    sandwichPanel(
        L, p, n, R, k, q, cnt,
        [&](int e, int l0, int) {
            return VD::load(in + e * kTilePanel + l0);
        },
        [&](int e, int l0, int lc, VD v) {
            // Round double -> float exactly as xformToTiles would,
            // then encode with the software RNE reference so every
            // ISA level writes identical bits.
            float tmp[VD::W > 4 ? VD::W : 4];
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

std::uint64_t
panelZeroMask(const float *x, std::size_t stride, int entries, int cnt)
{
    // A row is zero iff the OR of its lanes' bits is at most the sign
    // bit (every lane ±0; NaN and denormals count as nonzero, as with
    // p[l] != 0.0f). Branch-free, so the lane loop vectorizes; the
    // integer test keeps every ISA level's mask identical.
    std::uint64_t m = 0;
    for (int e = 0; e < entries; ++e) {
        const float *p = x + std::size_t(e) * stride;
        std::uint32_t bits = 0;
        for (int l = 0; l < cnt; ++l)
            bits |= std::bit_cast<std::uint32_t>(p[l]);
        if (!(bits & 0x7fffffffu))
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
            mkimpl::panelAccum,     mkimpl::dotBlockDouble,               \
            mkimpl::xformFromTiles, mkimpl::xformToTiles,                 \
            mkimpl::packTilePanel,  mkimpl::unpackTilePanel,              \
            mkimpl::unpackAddTilePanel,                                   \
            mkimpl::rowAccumDouble, mkimpl::sumDouble,                    \
            mkimpl::reluForward,    mkimpl::mulPairwise,                  \
            mkimpl::axpy,           mkimpl::avgPool2Row,                  \
            mkimpl::panelAccumSel,  mkimpl::panelAccumGrouped,            \
            mkimpl::panelAccumHalf,                                       \
            mkimpl::xformToTilesHalf,                                     \
            mkimpl::panelZeroMask,  mkimpl::panelZeroMaskHalf,            \
        };                                                                \
        return &table;                                                    \
    }                                                                     \
    }

#endif // WINOMC_WINOGRAD_MICROKERNEL_IMPL_HH
