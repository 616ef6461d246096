/**
 * @file
 * Scalar micro-kernel table: the parity oracle.
 *
 * These loops reproduce, operation for operation, the arithmetic the
 * pre-SIMD kernels in conv.cc and nn/ performed — same expressions,
 * same association, same float/double promotion points. This TU is
 * compiled with the project's default flags (x86-64 baseline: no FMA,
 * so no contraction), which makes WINOMC_ISA=scalar bitwise identical
 * to the pre-dispatch code on every platform. Do not "optimize" these
 * loops; the vector TUs exist for that.
 */

#include "winograd/microkernel.hh"

#include "common/half.hh"

namespace {

using winomc::mk::kTilePanel;

void
panelAccum(float *y, const float *const *x, const float *w, int nv,
           int len)
{
    // Mirrors the elementwise-forward register block: the full
    // 8-channel unroll is one flat expression; partial blocks take the
    // accumulate-in-a-local path. The two shapes associate additions
    // differently, so both are preserved verbatim.
    if (nv == 8) {
        const float *x0 = x[0], *x1 = x[1], *x2 = x[2], *x3 = x[3];
        const float *x4 = x[4], *x5 = x[5], *x6 = x[6], *x7 = x[7];
        for (int k = 0; k < len; ++k)
            y[k] += w[0] * x0[k] + w[1] * x1[k] + w[2] * x2[k] +
                    w[3] * x3[k] + w[4] * x4[k] + w[5] * x5[k] +
                    w[6] * x6[k] + w[7] * x7[k];
    } else {
        for (int k = 0; k < len; ++k) {
            float acc = y[k];
            for (int v = 0; v < nv; ++v)
                acc += w[v] * x[v][k];
            y[k] = acc;
        }
    }
}

void
rowBlockAccum(float *const *y, int nj, const float *x, std::size_t xStride,
              int ni, const float *w, std::ptrdiff_t wsJ,
              std::ptrdiff_t wsI, int len)
{
    // The pre-blocking dense element-wise nest: 8 input rows at a time,
    // one panelAccum per output row, skipping a row whose 8 weights are
    // all zero.
    for (int i0 = 0; i0 < ni; i0 += 8) {
        const int ib = ni - i0 < 8 ? ni - i0 : 8;
        const float *xr[8];
        for (int ii = 0; ii < ib; ++ii)
            xr[ii] = x + std::size_t(i0 + ii) * xStride;
        for (int j = 0; j < nj; ++j) {
            float wv[8] = {};
            bool any = false;
            for (int ii = 0; ii < ib; ++ii) {
                wv[ii] = w[j * wsJ + (i0 + ii) * wsI];
                any = any || wv[ii] != 0.0f;
            }
            if (any)
                panelAccum(y[j], xr, wv, ib, len);
        }
    }
}

double
dotDouble(const float *a, const float *b, int len)
{
    // Four fixed accumulator chains, tail into s0, pairwise combine —
    // exactly the grad-weights reduction order.
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

void
gradWeights(float *dw, std::size_t ldDw, const float *dy,
            std::size_t dyStride, int nj, const float *x,
            std::size_t xStride, int ni, int len, double * /*scratch*/)
{
    using winomc::mk::kGradKBlock;
    for (int j = 0; j < nj; ++j)
        for (int i = 0; i < ni; ++i) {
            double acc = 0.0;
            for (int k0 = 0; k0 < len; k0 += kGradKBlock)
                acc += dotDouble(dy + j * dyStride + k0,
                                 x + i * xStride + k0,
                                 len - k0 < kGradKBlock ? len - k0
                                                        : kGradKBlock);
            dw[j * ldDw + i] = float(acc);
        }
}

/** Shared sandwich core: out = L (p x n) * in (n x k) * R (k x q),
 *  identical loop structure to the old per-tile sandwich() helper. */
template <typename LoadFn, typename StoreFn>
inline void
sandwichLane(const double *L, int p, int n, const double *R, int k,
             int q, LoadFn load, StoreFn store)
{
    double tmp[8 * 8];
    for (int i = 0; i < p; ++i) {
        for (int j = 0; j < k; ++j) {
            double acc = 0.0;
            for (int t = 0; t < n; ++t)
                acc += L[i * n + t] * load(t * k + j);
            tmp[i * k + j] = acc;
        }
    }
    for (int i = 0; i < p; ++i) {
        for (int j = 0; j < q; ++j) {
            double acc = 0.0;
            for (int t = 0; t < k; ++t)
                acc += tmp[i * k + t] * R[t * q + j];
            store(i * q + j, acc);
        }
    }
}

void
xformFromTiles(const double *L, int p, int n, const double *R, int k,
               int q, const float *in, std::size_t inStride, double *out,
               int cnt)
{
    for (int l = 0; l < cnt; ++l) {
        sandwichLane(
            L, p, n, R, k, q,
            [&](int e) { return double(in[std::size_t(e) * inStride + l]); },
            [&](int e, double v) { out[e * kTilePanel + l] = v; });
    }
}

void
xformToTiles(const double *L, int p, int n, const double *R, int k,
             int q, const double *in, float *out, std::size_t outStride,
             int cnt)
{
    for (int l = 0; l < cnt; ++l) {
        sandwichLane(
            L, p, n, R, k, q,
            [&](int e) { return in[e * kTilePanel + l]; },
            [&](int e, double v) {
                out[std::size_t(e) * outStride + l] = float(v);
            });
    }
}

void
packTilePanel(double *soa, const float *planes, const int *lanePlane,
              int h, int w, const int *tr, const int *tc, int eh, int ew,
              int cnt)
{
    // Mirrors the spatial gather loops the staged transforms used
    // inline: per lane, row-bounds hoisted, zero outside the plane.
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
    // The transform kernels stream whole vectors over the panel, so
    // surplus lanes of a short panel must be defined.
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
directRow(const winomc::mk::DirectRow &r)
{
    // One double chain per output from +0, taps in (c, live ky, kx)
    // order, each tap adding only inside its columns; a chunk of
    // columns at a time, every channel's accumulator row swept per tap.
    constexpr int kCols = 64;
    double acc[winomc::mk::kDirectBlock][kCols];
    for (int x0 = 0; x0 < r.ow; x0 += kCols) {
        const int x1 = r.ow - x0 < kCols ? r.ow : x0 + kCols;
        for (int o = 0; o < r.no; ++o)
            for (int x = x0; x < x1; ++x)
                acc[o][x - x0] = 0.0;
        const float *inC = r.in;
        const double *wC = r.w;
        for (int c = 0; c < r.nc; ++c, inC += r.inPlane, wC += r.wPlane) {
            const float *row = inC;
            const double *wk = wC;
            for (int ky = 0; ky < r.nky; ++ky, row += r.kyStep) {
                for (int kx = 0; kx < r.kw;
                     ++kx, wk += winomc::mk::kDirectBlock) {
                    const winomc::mk::DirectTap &t = r.taps[kx];
                    const int lo = t.lo > x0 ? t.lo : x0;
                    const int hi = t.lo + t.n < x1 ? t.lo + t.n : x1;
                    for (int o = 0; o < r.no; ++o)
                        for (int x = lo; x < hi; ++x)
                            acc[o][x - x0] +=
                                double(row[t.from + (x - t.lo)]) * wk[o];
                }
            }
        }
        for (int o = 0; o < r.no; ++o)
            for (int x = x0; x < x1; ++x)
                r.out[std::size_t(o) * r.outStride + std::size_t(x)] =
                    float(acc[o][x - x0]);
    }
}

double
sumDouble(const float *x, std::int64_t n)
{
    // Plain serial accumulation: the GlobalAvgPool reduction order.
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
        acc += x[i];
    return acc;
}

void
reluForward(float *y, float *mask, const float *x, std::int64_t n)
{
    if (mask) {
        for (std::int64_t i = 0; i < n; ++i) {
            bool on = x[i] > 0.0f;
            y[i] = on ? x[i] : 0.0f;
            mask[i] = on ? 1.0f : 0.0f;
        }
    } else {
        for (std::int64_t i = 0; i < n; ++i)
            y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    }
}

void
mulPairwise(float *dst, const float *a, const float *b, std::int64_t n)
{
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = a[i] * b[i];
}

void
axpy(float *y, float a, const float *x, std::int64_t n)
{
    for (std::int64_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
avgPool2Row(float *y, const float *r0, const float *r1, int outW)
{
    for (int o = 0; o < outW; ++o)
        y[o] = 0.25f *
               (r0[2 * o] + r0[2 * o + 1] + r1[2 * o] + r1[2 * o + 1]);
}

void
panelAccumGrouped(float *y, const float *const *x, const float *w,
                  int /*nv*/, int len, const std::uint8_t *grpNv,
                  int nGroups, int tailOrig)
{
    // One y read-modify-write per element, but each group's partial
    // sum keeps the expression shape rowBlockAccum's blocked panelAccum
    // calls would have used, zero terms dropped: full blocks form the
    // flat left-associated product sum added to the accumulator as one
    // term; a ragged tail accumulates per row. The fp32 store/load
    // between blocked calls is exact, so collapsing the passes cannot
    // change any bit.
    for (int k = 0; k < len; ++k) {
        float acc = y[k];
        int v = 0;
        for (int g = 0; g < nGroups; ++g) {
            const int gn = grpNv[g];
            if (g + 1 < nGroups || tailOrig == 8) {
                float s = w[v] * x[v][k];
                for (int u = 1; u < gn; ++u)
                    s += w[v + u] * x[v + u][k];
                acc += s;
            } else {
                for (int u = 0; u < gn; ++u)
                    acc += w[v + u] * x[v + u][k];
            }
            v += gn;
        }
        y[k] = acc;
    }
}

void
panelAccumHalf(float *y, const std::uint16_t *const *x, const float *w,
               int nv, int len, int halfKind)
{
    const bool bf16 = halfKind == winomc::mk::kHalfBf16;
    for (int k = 0; k < len; ++k) {
        float acc = y[k];
        for (int v = 0; v < nv; ++v) {
            const float xv = bf16 ? winomc::half::bf16ToF32(x[v][k])
                                  : winomc::half::f16ToF32(x[v][k]);
            acc += w[v] * xv;
        }
        y[k] = acc;
    }
}

std::uint64_t
nonzeroMask(const float *w, int n)
{
    std::uint64_t m = 0;
    for (int i = 0; i < n; ++i)
        if (w[i] != 0.0f)
            m |= std::uint64_t(1) << i;
    return m;
}

std::uint64_t
panelZeroMask(const float *x, std::size_t stride, int entries, int cnt)
{
    std::uint64_t m = 0;
    for (int e = 0; e < entries; ++e) {
        const float *p = x + std::size_t(e) * stride;
        bool zero = true;
        for (int l = 0; l < cnt; ++l) {
            if (p[l] != 0.0f) {
                zero = false;
                break;
            }
        }
        if (zero)
            m |= std::uint64_t(1) << e;
    }
    return m;
}

const winomc::mk::MicroKernels kTable = {
    winomc::mk::Isa::Scalar,
    "scalar",
    1,
    1,
    rowBlockAccum,
    gradWeights,
    xformFromTiles,
    xformToTiles,
    packTilePanel,
    unpackTilePanel,
    unpackAddTilePanel,
    directRow,
    sumDouble,
    reluForward,
    mulPairwise,
    axpy,
    avgPool2Row,
    panelAccumGrouped,
    panelAccumHalf,
    nullptr, // tabled: the oracle runs only the generic sandwich
    nonzeroMask,
    panelZeroMask,
};

} // namespace

namespace winomc::mk::detail {

const MicroKernels *
scalarTable()
{
    return &kTable;
}

} // namespace winomc::mk::detail
