#include "winograd/conv.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/half.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "tensor/workspace.hh"
#include "winograd/microkernel.hh"

namespace winomc {

namespace {

using mk::StageTimer;

constexpr int kMaxAlpha = 8;

/**
 * Cache/register blocking for the per-uv GEMMs of Equation (2).
 *
 * Each uv slice is a dense (channels) x (batch*tiles) matrix product.
 * The forward and backward-data kernels walk the (batch*tiles) axis in
 * panels of kKBlock floats (so a panel of every streamed row stays
 * L1-resident) and process output channels in register blocks of
 * kJBlock rows (one input-row read feeds kJBlock outputs). The
 * innermost panels are the mk:: micro-kernels, vectorized along the
 * unit-stride tile axis; the weight gradient blocks itself inside
 * mk::gradWeights. The zero-skipping step groups its survivors by
 * blocks of kIUnroll input rows, the scalar dense kernel's reduction
 * block.
 */
constexpr int kKBlock = 256;
constexpr int kJBlock = 4;
constexpr int kIUnroll = 8;

/** SoA scratch: kMaxAlpha^2 transform entries x one tile panel. */
using SoaPanel =
    std::array<double, kMaxAlpha * kMaxAlpha * mk::kTilePanel>;

/**
 * out (a x b) = L (a x n) * in (n x k) * R (k x b), all small dense,
 * double precision. Buffers are caller-provided flat arrays. Still
 * used by the per-(j,i) weight transforms, whose tiny extent does not
 * amortize a tile panel.
 */
void
sandwich(const Matrix &L, const double *in, int n, int k, const Matrix &R,
         double *out)
{
    winomc_assert(L.cols() == n && R.rows() == k, "sandwich shape");
    const int a = L.rows();
    const int b = R.cols();
    std::array<double, kMaxAlpha * kMaxAlpha> tmp{};
    // tmp = L * in (a x k)
    for (int i = 0; i < a; ++i) {
        for (int j = 0; j < k; ++j) {
            double acc = 0.0;
            for (int t = 0; t < n; ++t)
                acc += L.at(i, t) * in[t * k + j];
            tmp[size_t(i * k + j)] = acc;
        }
    }
    // out = tmp * R (a x b)
    for (int i = 0; i < a; ++i) {
        for (int j = 0; j < b; ++j) {
            double acc = 0.0;
            for (int t = 0; t < k; ++t)
                acc += tmp[size_t(i * k + t)] * R.at(t, j);
            out[i * b + j] = acc;
        }
    }
}

// ---------------------------------------------------------------------
// Transform bodies. Each moves the flat tiles [f0, f0 + n) of channel c
// (tile t of image b is b * T + t, so a run may span images) to or from
// lanes [lane0, lane0 + n) of a tile container, one kTilePanel panel at
// a time. A call covers one plane of the container — one image of a
// whole-batch slab, or a range in a one-plane scratch set — or, when a
// plane holds fewer tiles than a panel, every plane of a channel, so
// panels run full across the channel's contiguous (batch x tiles) row.
// ---------------------------------------------------------------------

/** Plane (b, c) of a (possibly const) NCHW tensor. */
template <class T>
auto *
planeOf(T &t, int b, int c)
{
    return t.data() + (size_t(b) * t.c() + c) * size_t(t.h()) * t.w();
}

/**
 * One transform sandwich L * patch * R and the micro-kernel bodies
 * that run it (specialized on compile-time coefficients for the tabled
 * F(m,3) transforms), resolved once per stage call.
 */
struct Xform
{
    Xform(const Matrix &L, const Matrix &R)
        : L(L), R(R),
          fn(mk::xformBodies(mk::kernels(), L.data(), L.rows(), L.cols(),
                             R.data(), R.rows(), R.cols()))
    {
    }

    const Matrix &L, &R;
    mk::XformBodies fn;
};

/**
 * The tiles of consecutive images from tile t0 of the first, in order.
 * next(cnt, ...) gives the next cnt tiles: the image (relative to the
 * first) each belongs to and its spatial origin — the a x a input
 * window (off = 0) or, with off = grid.pad, the m x m output block.
 * The walk steps (image, tile row, tile column) forward tile by tile,
 * so it divides once, at its start, and not per tile.
 */
class LaneWalk
{
  public:
    LaneWalk(const TileGrid &grid, int t0, int off)
        : m(grid.m), tcnt(grid.tiles()), left(grid.tileCol(0) + off),
          right(grid.tileCol(grid.tilesW) + off),
          top0(grid.tileRow(0) + off),
          top(grid.tileRow(t0 / grid.tilesW) + off),
          col(grid.tileCol(t0 % grid.tilesW) + off), tile(t0)
    {
    }

    void
    next(int cnt, int *tr, int *tc, int *img)
    {
        // Locals: the int stores below could alias the members.
        int r = top, c = col, k = tile, i = image;
        for (int l = 0; l < cnt; ++l) {
            img[l] = i;
            tr[l] = r;
            tc[l] = c;
            if ((c += m) == right) {
                c = left;
                r += m;
            }
            if (++k == tcnt) {
                k = 0;
                ++i;
                r = top0;
            }
        }
        top = r;
        col = c;
        tile = k;
        image = i;
    }

  private:
    /** Tile pitch, tiles per image, the origin columns of a tile row
     *  (left) and one past its last (right), the first row's origin. */
    const int m, tcnt, left, right, top0;
    /** The next tile's origin, index in its image, and image. */
    int top, col, tile, image = 0;
};

/**
 * Spatial -> Winograd domain: gather the e x e patches at the origins
 * (shifted by off) of the flat tiles [f0, f0 + n) of channel c of src
 * and transform each as L * patch * R (L: a x e, R: e x a) into lanes
 * [lane0, lane0 + n) of fp32 or 16-bit tiles: the input transform
 * (B^T x B, e = a) and the inverse transform's adjoint (A dy A^T,
 * e = m, off = pad). A 16-bit panel is the fp32 one rounded to halfKind
 * (software RNE), the library's one 16-bit encode. With a mask, the
 * mask planes of the lanes are rebuilt from the just-written
 * (cache-hot) tiles; one writer each.
 */
template <class Tiles>
void
toTilesBody(const Tensor &src, const TileGrid &grid, int f0, int n, int c,
            const Xform &xf, int off, Tiles &dst, int lane0,
            int halfKind = 0, ActMask *mask = nullptr)
{
    winomc_assert(dst.alphaEdge() <= kMaxAlpha, "alpha too large");
    const int pl = dst.tiles();
    const int planes = (n + pl - 1) / pl;
    winomc_assert(lane0 % pl == 0 &&
                      (planes == 1 || (pl < mk::kTilePanel && n % pl == 0)),
                  "a transform call covers one plane, or whole planes of "
                  "less than a panel");
    const auto &K = mk::kernels();
    const int a = dst.alphaEdge();
    const double *L = xf.L.data(), *R = xf.R.data();
    const int e = xf.L.cols();
    const int b0 = f0 / grid.tiles();
    // A panel's gather offsets are ints (the pack's index type) from
    // the plane of its first image.
    const std::size_t imgStride = std::size_t(src.c()) * src.h() * src.w();
    const size_t uvStr = dst.uvStride();
    auto *base = dst.uvBase(c, 0, 0) + lane0;
    const int tb = lane0 / pl;
    constexpr bool kHalf = std::is_same_v<Tiles, HalfTiles>;
    const auto zeroMask = [&](const auto *out, int cnt) {
        if constexpr (kHalf)
            return panelZeroMaskHalf(out, uvStr, a * a, cnt);
        else
            return K.panelZeroMask(out, uvStr, a * a, cnt);
    };
    // A 16-bit panel's fp32 transform, and its encode at lane q.
    std::array<float, kMaxAlpha * kMaxAlpha * mk::kTilePanel> f32;
    const auto encode = [&](int q, int cnt, auto enc) {
        for (int uv = 0; uv < a * a; ++uv)
            for (int l = 0; l < cnt; ++l)
                base[uv * uvStr + q + l] = enc(f32[uv * mk::kTilePanel + l]);
    };
    for (int i = 0; mask && i < planes; ++i)
        std::fill(mask->plane(c, tb + i),
                  mask->plane(c, tb + i) + mask->wordsPerPlane(), 0);
    SoaPanel soa;
    LaneWalk lanes(grid, f0 % grid.tiles(), off);
    for (int q = 0; q < n; q += mk::kTilePanel) {
        const int cnt = std::min(mk::kTilePanel, n - q);
        int tr[mk::kTilePanel], tc[mk::kTilePanel], lp[mk::kTilePanel];
        lanes.next(cnt, tr, tc, lp);
        const int img0 = lp[0];
        winomc_assert(std::size_t(lp[cnt - 1] - img0) * imgStride <=
                          std::size_t(std::numeric_limits<int>::max()),
                      "a tile panel spans more input than an int indexes");
        for (int l = 0; l < cnt; ++l)
            lp[l] = int(std::size_t(lp[l] - img0) * imgStride);
        K.packTilePanel(soa.data(), planeOf(src, b0 + img0, c), lp,
                        src.h(), src.w(), tr, tc, e, e, cnt);
        if constexpr (kHalf) {
            xf.fn.toTiles(L, a, e, R, e, a, soa.data(), f32.data(),
                          mk::kTilePanel, cnt);
            if (halfKind == mk::kHalfBf16)
                encode(q, cnt, [](float v) { return half::f32ToBf16(v); });
            else
                encode(q, cnt, [](float v) { return half::f32ToF16(v); });
        } else {
            xf.fn.toTiles(L, a, e, R, e, a, soa.data(), base + q, uvStr,
                          cnt);
        }
        if (mask && planes == 1)
            mask->orPanelBits(c, tb, q / mk::kTilePanel,
                              zeroMask(base + q, cnt));
    }
    // A panel may split one of several planes; each plane's tiles form
    // its one mask panel (pl < kTilePanel), tested whole.
    for (int i = 0; mask && planes > 1 && i < planes; ++i)
        mask->orPanelBits(c, tb + i, 0, zeroMask(base + i * pl, pl));
}

/**
 * Winograd domain -> spatial: transform the tiles in lanes
 * [lane0, lane0 + n) as L * tile * R (L: e x a, R: a x e) into e x e
 * patches at the origins (shifted by off) of the flat tiles
 * [f0, f0 + n) of channel c of dst. The inverse transform (A^T Y A,
 * e = m, off = pad) stores them, cropped at the map border; the input
 * transform's adjoint (B dX B^T, e = a) overlap-adds them (add) with
 * lanes in ascending tile order, one image segment of a panel at a
 * time.
 */
void
fromTilesBody(const WinoTiles &src, int lane0, const Xform &xf, int off,
              bool add, const TileGrid &grid, int f0, int n, int c,
              Tensor &dst)
{
    const auto &K = mk::kernels();
    const auto unpack = add ? K.unpackAddTilePanel : K.unpackTilePanel;
    const int a = src.alphaEdge();
    const int e = xf.L.rows();
    const int b0 = f0 / grid.tiles();
    const float *base = src.uvBase(c, 0, 0) + lane0;
    SoaPanel soa;
    LaneWalk lanes(grid, f0 % grid.tiles(), off);
    for (int q = 0; q < n; q += mk::kTilePanel) {
        const int cnt = std::min(mk::kTilePanel, n - q);
        xf.fn.fromTiles(xf.L.data(), e, a, xf.R.data(), a, e, base + q,
                        src.uvStride(), soa.data(), cnt);
        int tr[mk::kTilePanel], tc[mk::kTilePanel], img[mk::kTilePanel];
        lanes.next(cnt, tr, tc, img);
        for (int l = 0; l < cnt;) {
            int end = l + 1;
            while (end < cnt && img[end] == img[l])
                ++end;
            unpack(planeOf(dst, b0 + img[l], c), dst.h(), dst.w(), tr + l,
                   tc + l, e, e, soa.data() + l, end - l);
            l = end;
        }
    }
}

/**
 * `range` with its count resolved against a batch of `total` tiles,
 * checked against a tile set of `lanes` lanes in planes of `planeLanes`:
 * it starts a plane, and lies in the batch's own layout (planes of the
 * batch's `tiles`, tile f in lane f) or inside that one plane.
 */
TileRange
resolve(TileRange range, int total, int tiles, int lanes, int planeLanes)
{
    if (range.count < 0)
        range.count = total - range.first;
    winomc_assert(range.first >= 0 && range.count > 0 &&
                      range.first + range.count <= total &&
                      range.lane >= 0 && range.lane + range.count <= lanes,
                  "tile range [", range.first, ", +", range.count,
                  ") at lane ", range.lane, " outside ", total,
                  " tiles or ", lanes, " lanes");
    winomc_assert(range.lane % planeLanes == 0 &&
                      ((planeLanes == tiles && range.lane == range.first) ||
                       range.count <= planeLanes),
                  "tile range starts no plane, or is neither in batch "
                  "layout nor in one plane");
    return range;
}

/**
 * Staged transforms over the tiles of `range` of an nc-channel batch
 * whose Winograd-domain side holds planes of `planeLanes` lanes:
 * fn(f0, n, lane0, c) per task in parallel, timed as `stage`. A task
 * is one (channel, plane) pair — an image of a whole batch, or a range
 * inside one scratch plane — or, when a plane holds fewer than
 * kTilePanel lanes, every plane of one channel (so its panels run
 * full). Tasks are numbered channel-major, like the [uv][c][b][t] tile
 * slab: consecutive tasks, and so each thread's contiguous chunk,
 * extend the same [c][b..][t] run of every uv plane, which each plane
 * then reads or writes in address order. Planes are independent
 * (overlap-add collides only within one) and each plane's tiles stay in
 * one task, in order, so any thread count is bitwise identical to
 * serial.
 */
template <class Fn>
void
forEachPlane(const char *stage, double tileFlops, int nc,
             const TileRange &range, int planeLanes, const Fn &fn)
{
    StageTimer probe(stage, tileFlops * nc * range.count);
    const int span = planeLanes < mk::kTilePanel ? range.count : planeLanes;
    const int parts = (range.count + span - 1) / span;
    parallelFor(0, std::int64_t(nc) * parts, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t cp = lo; cp < hi; ++cp) {
            const int l = int(cp % parts) * span;
            fn(range.first + l, std::min(span, range.count - l),
               range.lane + l, int(cp / parts));
        }
    });
}

/** quant.mask.* for a mask just rebuilt over `planes` planes of
 *  `tiles` tiles each; set bits are the all-zero (uv, panel) pairs. */
void
publishMaskTally(const ActMask &mask, std::int64_t planes, int tiles)
{
    if (!metrics::enabled())
        return;
    const std::uint64_t *w = mask.plane(0, 0);
    double zero = 0.0;
    for (std::size_t i = 0; i < mask.wordCount(); ++i)
        zero += __builtin_popcountll(w[i]);
    const int panels = (tiles + mk::kTilePanel - 1) / mk::kTilePanel;
    metrics::counterAdd("quant.mask.panels_total",
                        double(mask.uvCount()) * planes * panels);
    metrics::counterAdd("quant.mask.panels_zero", zero);
}

/** Task-local tallies behind the quant.ew.* counters, published once
 *  per task so the metrics mutex never sits on the hot path. */
struct SparseTally
{
    double rowsTotal = 0.0;
    double rowsSkipped = 0.0;
    double flopsSkipped = 0.0;

    void
    add(int rows, int live, int kb)
    {
        rowsTotal += rows;
        rowsSkipped += rows - live;
        flopsSkipped += 2.0 * (rows - live) * kb;
    }
    void
    publish() const
    {
        if (!metrics::enabled() || rowsTotal == 0.0)
            return;
        metrics::counterAdd("quant.ew.rows_total", rowsTotal);
        metrics::counterAdd("quant.ew.rows_skipped", rowsSkipped);
        metrics::counterAdd("quant.ew.flops_skipped", flopsSkipped);
    }
};

/**
 * Working buffers of the zero-skipping element-wise step: the
 * compacted activation rows and weights, the per-8-row-block survivor
 * counts, and the row liveness under the mask (one bit per row).
 * Grown on first use and reused, so a caller that passes the same
 * buffers to every call (one per ewStaged part) stops allocating after
 * the first. Dense fp32 steps leave them untouched.
 */
struct CompactScratch
{
    std::vector<const float *> rows;
    std::vector<const std::uint16_t *> halfRows;
    std::vector<float> weights;
    std::vector<std::uint8_t> groups;
    std::vector<std::uint64_t> live;
};

/**
 * The element-wise body: output rows [r0, r1) of uv slices [uv0, uv1)
 * over lanes [0, kn), zero-filled first, in (uv, kJBlock-row block,
 * kKBlock lane block) order. Policies differ only in the step that
 * accumulates one row block x lane block.
 */
template <class Step>
void
ewBody(Step &step, WinoTiles &out, int uv0, int uv1, int r0, int r1,
       int kn)
{
    for (int uv = uv0; uv < uv1; ++uv) {
        for (int o0 = r0; o0 < r1; o0 += kJBlock) {
            const int on = std::min(kJBlock, r1 - o0);
            float *rows[kJBlock];
            for (int oo = 0; oo < on; ++oo) {
                rows[oo] = out.row(uv, o0 + oo);
                std::fill(rows[oo], rows[oo] + kn, 0.0f);
            }
            for (int k0 = 0; k0 < kn; k0 += kKBlock)
                step(uv, o0, on, rows, k0, std::min(kKBlock, kn - k0));
        }
    }
}

/**
 * Dense fp32 step, train_wino's hot loop: one mk::rowBlockAccum call
 * per (row block, lane block), which keeps the block's accumulators in
 * registers over the whole reduction. Forward reduces X over W[uv]
 * (J x I); backward data (kTransposed) reduces dY over W[uv]^T, the
 * same walk with the weight strides swapped.
 */
template <bool kTransposed>
struct DenseStep
{
    static_assert(kJBlock == mk::kRowBlock,
                  "one row block per rowBlockAccum call");

    const WinoTiles &src;
    const WinoWeights &W;
    const mk::MicroKernels &K = mk::kernels();

    void
    operator()(int uv, int o0, int on, float *const *out, int k0,
               int kb) const
    {
        // Raw addressing: the checked accessors cost a branch each.
        const int nr = src.channels();
        const std::size_t srs = src.uvStride() / std::size_t(nr);
        const std::ptrdiff_t ni = W.inChannels();
        const float *wuv = W.raw() + std::size_t(uv) * W.outChannels() * ni;
        float *y[kJBlock];
        for (int oo = 0; oo < on; ++oo)
            y[oo] = out[oo] + k0;
        if (kTransposed)
            K.rowBlockAccum(y, on, src.row(uv, 0) + k0, srs, nr, wuv + o0,
                            1, ni, kb);
        else
            K.rowBlockAccum(y, on, src.row(uv, 0) + k0, srs, nr,
                            wuv + o0 * ni, ni, 1, kb);
    }
    void publish() const {}
};

/**
 * Zero-skipping forward step over fp32 (sparse policy) or 16-bit
 * activations. Every surviving input row — weight nonzero AND live
 * under the mask (null: all live) — of the whole column goes into ONE
 * micro-kernel call per output row, so each y panel is read and
 * written once. fp32 passes the survivor count of each kIUnroll-row
 * block, so panelAccumGrouped keeps the scalar dense kernel's
 * expression shapes (bitwise identical to dense fp32); panelAccumHalf
 * needs no grouping. At high sparsity the scan is the cost, so it
 * works on 64-row bitmasks: mk::nonzeroMask compares a weight row a
 * vector at a time, the AND with the row-liveness bits leaves the
 * survivors, their set bits are walked in ascending order
 * (countr_zero) and a byte-wise popcount gives the block counts, with
 * no branch per dead row. Row liveness is resolved per (uv, lane
 * block) when the step first meets a uv; tasks are uv-major, so this
 * needs no parallel region of its own and repeats only at chunk
 * boundaries. The compaction buffers are the caller's (sized here,
 * reused across calls).
 */
template <class Elem>
struct CompactStep
{
    static constexpr bool kHalf = !std::is_same_v<Elem, float>;
    static_assert(kIUnroll == 8, "a block is one byte of a row bitmask");

    CompactStep(const BasicWinoTiles<Elem> &X, const WinoWeights &W,
                int halfKind, const ActMask *mask, int kn,
                CompactScratch &cs)
        : X(X), W(W), halfKind(halfKind), mask(mask), kn(kn),
          ni(X.channels()), words((ni + 63) / 64), cs(cs)
    {
        rows().resize(std::size_t(ni));
        cs.weights.resize(std::size_t(ni));
        cs.groups.resize(std::size_t((ni + kIUnroll - 1) / kIUnroll));
        // Unmasked: every row live, bits past ni never reached.
        cs.live.assign(std::size_t(words) *
                           (mask ? (kn + kKBlock - 1) / kKBlock : 1),
                       ~std::uint64_t(0));
    }

    void
    operator()(int uv, int j0, int jn, float *const *yrows, int k0,
               int kb)
    {
        if (mask && uv != liveUv) {
            std::fill(cs.live.begin(), cs.live.end(), 0);
            for (int b0 = 0; b0 < kn; b0 += kKBlock) {
                std::uint64_t *lw =
                    cs.live.data() + std::size_t(b0 / kKBlock) * words;
                for (int i = 0; i < ni; ++i)
                    lw[i / 64] |=
                        std::uint64_t(!mask->rowRangeZero(
                            uv, i, b0, std::min(kKBlock, kn - b0)))
                        << (i % 64);
            }
        }
        liveUv = uv;
        const Elem *xuv = X.row(uv, 0);
        const std::size_t xrs = X.uvStride() / std::size_t(ni);
        const std::uint64_t *lv =
            cs.live.data() + (mask ? std::size_t(k0 / kKBlock) * words : 0);
        // Locals: byte stores into groups may alias members (reloads).
        const Elem **xcp = rows().data();
        float *wcp = cs.weights.data();
        std::uint8_t *grpp = cs.groups.data();
        for (int jj = 0; jj < jn; ++jj) {
            const float *wrow =
                W.raw() + (std::size_t(uv) * W.outChannels() + j0 + jj) *
                              ni;
            int nv = 0, ng = 0, tailOrig = kIUnroll;
            for (int w0 = 0; w0 < ni; w0 += 64) {
                const int n = std::min(64, ni - w0);
                std::uint64_t m = K.nonzeroMask(wrow + w0, n) & lv[w0 / 64];
                if constexpr (!kHalf) {
                    // Byte b of c is the survivor count of block b.
                    std::uint64_t c = m - ((m >> 1) & 0x5555555555555555u);
                    c = (c & 0x3333333333333333u) +
                        ((c >> 2) & 0x3333333333333333u);
                    c = (c + (c >> 4)) & 0x0f0f0f0f0f0f0f0fu;
                    for (int b = 0; b * kIUnroll < n; ++b) {
                        const int cnt = int(c >> (8 * b)) & 0xff;
                        grpp[ng] = std::uint8_t(cnt);
                        ng += cnt != 0;
                        tailOrig = cnt ? std::min(kIUnroll, n - b * kIUnroll)
                                       : tailOrig;
                    }
                }
                for (; m; m &= m - 1) {
                    const int i = w0 + std::countr_zero(m);
                    wcp[nv] = wrow[i];
                    xcp[nv] = xuv + std::size_t(i) * xrs + k0;
                    ++nv;
                }
            }
            if (mask)
                tally.add(ni, nv, kb);
            if (nv == 0)
                continue;
            if constexpr (kHalf)
                K.panelAccumHalf(yrows[jj] + k0, xcp, wcp, nv, kb,
                                 halfKind);
            else
                K.panelAccumGrouped(yrows[jj] + k0, xcp, wcp, nv, kb, grpp,
                                    ng, tailOrig);
        }
    }
    void publish() const { tally.publish(); }

    std::vector<const Elem *> &
    rows()
    {
        if constexpr (kHalf)
            return cs.halfRows;
        else
            return cs.rows;
    }

    const BasicWinoTiles<Elem> &X;
    const WinoWeights &W;
    int halfKind;
    const ActMask *mask;
    int kn, ni;
    int words; ///< 64-row words of a row bitmask
    const mk::MicroKernels &K = mk::kernels();
    CompactScratch &cs; ///< live holds liveUv's rows; all 1 unmasked
    int liveUv = -1;
    SparseTally tally;
};

/** ewStaged's compaction buffers, one per part, held by the thread
 *  that starts the stage: their capacity survives across calls. */
thread_local std::vector<CompactScratch> ewScratch;

/**
 * Staged element-wise products: parallel over the (uv, kJBlock-row
 * block) output space of uv slices [uv0, uv1), split into parts, each
 * running one policy step made by make(its CompactScratch). A sparse
 * step's work varies by task, so there are several parts per pool
 * thread for the pool to balance. Each task owns its rows, so results
 * are bitwise identical for any thread count.
 */
template <class MakeStep>
void
ewStaged(WinoTiles &out, int uv0, int uv1, int kn, const MakeStep &make)
{
    constexpr int kPartsPerThread = 4;
    const int nr = out.channels();
    const int blocks = (nr + kJBlock - 1) / kJBlock;
    const std::int64_t tasks = std::int64_t(uv1 - uv0) * blocks;
    const int parts = int(std::min<std::int64_t>(
        tasks, kPartsPerThread * ThreadPool::global().threadCount()));
    if (ewScratch.size() < size_t(parts))
        ewScratch.resize(size_t(parts));
    std::vector<CompactScratch> &scratch = ewScratch;
    parallelFor(0, parts, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
            auto step = make(scratch[size_t(p)]);
            for (std::int64_t task = p * tasks / parts;
                 task < (p + 1) * tasks / parts; ++task) {
                const int uv = uv0 + int(task / blocks);
                const int o0 = int(task % blocks) * kJBlock;
                ewBody(step, out, uv, uv + 1, o0,
                       std::min(o0 + kJBlock, nr), kn);
            }
            step.publish();
        }
    });
}

template <class T>
void
checkForwardShapes(const BasicWinoTiles<T> &X, const WinoWeights &W,
                   const WinoTiles &Y)
{
    winomc_assert(X.alphaEdge() == W.alphaEdge(),
                  "algo mismatch between tiles and weights");
    winomc_assert(X.channels() == W.inChannels(),
                  "channel mismatch: tiles ", X.channels(), " weights ",
                  W.inChannels());
    winomc_assert(Y.alphaEdge() == X.alphaEdge() &&
                  Y.channels() == W.outChannels() &&
                  Y.batch() == X.batch() && Y.tiles() == X.tiles(),
                  "elementwiseForwardInto destination shape mismatch");
}

/**
 * At least n elements of a workspace slab one thread keeps across
 * calls, contents unspecified. The slab grows only when a call needs
 * more, so a steady-state training step acquires nothing for it, and
 * its bytes show in the workspace's in-use count.
 */
template <class T>
T *
scratchOf(ws::Slab<T> &slab, std::size_t n)
{
    if (slab.size() < n)
        slab.resize(n);
    return slab.data();
}

/** mk::gradWeights' scratch, held by the thread that starts the stage. */
thread_local ws::Slab<double> gradScratch;

/** Resolve a uv range argument: uv1 < 0 means alpha^2. */
int
uvEnd(int uv0, int uv1, int uvCount)
{
    uv1 = uv1 < 0 ? uvCount : uv1;
    winomc_assert(0 <= uv0 && uv0 <= uv1 && uv1 <= uvCount, "uv range");
    return uv1;
}

/**
 * The mk:: 16-bit kind of storage precision `prec`, held in T tiles:
 * Prec::F32 goes with float tiles, whose kernels take no kind.
 */
template <class T>
int
halfKindOf(Prec prec)
{
    constexpr bool kFloat = std::is_same_v<T, float>;
    winomc_assert((prec == Prec::F32) == kFloat,
                  "storage precision ", precName(prec),
                  " does not match the tile element type");
    return prec == Prec::F16 ? mk::kHalfF16 : mk::kHalfBf16;
}

} // namespace

// Stage kernels: the bodies above under parallelFor, over a tile range.

template <class T>
void
transformInputInto(const Tensor &x, const WinogradAlgo &algo,
                   BasicWinoTiles<T> &out, ActMask *mask, Prec prec,
                   TileRange range)
{
    WINOMC_SPAN("wino.xform.input", "wino");
    const int halfKind = halfKindOf<T>(prec);
    TileGrid grid(x.h(), x.w(), algo);
    const int nt = grid.tiles();
    winomc_assert(out.alphaEdge() == algo.alpha && out.channels() == x.c(),
                  "transformInputInto destination shape mismatch");
    range = resolve(range, x.n() * nt, nt, out.batch() * out.tiles(),
                    out.tiles());
    const int a = algo.alpha;
    const Xform xf(algo.BT, algo.B);
    forEachPlane("xform.input", 4.0 * a * a * a, x.c(), range, out.tiles(),
                 [&](int f0, int n, int lane0, int c) {
        toTilesBody(x, grid, f0, n, c, xf, 0, out, lane0, halfKind, mask);
    });
    if (mask) {
        const int pl = out.tiles();
        publishMaskTally(*mask,
                         std::int64_t(x.c()) * ((range.count + pl - 1) / pl),
                         std::min(range.count, pl));
    }
}

template void transformInputInto(const Tensor &, const WinogradAlgo &,
                                 WinoTiles &, ActMask *, Prec, TileRange);
template void transformInputInto(const Tensor &, const WinogradAlgo &,
                                 HalfTiles &, ActMask *, Prec, TileRange);

void
transformInputAdjointInto(const WinoTiles &dX, const WinogradAlgo &algo,
                          Tensor &dx)
{
    WINOMC_SPAN("wino.xform.input_adjoint", "wino");
    TileGrid grid(dx.h(), dx.w(), algo);
    winomc_assert(grid.tiles() == dX.tiles(),
                  "tile count mismatch in input adjoint");
    winomc_assert(dx.n() == dX.batch() && dx.c() == dX.channels(),
                  "transformInputAdjointInto destination shape mismatch");
    const int a = algo.alpha;
    const int nt = grid.tiles();
    const Xform xf(algo.B, algo.BT);
    forEachPlane("xform.input_adjoint", 4.0 * a * a * a, dx.c(),
                 {0, dx.n() * nt, 0}, nt,
                 [&](int f0, int n, int lane0, int c) {
        // Each task zeroes its own overlap-add targets, cache-hot.
        for (int b = f0 / nt; b < (f0 + n) / nt; ++b)
            std::fill_n(planeOf(dx, b, c), std::size_t(dx.h()) * dx.w(),
                        0.0f);
        fromTilesBody(dX, lane0, xf, 0, true, grid, f0, n, c, dx);
    });
}

void
transformWeightsInto(const Tensor &w, const WinogradAlgo &algo,
                     WinoWeights &out)
{
    WINOMC_SPAN("wino.xform.weights", "wino");
    winomc_assert(w.h() == algo.r && w.w() == algo.r,
                  "weight size does not match algorithm r");
    winomc_assert(out.alphaEdge() == algo.alpha &&
                  out.outChannels() == w.n() && out.inChannels() == w.c(),
                  "transformWeightsInto destination shape mismatch");
    const int a = algo.alpha;
    const int r = algo.r;
    const int ni = w.c();

    parallelFor(0, std::int64_t(w.n()) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        std::array<double, kMaxAlpha * kMaxAlpha> ker{};
        std::array<double, kMaxAlpha * kMaxAlpha> tw{};
        for (std::int64_t ji = lo; ji < hi; ++ji) {
            const int j = int(ji / ni);
            const int i = int(ji % ni);
            for (int y = 0; y < r; ++y)
                for (int x = 0; x < r; ++x)
                    ker[size_t(y * r + x)] = double(w.at(j, i, y, x));
            sandwich(algo.G, ker.data(), r, r, algo.GT, tw.data());
            for (int uv = 0; uv < a * a; ++uv)
                out.at(uv, j, i) = float(tw[size_t(uv)]);
        }
    });
}

WinoWeights
transformWeights(const Tensor &w, const WinogradAlgo &algo)
{
    WinoWeights out(algo.alpha, w.n(), w.c());
    transformWeightsInto(w, algo, out);
    return out;
}

void
transformWeightsAdjointInto(const WinoWeights &dW,
                            const WinogradAlgo &algo, Tensor &dw)
{
    WINOMC_SPAN("wino.xform.weights_adjoint", "wino");
    const int a = algo.alpha;
    const int r = algo.r;
    winomc_assert(dw.n() == dW.outChannels() &&
                  dw.c() == dW.inChannels() && dw.h() == r && dw.w() == r,
                  "transformWeightsAdjointInto destination shape mismatch");
    const int ni = dW.inChannels();

    parallelFor(0, std::int64_t(dW.outChannels()) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        std::array<double, kMaxAlpha * kMaxAlpha> tile{};
        std::array<double, kMaxAlpha * kMaxAlpha> sp{};
        for (std::int64_t ji = lo; ji < hi; ++ji) {
            const int j = int(ji / ni);
            const int i = int(ji % ni);
            for (int uv = 0; uv < a * a; ++uv)
                tile[size_t(uv)] = double(dW.at(uv, j, i));
            // Adjoint of W = G w G^T is dw = G^T dW G.
            sandwich(algo.GT, tile.data(), a, a, algo.G, sp.data());
            for (int y = 0; y < r; ++y)
                for (int x = 0; x < r; ++x)
                    dw.at(j, i, y, x) = float(sp[size_t(y * r + x)]);
        }
    });
}

template <class T>
void
elementwiseForwardInto(const BasicWinoTiles<T> &X, const WinoWeights &W,
                       WinoTiles &Y, int uv0, int uv1, const ActMask *mask,
                       Prec prec, int lanes)
{
    WINOMC_SPAN("wino.ew.fwd", "wino");
    const int halfKind = halfKindOf<T>(prec);
    checkForwardShapes(X, W, Y);
    uv1 = uvEnd(uv0, uv1, X.uvCount());
    const int bt = lanes < 0 ? X.batch() * X.tiles() : lanes;
    winomc_assert(0 < bt && bt <= X.batch() * X.tiles(),
                  "elementwiseForwardInto lane count ", bt);
    StageTimer probe("ew.fwd", 2.0 * (uv1 - uv0) * double(W.outChannels()) *
                                   W.inChannels() * bt);
    if constexpr (std::is_same_v<T, float>) {
        if (!mask) {
            ewStaged(Y, uv0, uv1, bt, [&](CompactScratch &) {
                return DenseStep<false>{X, W};
            });
            return;
        }
    }
    ewStaged(Y, uv0, uv1, bt, [&](CompactScratch &cs) {
        return CompactStep<T>(X, W, halfKind, mask, bt, cs);
    });
}

template void elementwiseForwardInto(const WinoTiles &, const WinoWeights &,
                                     WinoTiles &, int, int, const ActMask *,
                                     Prec, int);
template void elementwiseForwardInto(const HalfTiles &, const WinoWeights &,
                                     WinoTiles &, int, int, const ActMask *,
                                     Prec, int);

void
elementwiseBackwardDataInto(const WinoTiles &dY, const WinoWeights &W,
                            WinoTiles &dX, int uv0, int uv1)
{
    WINOMC_SPAN("wino.ew.bwd_data", "wino");
    winomc_assert(dY.channels() == W.outChannels(),
                  "channel mismatch in backward data");
    winomc_assert(dX.alphaEdge() == dY.alphaEdge() &&
                  dX.channels() == W.inChannels() &&
                  dX.batch() == dY.batch() && dX.tiles() == dY.tiles(),
                  "elementwiseBackwardDataInto destination shape mismatch");
    uv1 = uvEnd(uv0, uv1, dY.uvCount());
    const int bt = dY.batch() * dY.tiles();
    StageTimer probe("ew.bwd_data", 2.0 * (uv1 - uv0) *
                                        double(W.outChannels()) *
                                        W.inChannels() * bt);
    // dX[uv] (I x BT) = W[uv]^T (I x J) * dY[uv] (J x BT): the forward
    // body with the roles of I and J swapped.
    ewStaged(dX, uv0, uv1, bt,
             [&](CompactScratch &) { return DenseStep<true>{dY, W}; });
}

void
elementwiseGradWeightsInto(const WinoTiles &dY, const WinoTiles &X,
                           WinoWeights &dW, int uv0, int uv1)
{
    WINOMC_SPAN("wino.ew.grad_weights", "wino");
    winomc_assert(dY.batch() == X.batch() && dY.tiles() == X.tiles() &&
                  dY.alphaEdge() == X.alphaEdge(),
                  "shape mismatch in weight gradient");
    winomc_assert(dW.alphaEdge() == X.alphaEdge() &&
                  dW.outChannels() == dY.channels() &&
                  dW.inChannels() == X.channels(),
                  "elementwiseGradWeightsInto destination shape mismatch");
    uv1 = uvEnd(uv0, uv1, X.uvCount());
    const int bt = X.batch() * X.tiles();
    const int nj = dY.channels();
    const int ni = X.channels();
    const auto &K = mk::kernels();
    StageTimer probe("ew.grad_weights",
                     2.0 * (uv1 - uv0) * double(nj) * ni * bt);

    // dW[uv] (J x I) = dY[uv] (J x BT) * X[uv]^T (BT x I), one
    // mk::gradWeights call per uv slice. Every dW element is owned by
    // exactly one task and its reduction order is fixed by the kernel,
    // so results are bitwise identical for any thread count. The uv
    // range splits into one part per pool thread, each with its own
    // slot of the calling thread's scratch slab, so the slab's size
    // depends only on the shape and the thread count, not on which
    // workers the scheduler wakes.
    const int nuv = uv1 - uv0;
    const int parts = std::min(nuv, ThreadPool::global().threadCount());
    const std::size_t slot = mk::gradWeightsScratch(nj, ni, bt);
    double *scratch = scratchOf(gradScratch, slot * std::size_t(parts));
    parallelFor(0, parts, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p)
            for (int uv = uv0 + int(p * nuv / parts);
                 uv < uv0 + int((p + 1) * nuv / parts); ++uv)
                // Raw addressing: the checked accessors cost a branch.
                K.gradWeights(dW.raw() + std::size_t(uv) * nj * ni,
                              std::size_t(ni), dY.row(uv, 0),
                              std::size_t(bt), nj, X.row(uv, 0),
                              std::size_t(bt), ni, bt,
                              scratch + std::size_t(p) * slot);
    });
}

void
inverseTransformInto(const WinoTiles &Y, const WinogradAlgo &algo,
                     Tensor &y, TileRange range)
{
    WINOMC_SPAN("wino.xform.inverse", "wino");
    TileGrid grid(y.h(), y.w(), algo);
    const int nt = grid.tiles();
    winomc_assert(Y.alphaEdge() == algo.alpha && y.c() == Y.channels(),
                  "inverseTransformInto destination shape mismatch");
    range = resolve(range, y.n() * nt, nt, Y.batch() * Y.tiles(),
                    Y.tiles());
    const int a = algo.alpha;
    const int m = algo.m;
    const Xform xf(algo.AT, algo.A);
    forEachPlane("xform.inverse", 2.0 * m * a * (a + m), y.c(), range,
                 Y.tiles(), [&](int f0, int n, int lane0, int c) {
        fromTilesBody(Y, lane0, xf, grid.pad, false, grid, f0, n, c, y);
    });
}

void
inverseTransformAdjointInto(const Tensor &dy, const WinogradAlgo &algo,
                            WinoTiles &dY)
{
    WINOMC_SPAN("wino.xform.inverse_adjoint", "wino");
    TileGrid grid(dy.h(), dy.w(), algo);
    winomc_assert(dY.alphaEdge() == algo.alpha &&
                  dY.channels() == dy.c() && dY.batch() == dy.n() &&
                  dY.tiles() == grid.tiles(),
                  "inverseTransformAdjointInto destination shape mismatch");
    const int a = algo.alpha;
    const int m = algo.m;
    const int nt = grid.tiles();
    const Xform xf(algo.A, algo.AT);
    forEachPlane("xform.inverse_adjoint", 2.0 * m * a * (a + m), dy.c(),
                 {0, dy.n() * nt, 0}, nt,
                 [&](int f0, int n, int lane0, int c) {
        toTilesBody(dy, grid, f0, n, c, xf, grid.pad, dY, lane0);
    });
}

namespace {

/** directConvRows' tap table, packed weights and phase-split images,
 *  held by the thread that starts the call. */
thread_local ws::Slab<mk::DirectTap> directTaps;
thread_local ws::Slab<double> directWeights;
thread_local ws::Slab<float> directSplit;

/**
 * The one direct-convolution loop:
 *
 *     out[b,o,y,x] = sum_c sum_ky sum_kx wt(o,c,ky,kx) *
 *                    in[b,c, y*sH + d*ky + offH, x*sW + d*kx + offW]
 *
 * in that (c, ky, kx) order, taps outside `in` adding nothing. The
 * forward has d = +1, wt(o,c) = w(o,c); the adjoint d = -1, wt(o,c) =
 * w(c,o). The weights are packed once per call into blocks of
 * mk::kDirectBlock output channels ([c][ky][kx][o] doubles), and each
 * task, one (image, channel block), runs mk::directRow per output row:
 * every output is one double chain from +0, and a float * float
 * product is exact in double, so FMA and mul + add round alike and the
 * output is bitwise the same on every ISA and thread count. With
 * sW > 1 each input row is first split into its sW stride phases
 * (columns p, p + sW, ...; the DWM phase split), so every tap reads a
 * unit-stride slice. The tasks split into one part per pool thread,
 * each with its own split slot of the calling thread's scratch, so a
 * steady-state call acquires nothing.
 */
void
directConvRows(const Tensor &in, const Tensor &w, bool adjoint, int sH,
               int sW, int offH, int offW, Tensor &out, const char *stage)
{
    constexpr int B = mk::kDirectBlock;
    const int d = adjoint ? -1 : 1;
    const int kh = w.h();
    const int kw = w.w();
    const int nc = in.c();
    const int no = out.c();
    const int hh = in.h();
    const int ww = in.w();
    const int oh = out.h();
    const int ow = out.w();
    const size_t taps = size_t(kh) * kw;
    const size_t oStride = adjoint ? taps : size_t(w.c()) * taps;
    const size_t cStride = adjoint ? size_t(w.c()) * taps : taps;
    const auto &K = mk::kernels();
    StageTimer probe(stage, 2.0 * out.n() * double(no) * nc * double(taps) *
                                double(oh) * ow);

    // Tap kx adds row[from + k] into output column lo + k for k in
    // [0, n): output column x reads input column x*sW + t, entry x + q
    // of phase p, which starts at p*(ww/sW) + min(p, ww%sW) in a split
    // row.
    mk::DirectTap *rowTaps = scratchOf(directTaps, size_t(kw));
    for (int kx = 0; kx < kw; ++kx) {
        const int t = d * kx + offW;
        const int p = (t % sW + sW) % sW;
        const int q = (t - p) / sW;
        const int len = ww / sW + (p < ww % sW);
        const int lo = std::max(0, -q);
        rowTaps[kx] = {lo, std::max(0, std::min(ow, len - q) - lo),
                       p * (ww / sW) + std::min(p, ww % sW) + q + lo};
    }

    const int nb = (no + B - 1) / B;
    const size_t wPlane = taps * B;
    const size_t wBlock = size_t(nc) * wPlane;
    double *packed = scratchOf(directWeights, size_t(nb) * wBlock);
    const float *wbase = w.data();
    for (int ob = 0; ob < nb; ++ob)
        for (int c = 0; c < nc; ++c)
            for (size_t t = 0; t < taps; ++t)
                for (int o = 0; o < B; ++o) {
                    const int oo = ob * B + o;
                    packed[size_t(ob) * wBlock + c * wPlane + t * B +
                           size_t(o)] =
                        oo < no ? double(wbase[oo * oStride + c * cStride +
                                               t])
                                : 0.0;
                }

    const size_t image = size_t(nc) * hh * ww;
    const std::int64_t tasks = std::int64_t(out.n()) * nb;
    const int parts = int(std::min<std::int64_t>(
        tasks, ThreadPool::global().threadCount()));
    float *split =
        sW > 1 ? scratchOf(directSplit, size_t(parts) * image) : nullptr;
    parallelFor(0, parts, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t p = lo; p < hi; ++p) {
            // The part's current image, phase-split once (sW > 1 only).
            float *mine = split ? split + size_t(p) * image : nullptr;
            int splitB = -1;
            for (std::int64_t task = p * tasks / parts;
                 task < (p + 1) * tasks / parts; ++task) {
                const int b = int(task / nb);
                const int ob = int(task % nb);
                const float *src = in.data() + size_t(b) * image;
                if (mine) {
                    if (b != splitB) {
                        float *dst = mine;
                        for (size_t row = 0; row < image; row += size_t(ww))
                            for (int ph = 0; ph < sW; ++ph)
                                for (int ix = ph; ix < ww; ix += sW)
                                    *dst++ = src[row + size_t(ix)];
                        splitB = b;
                    }
                    src = mine;
                }
                mk::DirectRow r{};
                r.out = out.data() + (size_t(b) * no + size_t(ob) * B) *
                                         size_t(oh) * ow;
                r.outStride = size_t(oh) * ow;
                r.no = std::min(B, no - ob * B);
                r.ow = ow;
                r.inPlane = size_t(hh) * ww;
                r.kyStep = std::ptrdiff_t(d) * ww;
                r.nc = nc;
                r.wPlane = wPlane;
                r.taps = rowTaps;
                r.kw = kw;
                for (int y = 0; y < oh; ++y, r.out += ow) {
                    // The live kernel rows, whose input row y*sH + d*ky +
                    // offH lies inside the map, are consecutive.
                    const auto live = [&](int ky) {
                        const int iy = y * sH + d * ky + offH;
                        return iy >= 0 && iy < hh;
                    };
                    int k0 = 0;
                    while (k0 < kh && !live(k0))
                        ++k0;
                    int k1 = k0;
                    while (k1 < kh && live(k1))
                        ++k1;
                    r.nky = k1 - k0;
                    r.in = r.nky ? src + size_t(y * sH + d * k0 + offH) * ww
                                 : src;
                    r.w = packed + size_t(ob) * wBlock + size_t(k0) * kw * B;
                    K.directRow(r);
                }
            }
        }
    });
}

} // namespace

Tensor
directConvForward(const Tensor &x, const Tensor &w)
{
    winomc_assert(w.h() == w.w() && w.h() % 2 == 1,
                  "direct conv expects odd square filters, got ", w.h(),
                  "x", w.w());
    const int pad = (w.h() - 1) / 2;
    return directConvForward(x, w, 1, 1, pad, pad);
}

Tensor
directConvForward(const Tensor &x, const Tensor &w, int strideH,
                  int strideW, int padH, int padW)
{
    WINOMC_SPAN("direct.fwd", "wino");
    winomc_assert(x.c() == w.c(), "channel mismatch in direct conv");
    winomc_assert(strideH >= 1 && strideW >= 1 && padH >= 0 && padW >= 0,
                  "bad conv geometry: stride ", strideH, "x", strideW,
                  " pad ", padH, "x", padW);
    const int oh = (x.h() + 2 * padH - w.h()) / strideH + 1;
    const int ow = (x.w() + 2 * padW - w.w()) / strideW + 1;
    winomc_assert(oh >= 1 && ow >= 1, "conv output collapses to ", oh,
                  "x", ow);
    Tensor y(x.n(), w.n(), oh, ow);
    directConvRows(x, w, false, strideH, strideW, -padH, -padW, y,
                   "direct.fwd");
    return y;
}

Tensor
directConvBackwardData(const Tensor &dy, const Tensor &w)
{
    WINOMC_SPAN("direct.bwd_data", "wino");
    winomc_assert(dy.c() == w.n(), "channel mismatch in backward data");
    winomc_assert(w.h() == w.w() && w.h() % 2 == 1,
                  "direct backward data expects odd square filters, got ",
                  w.h(), "x", w.w());
    const int pad = (w.h() - 1) / 2;
    Tensor dx(dy.n(), w.c(), dy.h(), dy.w());
    directConvRows(dy, w, true, 1, 1, pad, pad, dx, "direct.bwd_data");
    return dx;
}

Tensor
directConvGradWeights(const Tensor &x, const Tensor &dy, int r)
{
    WINOMC_SPAN("direct.grad_weights", "wino");
    winomc_assert(x.n() == dy.n() && x.h() == dy.h() && x.w() == dy.w(),
                  "shape mismatch in direct weight gradient");
    winomc_assert(r >= 1 && r % 2 == 1,
                  "direct weight gradient expects an odd filter size, "
                  "got ", r);
    const int pad = (r - 1) / 2;
    Tensor dw(dy.c(), x.c(), r, r);
    const int ni = x.c();
    const int hh = x.h();
    const int ww = x.w();
    const size_t plane = size_t(hh) * ww;

    // Output partition over (j, i): the batch reduction stays inside
    // one task, keeping the summation order thread-count invariant.
    // Stays scalar: the serial (b, oy, ox) accumulation order is part
    // of the bitwise contract and does not map onto the fixed-chain
    // dot-product kernel.
    parallelFor(0, std::int64_t(dy.c()) * ni, 1,
                [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t ji = lo; ji < hi; ++ji) {
            const int j = int(ji / ni);
            const int i = int(ji % ni);
            float *dwji = dw.data() + size_t(ji) * r * r;
            for (int ky = 0; ky < r; ++ky) {
                // Output rows and columns whose tap lands in the map.
                const int oy0 = std::max(0, pad - ky);
                const int oy1 = std::min(hh, hh + pad - ky);
                for (int kx = 0; kx < r; ++kx) {
                    const int ox0 = std::max(0, pad - kx);
                    const int ox1 = std::min(ww, ww + pad - kx);
                    double acc = 0.0;
                    for (int b = 0; b < x.n(); ++b) {
                        const float *g =
                            dy.data() + (size_t(b) * dy.c() + j) * plane;
                        const float *xi =
                            x.data() + (size_t(b) * ni + i) * plane;
                        for (int oy = oy0; oy < oy1; ++oy) {
                            const float *gr = g + size_t(oy) * ww;
                            const float *xr =
                                xi + size_t(oy + ky - pad) * ww;
                            for (int ox = ox0; ox < ox1; ++ox)
                                acc += double(gr[ox]) * xr[ox + kx - pad];
                        }
                    }
                    dwji[ky * r + kx] = float(acc);
                }
            }
        }
    });
    return dw;
}

} // namespace winomc
