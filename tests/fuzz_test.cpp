/**
 * @file
 * Seeded differential fuzzing of the direct convolution against two
 * naive, independent oracles kept here on purpose:
 *
 *  - naiveForward: one double accumulator per output element, taps in
 *    (i, ky, kx) order, any stride / pad / rectangular kernel;
 *  - naiveBackwardData: the stride-1 "same" adjoint, one accumulator
 *    per input element, taps in (j, ky, kx) order.
 *
 * The library's direct forward and backward-data must match them
 * bitwise (both sum exact double products in the same order) on every
 * usable ISA at 1 and 4 threads. Geometry i is drawn from seed
 * kSeed0 + i; a failure prints that seed and the geometry on one line,
 * so it reproduces alone.
 *
 * The tile-panel layout kernels (packTilePanel, unpackTilePanel,
 * unpackAddTilePanel) are fuzzed the same way against naive per-lane
 * loops: random maps, patch edges, origins before, inside and past
 * the map, lane counts 1-16, and pack lanes spread over up to four
 * planes, bitwise at every usable ISA.
 *
 * The three element-wise GEMM stages (forward, backward data, grad
 * weights) are fuzzed over seeded (alpha, J, I, batch, tiles) shapes
 * with exact-zero weight blocks and ±0 entries, against the per-ISA
 * oracles of ew_oracle.hh (an fma chain per output element, the
 * scalar table's blocked nest, the per-pair grad-weights dot), bitwise
 * at every usable ISA at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"

#include "ew_oracle.hh"
#include "exec_scope.hh"

using namespace winomc;

namespace {

constexpr unsigned kSeed0 = 0x5eed0;
constexpr int kGeometries = 200;

struct Geometry
{
    int b, c, k, h, w, kh, kw, sH, sW, pH, pW;

    int outH() const { return (h + 2 * pH - kh) / sH + 1; }
    int outW() const { return (w + 2 * pW - kw) / sW + 1; }
    bool oddSquare() const { return kh == kw && kh % 2 == 1; }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "b" << b << " c" << c << " k" << k << " map " << h << "x"
           << w << " kernel " << kh << "x" << kw << " stride " << sH
           << "x" << sW << " pad " << pH << "x" << pW;
        return os.str();
    }
};

Geometry
drawGeometry(Rng &rng)
{
    Geometry g{};
    g.b = int(rng.uniformInt(1, 3));
    g.c = int(rng.uniformInt(1, 9));
    // Up to 20 output channels: two and a ragged third block of the
    // direct kernel; maps up to 40 give rows of several column chunks.
    g.k = int(rng.uniformInt(1, 20));
    g.h = int(rng.uniformInt(1, 40));
    g.w = int(rng.uniformInt(1, 40));
    g.kh = int(rng.uniformInt(1, 7));
    g.kw = int(rng.uniformInt(1, 7));
    g.sH = int(rng.uniformInt(1, 3));
    g.sW = int(rng.uniformInt(1, 3));
    g.pH = int(rng.uniformInt(0, g.kh - 1));
    g.pW = int(rng.uniformInt(0, g.kw - 1));
    return g;
}

Tensor
naiveForward(const Tensor &x, const Tensor &w, const Geometry &g)
{
    Tensor y(g.b, g.k, g.outH(), g.outW());
    for (int b = 0; b < g.b; ++b)
        for (int j = 0; j < g.k; ++j)
            for (int oy = 0; oy < y.h(); ++oy)
                for (int ox = 0; ox < y.w(); ++ox) {
                    double acc = 0.0;
                    for (int i = 0; i < g.c; ++i)
                        for (int ky = 0; ky < g.kh; ++ky) {
                            const int iy = oy * g.sH + ky - g.pH;
                            if (iy < 0 || iy >= g.h)
                                continue;
                            for (int kx = 0; kx < g.kw; ++kx) {
                                const int ix = ox * g.sW + kx - g.pW;
                                if (ix < 0 || ix >= g.w)
                                    continue;
                                acc += double(w.at(j, i, ky, kx)) *
                                       x.at(b, i, iy, ix);
                            }
                        }
                    y.at(b, j, oy, ox) = float(acc);
                }
    return y;
}

Tensor
naiveBackwardData(const Tensor &dy, const Tensor &w, const Geometry &g)
{
    const int pad = (g.kh - 1) / 2;
    Tensor dx(g.b, g.c, g.h, g.w);
    for (int b = 0; b < g.b; ++b)
        for (int i = 0; i < g.c; ++i)
            for (int iy = 0; iy < g.h; ++iy)
                for (int ix = 0; ix < g.w; ++ix) {
                    double acc = 0.0;
                    for (int j = 0; j < g.k; ++j)
                        for (int ky = 0; ky < g.kh; ++ky) {
                            const int oy = iy - ky + pad;
                            if (oy < 0 || oy >= g.h)
                                continue;
                            for (int kx = 0; kx < g.kw; ++kx) {
                                const int ox = ix - kx + pad;
                                if (ox < 0 || ox >= g.w)
                                    continue;
                                acc += double(w.at(j, i, ky, kx)) *
                                       dy.at(b, j, oy, ox);
                            }
                        }
                    dx.at(b, i, iy, ix) = float(acc);
                }
    return dx;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace

namespace {

/** Library direct forward (and, for an odd square kernel, backward
 *  data) of g against the naive oracles at every usable ISA x threads
 *  {1, 4}; a failure names `label` and the geometry. */
void
checkDirect(const Geometry &g, Rng &rng, const std::string &label)
{
    Tensor x(g.b, g.c, g.h, g.w);
    Tensor w(g.k, g.c, g.kh, g.kw);
    Tensor dy(g.b, g.k, g.h, g.w);
    x.fillUniform(rng);
    w.fillUniform(rng);
    dy.fillUniform(rng);
    const Tensor yRef = naiveForward(x, w, g);
    const Tensor dxRef =
        g.oddSquare() ? naiveBackwardData(dy, w, g) : Tensor();

    for (mk::Isa isa : test::usableIsas()) {
        ScopedExecConfig isaScope(test::withIsa(isa));
        for (int threads : {1, 4}) {
            ThreadPool::global().setThreadCount(threads);
            const std::string where = label + " " + g.str() + " isa " +
                                      mk::isaName(isa) + " threads " +
                                      std::to_string(threads);
            if (!bitwiseEqual(directConvForward(x, w, g.sH, g.sW, g.pH, g.pW),
                              yRef))
                ADD_FAILURE() << "forward differs: " << where;
            if (g.oddSquare() &&
                !bitwiseEqual(directConvBackwardData(dy, w), dxRef))
                ADD_FAILURE() << "backward-data differs: " << where;
        }
    }
}

} // namespace

TEST(DirectFuzz, ForwardAndBackwardDataMatchNaiveOraclesBitwise)
{
    test::ExecScope scope;
    int checked = 0;
    for (int n = 0; n < kGeometries; ++n) {
        const unsigned seed = kSeed0 + unsigned(n);
        Rng rng(seed);
        const Geometry g = drawGeometry(rng);
        if (g.outH() < 1 || g.outW() < 1)
            continue;
        ++checked;
        checkDirect(g, rng, "seed " + std::to_string(seed));
    }
    // The draw must leave most geometries usable.
    EXPECT_GT(checked, kGeometries / 2);
}

TEST(DirectFuzz, FixedGeometriesMatchNaiveOraclesBitwise)
{
    // serve_auto's two direct layers, the 3 -> 32 7x7-s2 stem and the
    // 32 -> 32 3x3-s2 layer, at batch 1 and 8 on both image sizes.
    test::ExecScope scope;
    Rng rng(kSeed0 - 1);
    for (int b : {1, 8}) {
        for (int s : {32, 24}) {
            checkDirect({b, 3, 32, s, s, 7, 7, 2, 2, 3, 3}, rng, "stem");
            checkDirect({b, 32, 32, s / 2, s / 2, 3, 3, 2, 2, 1, 1}, rng,
                        "3x3-s2");
        }
    }
    // Kernels wider than the vector kernel's 16-column mask table.
    checkDirect({2, 3, 9, 6, 45, 1, 19, 1, 1, 0, 9}, rng, "wide");
    checkDirect({1, 2, 5, 9, 50, 3, 17, 2, 3, 1, 8}, rng, "wide-strided");
}

namespace {

constexpr unsigned kPanelSeed0 = 0x9a7e0;
constexpr int kPanels = 600;
constexpr int P = mk::kTilePanel;

struct PanelCase
{
    int h, w, eh, ew, cnt;
    int planes, planeStride; // pack reads `planes` maps this far apart
    std::vector<int> tr, tc, lanePlane; // exactly cnt entries each

    std::string
    str() const
    {
        std::ostringstream os;
        os << "map " << h << "x" << w << " patch " << eh << "x" << ew
           << " cnt " << cnt << " plane stride " << planeStride
           << " origins";
        for (int l = 0; l < cnt; ++l)
            os << " (" << lanePlane[std::size_t(l)] / planeStride << ":"
               << tr[std::size_t(l)] << "," << tc[std::size_t(l)] << ")";
        return os.str();
    }
};

PanelCase
drawPanel(Rng &rng)
{
    PanelCase c;
    c.h = int(rng.uniformInt(1, 24));
    c.w = int(rng.uniformInt(1, 24));
    c.eh = int(rng.uniformInt(1, mk::kMaxTileEdge));
    c.ew = int(rng.uniformInt(1, mk::kMaxTileEdge));
    c.cnt = int(rng.uniformInt(1, P));
    c.planes = int(rng.uniformInt(1, 4));
    c.planeStride = c.h * c.w + int(rng.uniformInt(0, 5));
    int plane = 0;
    for (int l = 0; l < c.cnt; ++l) {
        // Lanes walk the planes in order, as a panel spanning the
        // images of a small map does.
        if (plane + 1 < c.planes && rng.uniformInt(0, 3) == 0)
            ++plane;
        c.lanePlane.push_back(plane * c.planeStride);
        // Some patches start before the map, some run past its far
        // edge, some lie wholly outside.
        c.tr.push_back(int(rng.uniformInt(-c.eh - 1, c.h + 1)));
        c.tc.push_back(int(rng.uniformInt(-c.ew - 1, c.w + 1)));
    }
    return c;
}

/** Random plane with exact ±0 mixed in. */
std::vector<float>
randomPlane(Rng &rng, int n)
{
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float &x : v) {
        x = float(-1.0 + 2.0 * rng.uniform());
        if (rng.uniformInt(0, 9) == 0)
            x = rng.uniformInt(0, 1) ? 0.0f : -0.0f;
    }
    return v;
}

bool
inMap(const PanelCase &c, int r, int col)
{
    return r >= 0 && r < c.h && col >= 0 && col < c.w;
}

std::vector<double>
naivePack(const PanelCase &c, const std::vector<float> &planes)
{
    std::vector<double> soa(std::size_t(c.eh * c.ew * P), 0.0);
    for (int l = 0; l < c.cnt; ++l)
        for (int i = 0; i < c.eh; ++i)
            for (int j = 0; j < c.ew; ++j) {
                const int r = c.tr[std::size_t(l)] + i;
                const int col = c.tc[std::size_t(l)] + j;
                if (inMap(c, r, col))
                    soa[std::size_t((i * c.ew + j) * P + l)] =
                        planes[std::size_t(c.lanePlane[std::size_t(l)] +
                                           r * c.w + col)];
            }
    return soa;
}

void
naiveUnpack(const PanelCase &c, const std::vector<double> &soa, bool add,
            std::vector<float> &plane)
{
    for (int l = 0; l < c.cnt; ++l)
        for (int i = 0; i < c.eh; ++i)
            for (int j = 0; j < c.ew; ++j) {
                const int r = c.tr[std::size_t(l)] + i;
                const int col = c.tc[std::size_t(l)] + j;
                if (!inMap(c, r, col))
                    continue;
                const float v =
                    float(soa[std::size_t((i * c.ew + j) * P + l)]);
                float &dst = plane[std::size_t(r * c.w + col)];
                dst = add ? dst + v : v;
            }
}

template <class T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

} // namespace

TEST(PanelFuzz, PackAndUnpackMatchNaiveLoopsBitwise)
{
    test::ExecScope scope;
    for (int n = 0; n < kPanels; ++n) {
        const unsigned seed = kPanelSeed0 + unsigned(n);
        Rng rng(seed);
        const PanelCase c = drawPanel(rng);
        const std::vector<float> planes =
            randomPlane(rng, (c.planes - 1) * c.planeStride + c.h * c.w);
        const std::vector<double> soaRef = naivePack(c, planes);
        std::vector<double> soaIn(soaRef.size());
        for (double &v : soaIn)
            v = float(-1.0 + 2.0 * rng.uniform());
        std::vector<float> storeRef = randomPlane(rng, c.h * c.w);
        std::vector<float> addRef = storeRef;
        const std::vector<float> base = storeRef;
        naiveUnpack(c, soaIn, false, storeRef);
        naiveUnpack(c, soaIn, true, addRef);

        for (mk::Isa isa : test::usableIsas()) {
            ScopedExecConfig isaScope(test::withIsa(isa));
            const mk::MicroKernels &K = mk::kernels();
            const std::string where = "seed " + std::to_string(seed) +
                                      " " + c.str() + " isa " +
                                      mk::isaName(isa);
            // NaN poison: every lane of every entry, surplus lanes
            // included, must be written (zeros past cnt).
            std::vector<double> soa(
                soaRef.size(), std::numeric_limits<double>::quiet_NaN());
            K.packTilePanel(soa.data(), planes.data(), c.lanePlane.data(),
                            c.h, c.w, c.tr.data(), c.tc.data(), c.eh, c.ew,
                            c.cnt);
            if (!sameBits(soa, soaRef))
                ADD_FAILURE() << "pack differs: " << where;
            std::vector<float> out = base;
            K.unpackTilePanel(out.data(), c.h, c.w, c.tr.data(),
                              c.tc.data(), c.eh, c.ew, soaIn.data(), c.cnt);
            if (!sameBits(out, storeRef))
                ADD_FAILURE() << "unpack differs: " << where;
            out = base;
            K.unpackAddTilePanel(out.data(), c.h, c.w, c.tr.data(),
                                 c.tc.data(), c.eh, c.ew, soaIn.data(),
                                 c.cnt);
            if (!sameBits(out, addRef))
                ADD_FAILURE() << "unpack-add differs: " << where;
        }
    }
}

namespace {

constexpr unsigned kEwSeed0 = 0xe1e0;
constexpr int kEwCases = 60;
constexpr int kEwKBlock = 256; ///< grad-weights lane block (conv.cc)

struct EwCase
{
    int alpha, nj, ni, batch, tiles;

    int bt() const { return batch * tiles; }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "alpha " << alpha << " J " << nj << " I " << ni << " batch "
           << batch << " tiles " << tiles;
        return os.str();
    }
};

/** Tiles or weights with exact ±0 mixed in. */
void
fillSigned(Rng &rng, float *p, std::size_t n)
{
    for (std::size_t e = 0; e < n; ++e) {
        p[e] = float(-1.0 + 2.0 * rng.uniform());
        if (rng.uniformInt(0, 9) == 0)
            p[e] = rng.uniformInt(0, 1) ? 0.0f : -0.0f;
    }
}

} // namespace

TEST(ElementwiseFuzz, ForwardBackwardDataGradWeightsMatchOraclesBitwise)
{
    test::ExecScope scope;
    for (int n = 0; n < kEwCases; ++n) {
        const unsigned seed = kEwSeed0 + unsigned(n);
        Rng rng(seed);
        EwCase c{};
        c.alpha = rng.uniformInt(0, 1) ? 6 : 4;
        c.nj = int(rng.uniformInt(1, 40));
        c.ni = int(rng.uniformInt(1, 40));
        c.batch = int(rng.uniformInt(1, 3));
        c.tiles = int(rng.uniformInt(1, 120));
        const int bt = c.bt(), uvs = c.alpha * c.alpha;
        WinoTiles X(c.alpha, c.ni, c.batch, c.tiles);
        WinoTiles dY(c.alpha, c.nj, c.batch, c.tiles);
        WinoWeights W(c.alpha, c.nj, c.ni);
        fillSigned(rng, X.row(0, 0), X.size());
        fillSigned(rng, dY.row(0, 0), dY.size());
        fillSigned(rng, W.raw(), W.size());
        // Whole 8-row input blocks of some uv slices are dead in every
        // output row, as pruning leaves them.
        for (int uv = 0; uv < uvs; ++uv)
            for (int i0 = 0; i0 < c.ni; i0 += 8)
                if (rng.uniformInt(0, 3) == 0)
                    for (int j = 0; j < c.nj; ++j)
                        for (int i = i0; i < std::min(i0 + 8, c.ni); ++i)
                            W.at(uv, j, i) = 0.0f;

        for (mk::Isa isa : test::usableIsas()) {
            ScopedExecConfig isaScope(test::withIsa(isa));
            const int lanes = mk::kernels().doubleLanes;
            WinoTiles yRef(c.alpha, c.nj, c.batch, c.tiles);
            WinoTiles dxRef(c.alpha, c.ni, c.batch, c.tiles);
            WinoWeights dwRef(c.alpha, c.nj, c.ni);
            yRef.fill(0.0f);
            dxRef.fill(0.0f);
            for (int uv = 0; uv < uvs; ++uv) {
                const float *w = W.raw() + std::size_t(uv) * c.nj * c.ni;
                std::vector<float *> yRows, dxRows;
                for (int j = 0; j < c.nj; ++j)
                    yRows.push_back(yRef.row(uv, j));
                for (int i = 0; i < c.ni; ++i)
                    dxRows.push_back(dxRef.row(uv, i));
                test::rowBlockRef(isa, yRows.data(), c.nj, X.row(uv, 0),
                                  std::size_t(bt), c.ni, w, c.ni, 1, bt);
                test::rowBlockRef(isa, dxRows.data(), c.ni, dY.row(uv, 0),
                                  std::size_t(bt), c.nj, w, 1, c.ni, bt);
                for (int j = 0; j < c.nj; ++j)
                    for (int i = 0; i < c.ni; ++i) {
                        double acc = 0.0;
                        for (int k0 = 0; k0 < bt; k0 += kEwKBlock)
                            acc += test::perPairDot(
                                isa, lanes, dY.row(uv, j) + k0,
                                X.row(uv, i) + k0,
                                std::min(kEwKBlock, bt - k0));
                        dwRef.at(uv, j, i) = float(acc);
                    }
            }
            for (int threads : {1, 4}) {
                ThreadPool::global().setThreadCount(threads);
                const std::string where =
                    "seed " + std::to_string(seed) + " " + c.str() +
                    " isa " + mk::isaName(isa) + " threads " +
                    std::to_string(threads);
                WinoTiles y(c.alpha, c.nj, c.batch, c.tiles);
                WinoTiles dx(c.alpha, c.ni, c.batch, c.tiles);
                WinoWeights dw(c.alpha, c.nj, c.ni);
                elementwiseForwardInto(X, W, y);
                elementwiseBackwardDataInto(dY, W, dx);
                elementwiseGradWeightsInto(dY, X, dw);
                if (std::memcmp(y.row(0, 0), yRef.row(0, 0),
                                y.size() * sizeof(float)) != 0)
                    ADD_FAILURE() << "forward differs: " << where;
                if (std::memcmp(dx.row(0, 0), dxRef.row(0, 0),
                                dx.size() * sizeof(float)) != 0)
                    ADD_FAILURE() << "backward-data differs: " << where;
                if (std::memcmp(dw.raw(), dwRef.raw(),
                                dw.size() * sizeof(float)) != 0)
                    ADD_FAILURE() << "grad-weights differs: " << where;
            }
        }
    }
}
