/**
 * @file
 * The non-finite contract of the Winograd pipeline (DESIGN §4.15).
 *
 * A NaN or ±inf at one pixel of the input must make every forward
 * output whose receptive field holds that pixel non-finite; a
 * non-finite pixel of dy must do the same for dx through
 * backward-data. Spreading further (to the rest of a tile, or to a
 * neighbouring tile through the transforms) is allowed: the contract
 * is a floor, so a kernel that drops exactly-zero transform terms
 * (and with them 0 x inf = NaN) stays inside it as long as every
 * output that truly depends on the pixel still sees it.
 *
 * Checked on every usable ISA x {fp32, sparse fp32, bf16} x
 * {F(2,3), F(4,3), F(6,3)}, for the forward that keeps its tiles (one
 * tile range), an eval forward in several tile ranges (on a wider,
 * larger batch) and the backward-data, with the bad pixel in the
 * interior, on an edge and in a corner of an odd-sized map.
 *
 * The direct convolution's result is defined exactly: a tap outside
 * the map adds nothing, so an inf or NaN weight at a border tap
 * leaves the outputs whose window has that tap in the padding
 * untouched. Its forward and backward-data must match a naive
 * per-output oracle output for output (finite values bitwise,
 * non-finite ones as NaN, +inf or -inf) with the bad value in a
 * border weight tap or a border input pixel, at every usable ISA and
 * 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

#include "exec_scope.hh"

using namespace winomc;

namespace {

constexpr int kB = 2, kC = 3, kK = 4, kH = 13, kW = 11;
/** Batch and channels of the eval forward that splits into ranges. */
constexpr int kRangedB = 16, kRangedC = 32;

struct Policy
{
    const char *name;
    Prec prec;
    bool sparse;
};

constexpr Policy kPolicies[] = {
    {"fp32", Prec::F32, false},
    {"sparse", Prec::F32, true},
    {"bf16", Prec::Bf16, false},
};

struct Pixel
{
    int b, c, y, x;
};

constexpr Pixel kPixels[] = {
    {1, 2, 6, 5},   // interior
    {0, 0, 0, 0},   // corner
    {1, 1, 12, 4},  // bottom edge
};

const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()};

/**
 * Number of outputs of image p.b, over all `channels`, within one
 * pixel of (p.y, p.x) — the 3x3 receptive field — that are finite.
 */
int
finiteInField(const Tensor &t, const Pixel &p, int channels)
{
    int finite = 0;
    for (int c = 0; c < channels; ++c)
        for (int y = p.y - 1; y <= p.y + 1; ++y)
            for (int x = p.x - 1; x <= p.x + 1; ++x)
                if (y >= 0 && y < t.h() && x >= 0 && x < t.w() &&
                    std::isfinite(t.at(p.b, c, y, x)))
                    ++finite;
    return finite;
}

} // namespace

TEST(NonFinite, BadPixelReachesItsWholeReceptiveField)
{
    test::ExecScope scope;
    Rng rng(77);
    Tensor x0(kB, kC, kH, kW), dy0(kB, kK, kH, kW), w(kK, kC, 3, 3);
    x0.fillUniform(rng);
    dy0.fillUniform(rng);
    w.fillUniform(rng);
    Tensor xr0(kRangedB, kRangedC, kH, kW), wr(kRangedC, kRangedC, 3, 3);
    xr0.fillUniform(rng);
    wr.fillUniform(rng);

    for (int m : {2, 4, 6}) {
        const WinogradAlgo &algo = algoForTile(m);
        const WinoWeights W = transformWeights(w, algo);
        const WinoWeights Wr = transformWeights(wr, algo);
        for (mk::Isa isa : test::usableIsas()) {
            for (const Policy &pol : kPolicies) {
                ScopedExecConfig cfg([&](ExecConfig &c) {
                    c.isa = isa;
                    c.prec = pol.prec;
                    c.sparse = pol.sparse;
                });
                WinoPlan plan(algo, kB, kC, kK, kH, kW);
                WinoPlan ranged(algo, kRangedB, kRangedC, kRangedC, kH,
                                kW);
                ASSERT_GT(ranged.rangeCount(), 1) << algo.name();
                for (const Pixel &p : kPixels) {
                    for (float bad : kBad) {
                        const std::string where =
                            algo.name() + " isa " + mk::isaName(isa) +
                            " " + pol.name + " pixel (" +
                            std::to_string(p.b) + "," +
                            std::to_string(p.c) + "," +
                            std::to_string(p.y) + "," +
                            std::to_string(p.x) + ") value " +
                            std::to_string(bad);
                        Tensor x = x0;
                        x.at(p.b, p.c, p.y, p.x) = bad;
                        Tensor y(kB, kK, kH, kW);
                        plan.forwardInto(x, W, y, true);
                        EXPECT_EQ(finiteInField(y, p, kK), 0)
                            << "staged forward: " << where;
                        Tensor xr = xr0;
                        xr.at(p.b, p.c, p.y, p.x) = bad;
                        Tensor yr(kRangedB, kRangedC, kH, kW);
                        ranged.forwardInto(xr, Wr, yr, false);
                        EXPECT_EQ(finiteInField(yr, p, kRangedC), 0)
                            << "multi-range eval forward: " << where;

                        Tensor dy = dy0;
                        const Pixel q{p.b, p.c % kK, p.y, p.x};
                        dy.at(q.b, q.c, q.y, q.x) = bad;
                        Tensor dx(kB, kC, kH, kW);
                        plan.backwardDataInto(dy, W, dx);
                        EXPECT_EQ(finiteInField(dx, q, kC), 0)
                            << "backward-data: " << where;
                    }
                }
            }
        }
    }
}

namespace {

/** Naive direct forward: one double chain per output, taps in
 *  (c, ky, kx) order, taps outside the map skipped. */
Tensor
naiveDirect(const Tensor &x, const Tensor &w, int s, int pad)
{
    const int oh = (x.h() + 2 * pad - w.h()) / s + 1;
    const int ow = (x.w() + 2 * pad - w.w()) / s + 1;
    Tensor y(x.n(), w.n(), oh, ow);
    for (int b = 0; b < x.n(); ++b)
        for (int o = 0; o < w.n(); ++o)
            for (int oy = 0; oy < oh; ++oy)
                for (int ox = 0; ox < ow; ++ox) {
                    double acc = 0.0;
                    for (int c = 0; c < x.c(); ++c)
                        for (int ky = 0; ky < w.h(); ++ky)
                            for (int kx = 0; kx < w.w(); ++kx) {
                                const int iy = oy * s + ky - pad;
                                const int ix = ox * s + kx - pad;
                                if (iy >= 0 && iy < x.h() && ix >= 0 &&
                                    ix < x.w())
                                    acc += double(w.at(o, c, ky, kx)) *
                                           x.at(b, c, iy, ix);
                            }
                    y.at(b, o, oy, ox) = float(acc);
                }
    return y;
}

/** Naive stride-1 "same" backward-data, taps in (o, ky, kx) order. */
Tensor
naiveDirectBackwardData(const Tensor &dy, const Tensor &w)
{
    const int pad = (w.h() - 1) / 2;
    Tensor dx(dy.n(), w.c(), dy.h(), dy.w());
    for (int b = 0; b < dy.n(); ++b)
        for (int c = 0; c < w.c(); ++c)
            for (int iy = 0; iy < dy.h(); ++iy)
                for (int ix = 0; ix < dy.w(); ++ix) {
                    double acc = 0.0;
                    for (int o = 0; o < w.n(); ++o)
                        for (int ky = 0; ky < w.h(); ++ky)
                            for (int kx = 0; kx < w.w(); ++kx) {
                                const int oy = iy - ky + pad;
                                const int ox = ix - kx + pad;
                                if (oy >= 0 && oy < dy.h() && ox >= 0 &&
                                    ox < dy.w())
                                    acc += double(w.at(o, c, ky, kx)) *
                                           dy.at(b, o, oy, ox);
                            }
                    dx.at(b, c, iy, ix) = float(acc);
                }
    return dx;
}

/** Outputs of `got` that differ from `want`: finite values bitwise,
 *  non-finite ones by class (NaN, +inf, -inf). */
int
mismatches(const Tensor &got, const Tensor &want)
{
    if (!got.sameShape(want))
        return int(want.size()) + 1;
    int bad = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const float g = got.data()[i], e = want.data()[i];
        if (std::isnan(e))
            bad += !std::isnan(g);
        else if (std::isinf(e))
            bad += g != e;
        else
            bad += std::memcmp(&g, &e, sizeof g) != 0;
    }
    return bad;
}

} // namespace

TEST(NonFinite, DirectBorderTapsAddNothingOutsideTheMap)
{
    test::ExecScope scope;
    // K = 10: a full output-channel block and a ragged one.
    constexpr int kOut = 10;
    struct Geometry
    {
        int k, stride, h, w;
    };
    // Same-padded 3x3, and a 7x7 stride-2 stem on 16- and 21-wide maps.
    constexpr Geometry kGeometries[] = {
        {3, 1, kH, kW}, {7, 2, 16, 16}, {7, 2, 21, 19}};
    for (const Geometry &g : kGeometries) {
        const int pad = (g.k - 1) / 2;
        Rng rng(78);
        Tensor x0(kB, kC, g.h, g.w), w0(kOut, kC, g.k, g.k);
        Tensor dy0(kB, kOut, g.h, g.w);
        x0.fillUniform(rng);
        w0.fillUniform(rng);
        dy0.fillUniform(rng);
        // Corner and edge taps: each reads padding at some outputs.
        const int last = g.k - 1;
        const int taps[][2] = {{0, 0}, {last, last}, {0, last}, {pad, 0}};
        for (float bad : kBad) {
            for (int t = 0; t < 5; ++t) {
                Tensor x = x0, w = w0;
                std::string what;
                if (t < 4) {
                    w.at(t % kOut, t % kC, taps[t][0], taps[t][1]) = bad;
                    what = "weight tap (" + std::to_string(taps[t][0]) +
                           "," + std::to_string(taps[t][1]) + ")";
                } else {
                    x.at(1, 2, 0, g.w - 1) = bad;
                    what = "input corner";
                }
                const Tensor yRef = naiveDirect(x, w, g.stride, pad);
                const bool adjoint = g.stride == 1;
                const Tensor dxRef =
                    adjoint ? naiveDirectBackwardData(dy0, w) : Tensor();
                for (mk::Isa isa : test::usableIsas()) {
                    ScopedExecConfig isaScope(test::withIsa(isa));
                    for (int threads : {1, 4}) {
                        ThreadPool::global().setThreadCount(threads);
                        const std::string where =
                            std::to_string(g.k) + "x" + std::to_string(g.k) +
                            "-s" + std::to_string(g.stride) + " " + what +
                            " value " + std::to_string(bad) + " isa " +
                            mk::isaName(isa) + " threads " +
                            std::to_string(threads);
                        EXPECT_EQ(mismatches(directConvForward(
                                                 x, w, g.stride, g.stride,
                                                 pad, pad),
                                             yRef),
                                  0)
                            << "forward: " << where;
                        if (adjoint) {
                            EXPECT_EQ(
                                mismatches(directConvBackwardData(dy0, w),
                                           dxRef),
                                0)
                                << "backward-data: " << where;
                        }
                    }
                }
            }
        }
    }
}
