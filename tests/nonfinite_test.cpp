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
 * {F(2,3), F(4,3), F(6,3)}, for the staged and the fused forward and
 * for the staged backward-data, with the bad pixel in the interior,
 * on an edge and in a corner of an odd-sized map.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/rng.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"

#include "exec_scope.hh"

using namespace winomc;

namespace {

constexpr int kB = 2, kC = 3, kK = 4, kH = 13, kW = 11;

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

    for (int m : {2, 4, 6}) {
        const WinogradAlgo &algo = algoForTile(m);
        const WinoWeights W = transformWeights(w, algo);
        for (mk::Isa isa : test::usableIsas()) {
            for (const Policy &pol : kPolicies) {
                ScopedExecConfig cfg([&](ExecConfig &c) {
                    c.isa = isa;
                    c.prec = pol.prec;
                    c.sparse = pol.sparse;
                });
                WinoPlan plan(algo, kB, kC, kK, kH, kW);
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
                        y.fill(0.0f);
                        plan.forwardFusedInto(x, W, y);
                        EXPECT_EQ(finiteInField(y, p, kK), 0)
                            << "fused forward: " << where;

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
