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
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "winograd/conv.hh"

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
    g.k = int(rng.uniformInt(1, 9));
    g.h = int(rng.uniformInt(1, 20));
    g.w = int(rng.uniformInt(1, 20));
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
        Tensor x(g.b, g.c, g.h, g.w);
        Tensor w(g.k, g.c, g.kh, g.kw);
        Tensor dy(g.b, g.k, g.h, g.w);
        x.fillUniform(rng);
        w.fillUniform(rng);
        dy.fillUniform(rng);
        const Tensor yRef = naiveForward(x, w, g);
        const Tensor dxRef =
            g.oddSquare() ? naiveBackwardData(dy, w, g) : Tensor();
        ++checked;

        for (mk::Isa isa : test::usableIsas()) {
            ScopedExecConfig isaScope(test::withIsa(isa));
            for (int threads : {1, 4}) {
                ThreadPool::global().setThreadCount(threads);
                const std::string where =
                    "seed " + std::to_string(seed) + " " + g.str() +
                    " isa " + mk::isaName(isa) + " threads " +
                    std::to_string(threads);
                if (!bitwiseEqual(
                        directConvForward(x, w, g.sH, g.sW, g.pH, g.pW),
                        yRef))
                    ADD_FAILURE() << "forward differs: " << where;
                if (g.oddSquare() &&
                    !bitwiseEqual(directConvBackwardData(dy, w), dxRef))
                    ADD_FAILURE() << "backward-data differs: " << where;
            }
        }
    }
    // The draw must leave most geometries usable.
    EXPECT_GT(checked, kGeometries / 2);
}
