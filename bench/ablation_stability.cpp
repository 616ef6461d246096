/**
 * @file
 * Numerical-stability ablation (Section II-B discussion of [31]): as
 * the output tile m grows, the Toom-Cook interpolation points spread
 * and the transform coefficients blow up, degrading FP32 accuracy -
 * the reason the paper stays at F(2x2,3x3)/F(4x4,3x3) and leaves
 * larger tiles to better-conditioned transforms as future work. This
 * bench measures the actual max relative error of this library's
 * generated algorithms against direct convolution.
 */

#include <algorithm>
#include <cstdio>

#include "common/rng.hh"
#include "common/table.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/plan.hh"

using namespace winomc;

namespace {

double
maxRelError(int m, int r, int trials)
{
    WinogradAlgo algo = makeWinograd(m, r);
    Rng rng(555);
    double worst = 0.0;
    for (int t = 0; t < trials; ++t) {
        Tensor x(1, 3, 3 * algo.alpha, 3 * algo.alpha);
        Tensor w(2, 3, r, r);
        x.fillUniform(rng);
        w.fillUniform(rng);
        Tensor ref = directConvForward(x, w);
        WinoPlan plan(algo, 1, 3, 2, x.h(), x.w());
        Tensor got(1, 2, x.h(), x.w());
        plan.forwardInto(x, transformWeights(w, algo), got);
        double scale = std::max(1.0f, ref.absMax());
        worst = std::max(worst, double(got.maxAbsDiff(ref)) / scale);
    }
    return worst;
}

} // namespace

int
main()
{
    std::printf("Winograd numerical stability vs tile size (FP32, "
                "uniform [-1,1] data)\n\n");
    Table t("max relative error vs direct convolution");
    t.header({"algorithm", "tile", "max rel err", "vs F(2,r)"});
    double base3 = 0.0, base5 = 0.0;
    for (int m : {2, 3, 4, 5, 6}) {
        double e = maxRelError(m, 3, 8);
        if (m == 2)
            base3 = e;
        t.row()
            .cell("F(" + std::to_string(m) + "x" + std::to_string(m) +
                  ",3x3)")
            .cell(int64_t(m + 2))
            .cell(e, 9)
            .cell(e / base3, 1);
    }
    t.rule();
    for (int m : {2, 3, 4}) {
        double e = maxRelError(m, 5, 8);
        if (m == 2)
            base5 = e;
        t.row()
            .cell("F(" + std::to_string(m) + "x" + std::to_string(m) +
                  ",5x5)")
            .cell(int64_t(m + 4))
            .cell(e, 9)
            .cell(e / base5, 1);
    }
    t.print();
    std::printf("expected: error grows steeply with the tile edge - the "
                "paper's choice of F(2x2)/F(4x4) is the accuracy-safe "
                "region; larger tiles need the improved transforms of "
                "[31].\n");
    return 0;
}
