/**
 * @file
 * winomc-hash-probe: prints one FNV-1a hash per numeric result of the
 * Winograd pipeline, so two builds can be compared for bitwise-equal
 * output with one `diff`.
 *
 *   winomc-hash-probe > hashes.txt
 *
 * Covered, for F(2,3), F(4,3), F(6,3) and F(2,5) over an odd shape, a
 * 1-wide and a 1-high map, a shape whose eval forward runs in several
 * tile ranges,
 * a batch of more images than channels with ragged last panels, and
 * train_wino's B16 C=K=32 32x32 conv (many panels per image, many
 * images per channel):
 *
 *  - the four transforms on their own (input, input adjoint, inverse,
 *    inverse adjoint);
 *  - a WinoPlan's train forward y (one tile range, the whole batch),
 *    eval forward y (several tile ranges wherever the batch exceeds
 *    WinoPlan::rangeTiles()), backward-data dx and weight gradient dW;
 *  - nn::ConvLayer in both weight domains: train forward y, backward
 *    dx, the weights after one SGD step, and an eval forward;
 *  - eval forwards of tuner-picked (Auto) 5x5 and 3x3-stride-2 layers,
 *    which may run DWM-decomposed F(m,3) units;
 *  - DWM-decomposed plans (5x5, 3x3-stride-2, 7x7-stride-2) on each
 *    F(m,3) unit, whatever the tuner would pick;
 *  - the direct convolution: serve_auto's 7x7-stride-2 stem and
 *    3x3-stride-2 layer at batch 1 and 8 on both image sizes, a
 *    stride-1 same-padded forward, backward-data and weight gradient
 *    whose channel counts are not multiples of the output-channel
 *    block, and a 5x3 kernel at stride 2x3.
 *
 * Every input carries exact +0 and -0 entries (as ReLU and its
 * backward produce), so a kernel that flips the sign of a zero shows.
 *
 * The process runs under whatever WINOMC_ISA / _PREC / _SPARSE /
 * WINOMC_THREADS it is given; each line names its case, never the
 * configuration, so runs under one configuration diff cleanly across
 * builds.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.hh"
#include "nn/conv_layer.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/conv_spec.hh"
#include "winograd/plan.hh"

using namespace winomc;

namespace {

std::uint64_t
fnv1a(const float *p, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto *b = reinterpret_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n * sizeof(float); ++i) {
        h ^= b[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
print(const std::string &label, const float *p, std::size_t n)
{
    std::printf("%-44s %016" PRIx64 "\n", label.c_str(), fnv1a(p, n));
}

void print(const std::string &l, const Tensor &t)
{
    print(l, t.data(), t.size());
}

void print(const std::string &l, const WinoTiles &t)
{
    print(l, t.row(0, 0), t.size());
}

void print(const std::string &l, const WinoWeights &w)
{
    print(l, w.raw(), w.size());
}

/** Uniform in [-1, 1) with every 5th entry -0 and every 7th +0. */
Tensor
input(int b, int c, int h, int w, Rng &rng)
{
    Tensor t(b, c, h, w);
    t.fillUniform(rng);
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (i % 5 == 0)
            t.data()[i] = -0.0f;
        else if (i % 7 == 0)
            t.data()[i] = 0.0f;
    }
    return t;
}

struct Shape
{
    const char *name;
    int b, c, k, h, w;
};

constexpr Shape kShapes[] = {
    {"odd", 2, 3, 5, 13, 11},
    {"wide1", 2, 2, 3, 9, 1},
    {"high1", 1, 2, 3, 1, 7},
    {"fusing", 1, 16, 16, 72, 72},
    {"ragged", 5, 3, 4, 24, 24},
    {"train", 16, 32, 32, 32, 32},
};

void
probeAlgo(const WinogradAlgo &algo, const Shape &s)
{
    const std::string tag = algo.name() + " " + s.name + " ";
    Rng rng(0x1234);
    const Tensor x = input(s.b, s.c, s.h, s.w, rng);
    const Tensor dy = input(s.b, s.k, s.h, s.w, rng);
    Tensor w(s.k, s.c, algo.r, algo.r);
    w.fillUniform(rng);
    const WinoWeights W = transformWeights(w, algo);

    const int nt = TileGrid(s.h, s.w, algo).tiles();
    WinoTiles X(algo.alpha, s.c, s.b, nt), dY(algo.alpha, s.k, s.b, nt);
    Tensor xa(s.b, s.c, s.h, s.w), ya(s.b, s.k, s.h, s.w);
    transformInputInto(x, algo, X);
    print(tag + "xform.input", X);
    transformInputAdjointInto(X, algo, xa);
    print(tag + "xform.input_adjoint", xa);
    inverseTransformAdjointInto(dy, algo, dY);
    print(tag + "xform.inverse_adjoint", dY);
    inverseTransformInto(dY, algo, ya);
    print(tag + "xform.inverse", ya);

    WinoPlan plan(algo, s.b, s.c, s.k, s.h, s.w);
    Tensor y(s.b, s.k, s.h, s.w), dx(s.b, s.c, s.h, s.w);
    plan.forwardInto(x, W, y, true);
    print(tag + "plan.y.staged", y);
    plan.forwardInto(x, W, y, false);
    print(tag + "plan.y.fused", y);
    plan.backwardDataInto(dy, W, dx);
    print(tag + "plan.dx", dx);
    WinoWeights dW = W; // shape only: gradWeightsInto assigns
    plan.gradWeightsInto(x, dy, dW);
    print(tag + "plan.dW", dW);
}

void
probeLayer(const WinogradAlgo &algo, const Shape &s, nn::ConvMode mode,
           const char *modeName)
{
    const std::string tag =
        algo.name() + " " + s.name + " layer." + modeName + ".";
    Rng rng(0x5678);
    nn::ConvLayer layer(s.c, s.k, algo.r, mode, algo, rng);
    const Tensor x = input(s.b, s.c, s.h, s.w, rng);
    const Tensor dy = input(s.b, s.k, s.h, s.w, rng);
    print(tag + "y", layer.forward(x, true));
    print(tag + "dx", layer.backward(dy));
    layer.step(0.05f);
    print(tag + "w", layer.spatialWeights());
    print(tag + "W", layer.winoWeights());
    print(tag + "y.eval", layer.forward(x, false));
}

void
probeAuto(const Shape &s, int kernel, int stride)
{
    const std::string tag = std::string("auto ") + std::to_string(kernel) +
                            "x" + std::to_string(kernel) + "-s" +
                            std::to_string(stride) + " " + s.name + " ";
    Rng rng(0x9abc);
    nn::ConvLayer layer(s.c, s.k, kernel, kernel, stride, stride, rng);
    print(tag + "y.eval", layer.forward(input(s.b, s.c, s.h, s.w, rng),
                                        false));
}

void
probeDecomposed(const WinogradAlgo &unit, const Shape &s, int kernel,
                int stride)
{
    ConvSpec spec{"probe", s.b, s.c, s.k, s.h, s.w, kernel};
    spec.strideH = spec.strideW = stride;
    if (!decompSupported(spec))
        return;
    const std::string tag = "decomp " + unit.name() + " " +
                            std::to_string(kernel) + "x" +
                            std::to_string(kernel) + "-s" +
                            std::to_string(stride) + " " + s.name + " ";
    Rng rng(0xdef0);
    Tensor w(s.k, s.c, kernel, kernel);
    w.fillUniform(rng);
    WinoDecompPlan plan(spec, unit);
    plan.setWeights(w);
    Tensor y(s.b, s.k, spec.outH(), spec.outW());
    plan.forwardInto(input(s.b, s.c, s.h, s.w, rng), y);
    print(tag + "y", y);
}

struct DirectCase
{
    const char *name;
    int b, c, k, h, w, kh, kw, sH, sW;
};

constexpr DirectCase kDirectCases[] = {
    {"stem.b1", 1, 3, 32, 32, 32, 7, 7, 2, 2},
    {"stem.b8", 8, 3, 32, 32, 32, 7, 7, 2, 2},
    {"stem24.b1", 1, 3, 32, 24, 24, 7, 7, 2, 2},
    {"stem24.b8", 8, 3, 32, 24, 24, 7, 7, 2, 2},
    {"s2.b1", 1, 32, 32, 16, 16, 3, 3, 2, 2},
    {"s2.b8", 8, 32, 32, 16, 16, 3, 3, 2, 2},
    {"s2-12.b1", 1, 32, 32, 12, 12, 3, 3, 2, 2},
    {"s2-12.b8", 8, 32, 32, 12, 12, 3, 3, 2, 2},
    {"same3", 2, 5, 13, 13, 11, 3, 3, 1, 1},
    {"same5", 2, 11, 19, 21, 37, 5, 5, 1, 1},
    {"rect5x3-s2x3", 2, 3, 5, 13, 17, 5, 3, 2, 3},
};

/** Direct forward with "same"-style pads ((k - 1) / 2); for stride 1
 *  and an odd square kernel also backward-data and grad-weights. */
void
probeDirect(const DirectCase &d)
{
    const std::string tag = std::string("direct ") + d.name + " ";
    Rng rng(0x2468);
    const Tensor x = input(d.b, d.c, d.h, d.w, rng);
    Tensor w(d.k, d.c, d.kh, d.kw);
    w.fillUniform(rng);
    const Tensor y = directConvForward(x, w, d.sH, d.sW, (d.kh - 1) / 2,
                                       (d.kw - 1) / 2);
    print(tag + "y", y);
    if (d.sH == 1 && d.sW == 1 && d.kh == d.kw && d.kh % 2 == 1) {
        const Tensor dy = input(d.b, d.k, d.h, d.w, rng);
        print(tag + "dx", directConvBackwardData(dy, w));
        print(tag + "dw", directConvGradWeights(x, dy, d.kh));
    }
}

} // namespace

int
main()
{
    for (const WinogradAlgo *algo :
         {&algoF2x2_3x3(), &algoF4x4_3x3(), &algoF6x6_3x3(),
          &algoF2x2_5x5()}) {
        for (const Shape &s : kShapes) {
            probeAlgo(*algo, s);
            probeLayer(*algo, s, nn::ConvMode::WinogradSpatial,
                       "spatial");
            probeLayer(*algo, s, nn::ConvMode::WinogradLayer, "wino");
        }
    }
    for (const Shape &s : kShapes) {
        probeAuto(s, 5, 1);
        probeAuto(s, 3, 2);
        for (int m : {2, 4, 6}) {
            probeDecomposed(algoForTile(m), s, 5, 1);
            probeDecomposed(algoForTile(m), s, 3, 2);
            probeDecomposed(algoForTile(m), s, 7, 2);
        }
    }
    for (const DirectCase &d : kDirectCases)
        probeDirect(d);
    return 0;
}
