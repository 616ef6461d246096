/**
 * @file
 * Quickstart: the numeric Winograd library in five minutes.
 *
 *  1. generate exact F(m,r) transform matrices with the Toom-Cook
 *     generator;
 *  2. check Winograd convolution against direct convolution;
 *  3. train a small CNN whose convolutions are Winograd *layers*
 *     (weights updated directly in the Winograd domain, Fig 2(b)).
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>

#include "common/trace.hh"
#include "nn/basic_layers.hh"
#include "nn/conv_layer.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "winograd/algo.hh"
#include "winograd/conv.hh"
#include "winograd/plan.hh"
#include "winograd/toom_cook.hh"

using namespace winomc;

int
main()
{
    // ---- 1. Transform matrices from exact rational arithmetic.
    std::printf("== F(2x2,3x3) transform matrices ==\n");
    const WinogradAlgo &algo = algoF2x2_3x3();
    std::printf("B^T =\n%s", algo.BT.toString().c_str());
    std::printf("G =\n%s", algo.G.toString().c_str());
    std::printf("A^T =\n%s\n", algo.AT.toString().c_str());

    // Any F(m, r) is one call away:
    WinogradAlgo f43 = makeWinograd(4, 3);
    std::printf("generated %s with tile size %d\n\n",
                f43.name().c_str(), f43.alpha);

    // ---- 2. Winograd == direct convolution.
    Rng rng(1);
    Tensor x(2, 3, 14, 14);
    Tensor w(4, 3, 3, 3);
    x.fillUniform(rng);
    w.fillUniform(rng);

    Tensor reference = directConvForward(x, w);
    WinoWeights W = transformWeights(w, algo);
    WinoPlan plan(algo, x.n(), x.c(), w.n(), x.h(), x.w());
    Tensor winograd(x.n(), w.n(), x.h(), x.w());
    plan.forwardInto(x, W, winograd);
    std::printf("max |winograd - direct| = %.2e (tolerance ~1e-4)\n\n",
                double(winograd.maxAbsDiff(reference)));

    // ---- 3. Train with Winograd layers.
    std::printf("== training a Winograd-layer CNN on the shape "
                "dataset ==\n");
    nn::Dataset train_set = nn::makeShapeDataset(320, 12, 3, rng);
    nn::Dataset val_set = nn::makeShapeDataset(96, 12, 3, rng);

    nn::Sequential net;
    net.add(std::make_unique<nn::ConvLayer>(
        1, 8, 3, nn::ConvMode::WinogradLayer, algo, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::MaxPool2>());
    net.add(std::make_unique<nn::ConvLayer>(
        8, 8, 3, nn::ConvMode::WinogradLayer, algo, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::MaxPool2>());
    net.add(std::make_unique<nn::Dense>(8 * 3 * 3, 3, rng));
    std::printf("parameters: %zu (Winograd-domain weights are 16/9 of "
                "spatial)\n", net.paramCount());

    nn::TrainConfig cfg;
    cfg.epochs = 6;
    cfg.batchSize = 16;
    cfg.lr = 0.08f;
    cfg.verbose = true;
    auto hist = nn::train(net, train_set, val_set, cfg, rng);
    std::printf("final validation accuracy: %.2f (chance 0.33)\n",
                hist.back().valAcc);

    // ---- 4. Observability artifacts (per-stage timings, spans).
    metrics::dumpIfConfigured();
    trace::flushIfConfigured();
    if (!metrics::configuredPath().empty())
        std::printf("metrics dump (WINOMC_METRICS): %s\n",
                    metrics::configuredPath().c_str());
    if (!trace::configuredPath().empty())
        std::printf("trace file (WINOMC_TRACE): %s\n",
                    trace::configuredPath().c_str());
    return 0;
}
