/**
 * @file
 * Tests for the neural-network substrate: layer forward/backward
 * correctness, gradient checks, join-mode semantics, and end-to-end
 * training convergence on the synthetic dataset.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/basic_layers.hh"
#include "nn/batchnorm.hh"
#include "nn/conv_layer.hh"
#include "nn/dataset.hh"
#include "nn/join.hh"
#include "nn/loss.hh"
#include "nn/trainer.hh"
#include "winograd/algo.hh"

#include "exec_scope.hh"

namespace winomc::nn {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
const test::Fp32Pin fp32Pin;

namespace {

TEST(ReLULayer, ForwardClampsAndBackwardMasks)
{
    ReLU relu;
    Tensor x(1, 1, 2, 2);
    x.at(0, 0, 0, 0) = -1.0f;
    x.at(0, 0, 0, 1) = 2.0f;
    x.at(0, 0, 1, 0) = 0.0f;
    x.at(0, 0, 1, 1) = -0.5f;
    Tensor y = relu.forward(x, true);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 0), 0.0f);

    Tensor dy(1, 1, 2, 2);
    dy.fill(3.0f);
    Tensor dx = relu.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 3.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 0.0f);
}

TEST(MaxPool2Layer, ForwardPicksMaxBackwardRoutes)
{
    MaxPool2 pool;
    Tensor x(1, 1, 4, 4);
    float v = 0.0f;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            x.at(0, 0, i, j) = v++;
    Tensor y = pool.forward(x, true);
    ASSERT_EQ(y.h(), 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 15.0f);

    Tensor dy(1, 1, 2, 2);
    dy.fill(1.0f);
    Tensor dx = pool.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 1.0f); // winner of block (0,0)
    EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 3, 3), 1.0f);
}

TEST(AvgPool2Layer, ForwardAveragesBackwardSpreads)
{
    AvgPool2 pool;
    Tensor x(1, 1, 4, 4);
    float v = 0.0f;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            x.at(0, 0, i, j) = v++;
    Tensor y = pool.forward(x, true);
    ASSERT_EQ(y.h(), 2);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), (0 + 1 + 4 + 5) / 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), (10 + 11 + 14 + 15) / 4.0f);

    Tensor dy(1, 1, 2, 2);
    dy.fill(4.0f);
    Tensor dx = pool.backward(dy);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_FLOAT_EQ(dx.at(0, 0, i, j), 1.0f);
}

TEST(BatchNormLayer, NormalizesPerChannel)
{
    Rng rng(6);
    BatchNorm2d bn(3);
    Tensor x(4, 3, 5, 5);
    x.fillGaussian(rng, 2.0f, 3.0f);
    Tensor y = bn.forward(x, true);

    // With gamma=1, beta=0 the training output is standardized.
    for (int c = 0; c < 3; ++c) {
        double sum = 0, sum2 = 0;
        int n = 0;
        for (int b = 0; b < 4; ++b)
            for (int i = 0; i < 5; ++i)
                for (int j = 0; j < 5; ++j) {
                    sum += y.at(b, c, i, j);
                    sum2 += double(y.at(b, c, i, j)) * y.at(b, c, i, j);
                    ++n;
                }
        EXPECT_NEAR(sum / n, 0.0, 1e-4);
        EXPECT_NEAR(sum2 / n, 1.0, 1e-2);
    }
}

TEST(BatchNormLayer, RunningStatsConvergeAndEvalUsesThem)
{
    Rng rng(7);
    BatchNorm2d bn(1, 1e-5f, 0.5f);
    for (int step = 0; step < 20; ++step) {
        Tensor x(8, 1, 4, 4);
        x.fillGaussian(rng, 5.0f, 2.0f);
        bn.forward(x, true);
    }
    EXPECT_NEAR(bn.runningMean(0), 5.0f, 0.5f);
    EXPECT_NEAR(bn.runningVar(0), 4.0f, 1.0f);

    // Eval mode uses the running stats: a constant input maps to a
    // deterministic value independent of the batch.
    Tensor x(2, 1, 2, 2);
    x.fill(5.0f);
    Tensor y = bn.forward(x, false);
    EXPECT_NEAR(y.at(0, 0, 0, 0), 0.0f, 0.3f);
}

TEST(BatchNormLayer, GradientCheck)
{
    Rng rng(8);
    BatchNorm2d bn(2);
    Tensor x(3, 2, 2, 2);
    x.fillUniform(rng, -2.0f, 2.0f);

    auto loss = [&](const Tensor &xt) {
        // Fresh instance so running stats don't drift between probes.
        BatchNorm2d probe(2);
        Tensor y = probe.forward(xt, true);
        double l = 0;
        for (int b = 0; b < y.n(); ++b)
            for (int c = 0; c < y.c(); ++c)
                for (int i = 0; i < y.h(); ++i)
                    for (int j = 0; j < y.w(); ++j) {
                        double v = y.at(b, c, i, j);
                        l += 0.5 * v * v * (1 + 0.1 * (b + c + i + j));
                    }
        return l;
    };

    Tensor y = bn.forward(x, true);
    Tensor dy(y.n(), y.c(), y.h(), y.w());
    for (int b = 0; b < y.n(); ++b)
        for (int c = 0; c < y.c(); ++c)
            for (int i = 0; i < y.h(); ++i)
                for (int j = 0; j < y.w(); ++j)
                    dy.at(b, c, i, j) = y.at(b, c, i, j) *
                                        float(1 + 0.1 * (b + c + i + j));
    Tensor dx = bn.backward(dy);

    const float eps = 1e-3f;
    for (int b = 0; b < 3; ++b) {
        for (int c = 0; c < 2; ++c) {
            Tensor xp = x, xm = x;
            xp.at(b, c, 0, 1) += eps;
            xm.at(b, c, 0, 1) -= eps;
            double num = (loss(xp) - loss(xm)) / (2.0 * eps);
            EXPECT_NEAR(num, double(dx.at(b, c, 0, 1)),
                        5e-2 * std::max(1.0, std::abs(num)))
                << b << "," << c;
        }
    }
}

TEST(BatchNormLayer, TrainableAffineMovesWithStep)
{
    Rng rng(9);
    BatchNorm2d bn(1);
    Tensor x(4, 1, 3, 3);
    x.fillGaussian(rng);
    Tensor y = bn.forward(x, true);
    bn.backward(y); // dL/dy = y  =>  dgamma = sum y*xhat > 0
    float g0 = bn.gamma(0);
    bn.step(0.1f);
    EXPECT_NE(bn.gamma(0), g0);
}

TEST(GlobalAvgPoolLayer, MeanAndUniformBackward)
{
    GlobalAvgPool gap;
    Tensor x(2, 3, 4, 4);
    Rng rng(1);
    x.fillUniform(rng);
    Tensor y = gap.forward(x, true);
    double acc = 0;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            acc += x.at(1, 2, i, j);
    EXPECT_NEAR(y.at(1, 2, 0, 0), acc / 16.0, 1e-5);

    Tensor dy(2, 3, 1, 1);
    dy.fill(16.0f);
    Tensor dx = gap.backward(dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 2, 2), 1.0f);
}

TEST(DenseLayer, GradientCheck)
{
    Rng rng(2);
    Dense dense(6, 3, rng);
    Tensor x(2, 1, 2, 3);
    x.fillUniform(rng);

    Tensor y = dense.forward(x, true);
    Tensor dx = dense.backward(y); // dL/dy = y for L = 0.5||y||^2

    auto loss = [&](const Tensor &xt) {
        Tensor yy = dense.forward(xt, false);
        double l = 0;
        for (int n = 0; n < yy.n(); ++n)
            for (int o = 0; o < yy.w(); ++o)
                l += 0.5 * double(yy.at(n, 0, 0, o)) * yy.at(n, 0, 0, o);
        return l;
    };

    const float eps = 1e-3f;
    for (int n = 0; n < 2; ++n) {
        for (int j = 0; j < 3; ++j) {
            Tensor xp = x, xm = x;
            xp.at(n, 0, 0, j) += eps;
            xm.at(n, 0, 0, j) -= eps;
            double num = (loss(xp) - loss(xm)) / (2.0 * eps);
            EXPECT_NEAR(num, double(dx.at(n, 0, 0, j)),
                        1e-2 * std::max(1.0, std::abs(num)));
        }
    }
}

TEST(SoftmaxXent, GradientRowsSumToZeroAndLossPositive)
{
    Rng rng(3);
    Tensor logits(4, 1, 1, 5);
    logits.fillUniform(rng, -2.0f, 2.0f);
    std::vector<int> labels{0, 2, 4, 1};
    LossResult res = softmaxCrossEntropy(logits, labels);
    EXPECT_GT(res.loss, 0.0);
    for (int b = 0; b < 4; ++b) {
        double s = 0;
        for (int c = 0; c < 5; ++c)
            s += res.dlogits.at(b, 0, 0, c);
        EXPECT_NEAR(s, 0.0, 1e-6);
    }
}

TEST(SoftmaxXent, PerfectPredictionLowLoss)
{
    Tensor logits(1, 1, 1, 3);
    logits.at(0, 0, 0, 1) = 20.0f;
    LossResult res = softmaxCrossEntropy(logits, {1});
    EXPECT_LT(res.loss, 1e-6);
    EXPECT_EQ(res.correct, 1);
}

TEST(ConvLayerModes, IdenticalFunctionAtInit)
{
    Rng rng_a(7), rng_b(7), rng_c(7);
    const auto &algo = algoF2x2_3x3();
    ConvLayer direct(3, 4, 3, ConvMode::Direct, algo, rng_a);
    ConvLayer wino_s(3, 4, 3, ConvMode::WinogradSpatial, algo, rng_b);
    ConvLayer wino_l(3, 4, 3, ConvMode::WinogradLayer, algo, rng_c);

    Rng rng_x(8);
    Tensor x(2, 3, 8, 8);
    x.fillUniform(rng_x);

    Tensor yd = direct.forward(x, false);
    Tensor ys = wino_s.forward(x, false);
    Tensor yl = wino_l.forward(x, false);
    EXPECT_LT(yd.maxAbsDiff(ys), 1e-4f);
    EXPECT_LT(yd.maxAbsDiff(yl), 1e-4f);
}

TEST(ConvLayerModes, WinogradLayerHasMoreParams)
{
    Rng rng(7);
    const auto &algo = algoF2x2_3x3();
    ConvLayer direct(3, 4, 3, ConvMode::Direct, algo, rng);
    ConvLayer wino_l(3, 4, 3, ConvMode::WinogradLayer, algo, rng);
    EXPECT_EQ(direct.paramCount(), size_t(3) * 4 * 9);
    // Winograd-domain weights: alpha^2 = 16 elements per (i, j).
    EXPECT_EQ(wino_l.paramCount(), size_t(3) * 4 * 16);
}

TEST(ConvLayerModes, TrainingStepReducesLoss)
{
    Rng rng(9);
    const auto &algo = algoF2x2_3x3();
    for (ConvMode mode : {ConvMode::Direct, ConvMode::WinogradSpatial,
                          ConvMode::WinogradLayer}) {
        ConvLayer conv(2, 2, 3, mode, algo, rng);
        Tensor x(1, 2, 6, 6);
        x.fillUniform(rng);

        auto loss_of = [&](Module &mod) {
            Tensor y = mod.forward(x, true);
            double l = 0;
            for (int b = 0; b < y.n(); ++b)
                for (int c = 0; c < y.c(); ++c)
                    for (int i = 0; i < y.h(); ++i)
                        for (int j = 0; j < y.w(); ++j)
                            l += 0.5 * double(y.at(b, c, i, j)) *
                                 y.at(b, c, i, j);
            return l;
        };

        double before = loss_of(conv);
        Tensor y = conv.forward(x, true);
        conv.backward(y);
        conv.step(0.01f);
        double after = loss_of(conv);
        EXPECT_LT(after, before) << "mode " << int(mode);
    }
}

TEST(JoinModes, AgreeWhenBranchOutputsPositive)
{
    // relu(mean(a, b)) == mean(relu(a), relu(b)) iff a, b >= 0; with all
    // branch outputs positive both joins are the identity mean.
    Rng rng(11);
    const auto &algo = algoF2x2_3x3();
    auto std_join = makeFractalPair(1, 2, 3, JoinMode::Standard,
                                    ConvMode::Direct, algo, rng);
    Rng rng2(11);
    auto mod_join = makeFractalPair(1, 2, 3, JoinMode::Modified,
                                    ConvMode::Direct, algo, rng2);

    Tensor x(1, 1, 6, 6);
    x.fill(0.0f); // zero input -> zero pre-activations -> both joins == 0
    Tensor ys = std_join->forward(x, false);
    Tensor ym = mod_join->forward(x, false);
    EXPECT_LT(ys.maxAbsDiff(ym), 1e-6f);
}

TEST(JoinModes, ModifiedJoinGradientCheck)
{
    Rng rng(12);
    const auto &algo = algoF2x2_3x3();
    auto block = makeFractalPair(1, 1, 3, JoinMode::Modified,
                                 ConvMode::Direct, algo, rng);
    Tensor x(1, 1, 4, 4);
    x.fillUniform(rng, 0.1f, 1.0f);

    auto loss = [&](const Tensor &xt) {
        Tensor y = block->forward(xt, true);
        double l = 0;
        for (int i = 0; i < y.h(); ++i)
            for (int j = 0; j < y.w(); ++j)
                l += 0.5 * double(y.at(0, 0, i, j)) * y.at(0, 0, i, j);
        return l;
    };

    Tensor y = block->forward(x, true);
    Tensor dx = block->backward(y);

    const float eps = 1e-3f;
    for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
            Tensor xp = x, xm = x;
            xp.at(0, 0, i, j) += eps;
            xm.at(0, 0, i, j) -= eps;
            double num = (loss(xp) - loss(xm)) / (2.0 * eps);
            EXPECT_NEAR(num, double(dx.at(0, 0, i, j)),
                        2e-2 * std::max(1.0, std::abs(num)));
        }
    }
}

TEST(DatasetGen, ShapesAndDeterminism)
{
    Rng rng_a(21), rng_b(21);
    Dataset a = makeShapeDataset(50, 12, 4, rng_a);
    Dataset b = makeShapeDataset(50, 12, 4, rng_b);
    ASSERT_EQ(a.size(), 50u);
    EXPECT_EQ(a.classes, 4);
    for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a.labels[k], b.labels[k]);
        EXPECT_FLOAT_EQ(a.images[k].maxAbsDiff(b.images[k]), 0.0f);
        EXPECT_GE(a.labels[k], 0);
        EXPECT_LT(a.labels[k], 4);
    }
}

TEST(DatasetGen, BatchStacksImages)
{
    Rng rng(22);
    Dataset ds = makeShapeDataset(10, 8, 3, rng);
    std::vector<int> labels;
    Tensor batch = ds.batch(2, 4, labels);
    EXPECT_EQ(batch.n(), 4);
    EXPECT_EQ(batch.h(), 8);
    ASSERT_EQ(labels.size(), 4u);
    EXPECT_FLOAT_EQ(batch.at(1, 0, 3, 3), ds.images[3].at(3, 3));
}

/// Identity layer that records the batch size of every training-mode
/// forward pass (lets the tests observe exactly what train() feeds the
/// model).
class BatchSpy : public Module
{
  public:
    Tensor forward(const Tensor &x, bool train) override
    {
        if (train)
            trainBatches.push_back(x.n());
        return x;
    }
    Tensor backward(const Tensor &dy) override { return dy; }
    std::string name() const override { return "batch-spy"; }

    std::vector<int> trainBatches;
};

/// Regression: the trailing partial batch used to be silently dropped
/// (23 samples at batchSize 8 trained only 16 per epoch).
TEST(Training, TrailingPartialBatchIsTrained)
{
    Rng rng(41);
    Dataset train_set = makeShapeDataset(23, 8, 3, rng);
    Dataset val_set = makeShapeDataset(8, 8, 3, rng);

    Sequential net;
    auto spy_owned = std::make_unique<BatchSpy>();
    BatchSpy *spy = spy_owned.get();
    net.add(std::move(spy_owned));
    net.add(std::make_unique<Dense>(8 * 8, 3, rng));

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 8;
    train(net, train_set, val_set, cfg, rng);

    // Each epoch must touch every sample exactly once: 8 + 8 + 7.
    ASSERT_EQ(spy->trainBatches.size(), 6u);
    for (int e = 0; e < 2; ++e) {
        int samples = 0;
        for (int b = 0; b < 3; ++b) {
            EXPECT_GT(spy->trainBatches[size_t(e * 3 + b)], 0);
            samples += spy->trainBatches[size_t(e * 3 + b)];
        }
        EXPECT_EQ(samples, 23) << "epoch " << e;
    }
}

/// Regression: batchSize > dataset size used to make training a
/// complete no-op; it must degrade to one small batch per epoch that
/// still learns.
TEST(Training, BatchLargerThanDatasetStillLearns)
{
    Rng rng(42);
    Dataset train_set = makeShapeDataset(5, 8, 2, rng);
    Dataset val_set = makeShapeDataset(8, 8, 2, rng);

    Sequential net;
    auto spy_owned = std::make_unique<BatchSpy>();
    BatchSpy *spy = spy_owned.get();
    net.add(std::move(spy_owned));
    net.add(std::make_unique<Dense>(8 * 8, 2, rng));

    TrainConfig cfg;
    cfg.epochs = 20;
    cfg.batchSize = 8; // > 5 samples
    cfg.lr = 0.05f;
    auto hist = train(net, train_set, val_set, cfg, rng);

    ASSERT_EQ(spy->trainBatches.size(), 20u);
    for (int b : spy->trainBatches)
        EXPECT_EQ(b, 5);
    EXPECT_LT(hist.back().trainLoss, hist.front().trainLoss);
    EXPECT_GT(hist.back().trainAcc, 0.5);
}

/// An empty dataset stays a warning-level no-op (no crash, no NaNs).
TEST(Training, EmptyDatasetIsANoOp)
{
    Rng rng(43);
    Dataset train_set = makeShapeDataset(0, 8, 2, rng);
    Dataset val_set = makeShapeDataset(4, 8, 2, rng);

    Sequential net;
    net.add(std::make_unique<Dense>(8 * 8, 2, rng));

    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 4;
    auto hist = train(net, train_set, val_set, cfg, rng);
    ASSERT_EQ(hist.size(), 2u);
    EXPECT_EQ(hist[0].trainLoss, 0.0);
    EXPECT_EQ(hist[0].trainAcc, 0.0);
}

/// End-to-end: a small CNN with a Winograd-layer conv learns the shape
/// dataset well above chance.
TEST(Training, SmallCnnConverges)
{
    Rng rng(31);
    Dataset train_set = makeShapeDataset(320, 12, 3, rng);
    Dataset val_set = makeShapeDataset(96, 12, 3, rng);

    const auto &algo = algoF2x2_3x3();
    Sequential net;
    net.add(std::make_unique<ConvLayer>(1, 8, 3, ConvMode::WinogradLayer,
                                        algo, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2>());
    net.add(std::make_unique<ConvLayer>(8, 8, 3, ConvMode::WinogradLayer,
                                        algo, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2>());
    net.add(std::make_unique<Dense>(8 * 3 * 3, 3, rng));

    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batchSize = 16;
    cfg.lr = 0.08f;
    auto hist = train(net, train_set, val_set, cfg, rng);

    ASSERT_EQ(hist.size(), 10u);
    EXPECT_GT(hist.back().valAcc, 0.7) << "chance is 0.33";
    EXPECT_LT(hist.back().trainLoss, hist.front().trainLoss);
}

} // namespace
} // namespace winomc::nn
