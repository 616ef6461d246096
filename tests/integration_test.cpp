/**
 * @file
 * Cross-module integration tests.
 *
 * The central one: the functional MPT emulation (batch over clusters,
 * tile elements over groups, explicit scatter/gather and group
 * reductions) computes *exactly* the same forward output, input
 * gradient and weight gradient as the single-worker reference, for
 * every (ng, nc) organization - the parallelization changes the
 * schedule, never the math. Plus end-to-end flows that tie the
 * simulators and the numerics together.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/parallel.hh"
#include "memnet/link_model.hh"
#include "memnet/message_sim.hh"
#include "mpt/comm_volume.hh"
#include "mpt/functional.hh"
#include "mpt/layer_sim.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/basic_layers.hh"
#include "nn/conv_layer.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "quant/predict.hh"
#include "winograd/plan.hh"
#include "workloads/layers.hh"

namespace winomc {

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
[[maybe_unused]] const bool kPinFp32 = [] {
    setPrec(Prec::F32);
    return true;
}();

namespace {

using mpt::runFunctionalMpt;
using mpt::runReference;

struct Org
{
    int ng, nc;
};

class FunctionalMptP : public ::testing::TestWithParam<Org> {};

TEST_P(FunctionalMptP, MatchesSingleWorkerReference)
{
    const auto org = GetParam();
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(404);
    const int B = 8, I = 3, J = 5, H = 10, Wd = 10;
    Tensor x(B, I, H, Wd), dy(B, J, H, Wd);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    Tensor w(J, I, 3, 3);
    w.fillKaiming(rng);
    WinoWeights W = transformWeights(w, algo);

    auto ref = runReference(x, dy, W, algo);
    auto par = runFunctionalMpt(x, dy, W, algo, org.ng, org.nc);

    float scale = std::max({1.0f, ref.y.absMax(), ref.dx.absMax()});
    EXPECT_LT(par.y.maxAbsDiff(ref.y), 1e-4f * scale);
    EXPECT_LT(par.dx.maxAbsDiff(ref.dx), 1e-4f * scale);
    EXPECT_LT(par.dW.maxAbsDiff(ref.dW), 2e-3f);

    // Data-parallel organization moves no tiles.
    if (org.ng == 1)
        EXPECT_EQ(par.tileElemsTransferred, 0u);
    else
        EXPECT_GT(par.tileElemsTransferred, 0u);
    EXPECT_GT(par.weightElemsReduced, 0u);
}

INSTANTIATE_TEST_SUITE_P(Organizations, FunctionalMptP,
    ::testing::Values(Org{1, 1}, Org{1, 8}, Org{16, 1}, Org{4, 2},
                      Org{4, 8}, Org{16, 4}, Org{2, 4}, Org{8, 8}),
    [](const ::testing::TestParamInfo<Org> &info) {
        return "ng" + std::to_string(info.param.ng) + "nc" +
               std::to_string(info.param.nc);
    });

struct BitwiseOrg
{
    int ng, nc, threads;
};

class MptBitwiseP : public ::testing::TestWithParam<BitwiseOrg> {};

TEST_P(MptBitwiseP, LayerAndEmulationMatchSingleWorkerPlan)
{
    // Every (group, cluster) worker runs the single-node element-wise
    // kernels on its own uv slice, and no output element's arithmetic
    // depends on the batch split: forward y and backward dx are
    // bitwise those of one staged plan at any thread count. dW sums
    // the clusters' partial gradients, so it is bitwise only at nc = 1.
    const BitwiseOrg org = GetParam();
    const bool savedSparse = requestedSparse();
    setSparseMode(false); // fp32 dense, like the prec pin above
    ThreadPool::global().setThreadCount(org.threads);
    const WinogradAlgo &algo = algoF2x2_3x3();
    // 81 tiles per image: ragged tile panels, and the batch*tiles lane
    // axis crosses a GEMM lane block at nc = 1 but not at nc = 2.
    const int B = 4, I = 9, J = 5, H = 18, Wd = 18;
    Rng rng(515), wrng(77);
    Tensor x(B, I, H, Wd), dy(B, J, H, Wd);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    mpt::MptConvLayer layer(I, J, 3, org.ng, org.nc, algo, wrng);
    const WinoWeights &W = layer.winoWeights();

    WinoPlan plan(algo, B, I, J, H, Wd);
    Tensor y_ref(B, J, H, Wd), dx_ref(B, I, H, Wd);
    WinoWeights dW_ref(algo.alpha, J, I);
    plan.forwardInto(x, W, y_ref);
    plan.backwardDataInto(dy, W, dx_ref);
    plan.gradWeightsInto(x, dy, dW_ref);
    auto expectGrad = [&](const WinoWeights &dW, const char *who) {
        if (org.nc == 1)
            EXPECT_EQ(dW.maxAbsDiff(dW_ref), 0.0f) << who;
        else
            EXPECT_LT(dW.maxAbsDiff(dW_ref), 2e-3f) << who;
    };

    Tensor y = layer.forward(x, true);
    Tensor dx = layer.backward(dy);
    EXPECT_EQ(y.maxAbsDiff(y_ref), 0.0f);
    EXPECT_EQ(dx.maxAbsDiff(dx_ref), 0.0f);
    expectGrad(layer.winoGradWeights(), "MptConvLayer");

    auto par = mpt::runFunctionalMpt(x, dy, W, algo, org.ng, org.nc);
    EXPECT_EQ(par.y.maxAbsDiff(y_ref), 0.0f);
    EXPECT_EQ(par.dx.maxAbsDiff(dx_ref), 0.0f);
    expectGrad(par.dW, "runFunctionalMpt");

    ThreadPool::global().setThreadCount(0);
    setSparseMode(savedSparse);
}

INSTANTIATE_TEST_SUITE_P(Organizations, MptBitwiseP,
    ::testing::Values(BitwiseOrg{1, 1, 1}, BitwiseOrg{1, 2, 1},
                      BitwiseOrg{2, 1, 1}, BitwiseOrg{2, 2, 1},
                      BitwiseOrg{4, 1, 1}, BitwiseOrg{4, 2, 1},
                      BitwiseOrg{1, 1, 8}, BitwiseOrg{1, 2, 8},
                      BitwiseOrg{2, 1, 8}, BitwiseOrg{2, 2, 8},
                      BitwiseOrg{4, 1, 8}, BitwiseOrg{4, 2, 8}),
    [](const ::testing::TestParamInfo<BitwiseOrg> &info) {
        return "ng" + std::to_string(info.param.ng) + "nc" +
               std::to_string(info.param.nc) + "t" +
               std::to_string(info.param.threads);
    });

TEST(FunctionalMpt, TileTrafficMatchesSectionIIICFormula)
{
    // The emulation's counted traffic must agree with the analytic
    // volume formula used by the communication model.
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(7);
    const int B = 8, C = 4, H = 8;
    Tensor x(B, C, H, H), dy(B, C, H, H);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    Tensor w(C, C, 3, 3);
    w.fillUniform(rng);
    WinoWeights W = transformWeights(w, algo);

    const int ng = 4, nc = 2;
    auto par = runFunctionalMpt(x, dy, W, algo, ng, nc);

    // Per-worker analytic volume (elements, no prediction, both
    // directions and phases) times the worker count.
    ConvSpec spec{"t", B, C, C, H, H, 3};
    auto vol = mpt::mptCommVolume(spec, algo,
                                  memnet::ClusterShape{ng, nc}, nullptr);
    double analytic_elems = vol.tileBytes / 4.0 * ng * nc;
    // The 1D-predict line shrink (m/alpha on gathers) is a transfer
    // representation detail the functional emulation doesn't model, so
    // compare against the un-shrunk expectation.
    double gather_rep = double(algo.m) / algo.alpha;
    double unshrunk =
        analytic_elems * 2.0 / (1.0 + gather_rep);
    EXPECT_NEAR(double(par.tileElemsTransferred), unshrunk,
                0.02 * unshrunk);
}

TEST(Integration, WinogradLayerTrainingTrajectoryMatchesDirectClosely)
{
    // WinogradSpatial mode is the *same function and same parameters*
    // as Direct mode; their training trajectories must track each
    // other step for step (FP noise aside).
    Rng rng_a(55), rng_b(55), data_rng(66);
    const auto &algo = algoF2x2_3x3();
    nn::ConvLayer direct(2, 3, 3, nn::ConvMode::Direct, algo, rng_a);
    nn::ConvLayer wino(2, 3, 3, nn::ConvMode::WinogradSpatial, algo,
                       rng_b);

    Tensor x(4, 2, 8, 8);
    x.fillUniform(data_rng);
    for (int step = 0; step < 5; ++step) {
        Tensor yd = direct.forward(x, true);
        Tensor yw = wino.forward(x, true);
        ASSERT_LT(yd.maxAbsDiff(yw), 5e-3f) << "step " << step;
        direct.backward(yd);
        wino.backward(yw);
        direct.step(0.05f);
        wino.step(0.05f);
    }
    EXPECT_LT(direct.spatialWeights().maxAbsDiff(wino.spatialWeights()),
              5e-3f);
}

TEST(Integration, MptConvLayerTrainsIdenticallyToSoloLayer)
{
    // A network of MPT-partitioned conv layers and the single-worker
    // Winograd-layer network, trained on the same data with the same
    // seeds, must follow the same trajectory.
    const auto &algo = algoF2x2_3x3();
    Rng data_rng(31);
    nn::Dataset train_set = nn::makeShapeDataset(96, 12, 3, data_rng);
    nn::Dataset val_set = nn::makeShapeDataset(32, 12, 3, data_rng);

    auto build = [&](bool distributed, Rng &rng) {
        auto net = std::make_unique<nn::Sequential>();
        if (distributed)
            net->add(std::make_unique<mpt::MptConvLayer>(1, 6, 3, 4, 4,
                                                         algo, rng));
        else
            net->add(std::make_unique<nn::ConvLayer>(
                1, 6, 3, nn::ConvMode::WinogradLayer, algo, rng));
        net->add(std::make_unique<nn::ReLU>());
        net->add(std::make_unique<nn::GlobalAvgPool>());
        net->add(std::make_unique<nn::Dense>(6, 3, rng));
        return net;
    };

    Rng sa(9), sb(9), oa(4), ob(4);
    auto solo = build(false, sa);
    auto dist = build(true, sb);

    nn::TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batchSize = 16;
    auto ha = nn::train(*solo, train_set, val_set, cfg, oa);
    auto hb = nn::train(*dist, train_set, val_set, cfg, ob);

    for (size_t e = 0; e < ha.size(); ++e) {
        EXPECT_NEAR(ha[e].trainLoss, hb[e].trainLoss,
                    1e-3 * std::max(1.0, ha[e].trainLoss)) << e;
        EXPECT_NEAR(ha[e].valAcc, hb[e].valAcc, 0.05) << e;
    }
    auto &conv = dynamic_cast<mpt::MptConvLayer &>(dist->child(0));
    EXPECT_GT(conv.tileElemsTransferred(), 0u);
    EXPECT_GT(conv.weightElemsReduced(), 0u);
}

TEST(Integration, PredictionSkipsAreSoundOnTrainedNetwork)
{
    // End to end: train, harvest real tiles, predict, and verify the
    // no-false-negative guarantee on live data (not just random tiles).
    // Harvesting reads lastOutputTiles(), which only the staged path
    // populates — pin fused mode to Auto for this test (WINOMC_FUSED=on
    // would bypass the tile slabs by documented contract).
    const FusedMode savedFused = requestedFusedMode();
    setFusedMode(FusedMode::Auto);
    Rng rng(77);
    const auto &algo = algoF2x2_3x3();
    nn::Dataset train_set = nn::makeShapeDataset(128, 12, 3, rng);
    nn::Dataset val_set = nn::makeShapeDataset(32, 12, 3, rng);

    nn::Sequential net;
    net.add(std::make_unique<nn::ConvLayer>(
        1, 6, 3, nn::ConvMode::WinogradLayer, algo, rng));
    net.add(std::make_unique<nn::ReLU>());
    auto conv = std::make_unique<nn::ConvLayer>(
        6, 6, 3, nn::ConvMode::WinogradLayer, algo, rng);
    nn::ConvLayer *probe = conv.get();
    net.add(std::move(conv));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::GlobalAvgPool>());
    net.add(std::make_unique<nn::Dense>(6, 3, rng));

    nn::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 16;
    nn::train(net, train_set, val_set, cfg, rng);

    std::vector<int> labels;
    Tensor xb = val_set.batch(0, 16, labels);
    net.forward(xb, true);

    for (auto mode : {quant::PredictMode::TwoD,
                      quant::PredictMode::OneD}) {
        double sigma = quant::ActivationPredictor::wireSigma(
            probe->lastOutputTiles(), algo, mode);
        quant::NonUniformQuantizer qz(mode == quant::PredictMode::TwoD
                                          ? 64 : 32, 4, sigma);
        quant::ActivationPredictor pred(algo, qz, mode);
        quant::PredictStats st = pred.run(probe->lastOutputTiles());
        EXPECT_EQ(st.falseNegatives, 0u);
        EXPECT_GT(st.tiles, 0u);
    }
    setFusedMode(savedFused);
}

TEST(Integration, FlitSimValidatesAnalyticClusterBandwidth)
{
    // The narrow-link FBFLY all-to-all time assumed by the layer model
    // must be reachable in the flit-level simulator: offered neighbor+
    // transpose-ish traffic at 80% of the analytic link rate drains.
    noc::NocConfig cfg;
    cfg.flitBytes = 10;
    noc::Network net(std::make_unique<noc::FlatButterfly2D>(4), cfg);
    Rng rng(31);
    int sent = 0;
    for (int round = 0; round < 200; ++round) {
        for (int s = 0; s < 16; ++s) {
            int d = int(rng.uniformInt(0, 14));
            if (d >= s)
                ++d;
            net.offerPacket(s, d, 64);
            ++sent;
        }
    }
    ASSERT_TRUE(net.drain(2000000));
    EXPECT_EQ(net.ejectedCount(), uint64_t(sent));
}

TEST(Integration, LayerSimConsistentWithMessageSim)
{
    // The all-to-all time inside the layer model (analytic bottleneck)
    // agrees with the event-driven message simulator within the
    // pipelining slack.
    memnet::ClusterShape shape{16, 16};
    auto topo_a = memnet::clusterTopology(shape);
    double per_pair = 100e3;
    double analytic = memnet::allToAllTime(*topo_a, per_pair,
                                           memnet::clusterLink(shape));
    auto topo_b = memnet::clusterTopology(shape);
    double simulated = memnet::simulateAllToAll(
        *topo_b, memnet::clusterLink(shape), per_pair);
    EXPECT_GT(simulated, 0.9 * analytic);
    EXPECT_LT(simulated, 1.4 * analytic);
}

} // namespace
} // namespace winomc
