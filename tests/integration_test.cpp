/**
 * @file
 * Cross-module integration tests.
 *
 * The central one: the MPT layer (batch over clusters, tile elements
 * over groups, explicit scatter/gather and group reductions) computes
 * *exactly* the same forward output, input gradient and weight
 * gradient as the single-worker reference, for every (ng, nc)
 * organization - the parallelization changes the schedule, never the
 * math. Plus end-to-end flows that tie the simulators and the numerics
 * together.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "common/parallel.hh"
#include "memnet/link_model.hh"
#include "memnet/message_sim.hh"
#include "mpt/comm_volume.hh"
#include "mpt/layer_sim.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/basic_layers.hh"
#include "nn/conv_layer.hh"
#include "nn/dataset.hh"
#include "nn/trainer.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "quant/predict.hh"
#include "winograd/microkernel.hh"
#include "winograd/plan.hh"
#include "workloads/layers.hh"

#include "ew_forms.hh"
#include "exec_scope.hh"
#include "pool_bytes.hh"

namespace winomc {

using test::bytesOf;
using test::pooledInUse;
using test::winogradBackwardData;
using test::winogradForward;
using test::winogradGradWeights;

// This suite validates the fp32 pipeline against fp32 oracles (direct
// convolution, numeric gradients, bitwise stage parity), so the
// activation storage precision is pinned to fp32 regardless of
// WINOMC_PREC. WINOMC_SPARSE stays env-driven on purpose: sparse
// execution is bitwise identical and must keep passing here.
const test::Fp32Pin fp32Pin;

namespace {

/** One MptConvLayer training step: forward, backward, weight gradient
 *  and the worker-boundary traffic it counted. */
struct MptStep
{
    Tensor y, dx;
    WinoWeights dW;
    uint64_t tileElems, weightElems;
};

MptStep
runMptStep(mpt::MptConvLayer &layer, const Tensor &x, const Tensor &dy)
{
    MptStep s;
    s.y = layer.forward(x, true);
    s.dx = layer.backward(dy);
    s.dW = layer.winoGradWeights();
    s.tileElems = layer.tileElemsTransferred();
    s.weightElems = layer.weightElemsReduced();
    return s;
}

struct Org
{
    int ng, nc;
};

class FunctionalMptP : public ::testing::TestWithParam<Org> {};

TEST_P(FunctionalMptP, MatchesSingleWorkerReference)
{
    const auto org = GetParam();
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(404), wrng(405);
    const int B = 8, I = 3, J = 5, H = 10, Wd = 10;
    Tensor x(B, I, H, Wd), dy(B, J, H, Wd);
    x.fillUniform(rng);
    dy.fillUniform(rng);
    mpt::MptConvLayer layer(I, J, 3, org.ng, org.nc, algo, wrng);
    const WinoWeights &W = layer.winoWeights();

    // The single-worker reference of the same step.
    const Tensor y_ref = winogradForward(x, W, algo);
    const Tensor dx_ref = winogradBackwardData(dy, W, algo, H, Wd);
    const WinoWeights dW_ref = winogradGradWeights(x, dy, algo);

    const MptStep par = runMptStep(layer, x, dy);
    float scale = std::max({1.0f, y_ref.absMax(), dx_ref.absMax()});
    EXPECT_LT(par.y.maxAbsDiff(y_ref), 1e-4f * scale);
    EXPECT_LT(par.dx.maxAbsDiff(dx_ref), 1e-4f * scale);
    EXPECT_LT(par.dW.maxAbsDiff(dW_ref), 2e-3f);

    // Data-parallel organization moves no tiles.
    if (org.ng == 1)
        EXPECT_EQ(par.tileElems, 0u);
    else
        EXPECT_GT(par.tileElems, 0u);
    EXPECT_GT(par.weightElems, 0u);
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
    // bitwise those of one staged plan at any thread count, for a
    // train forward and for an eval forward (which an undivided shard
    // runs through the plan whole). dW sums the clusters' partial
    // gradients, so it is bitwise only at nc = 1.
    const BitwiseOrg org = GetParam();
    // fp32 dense, like the prec pin above.
    test::ExecScope dense(test::withSparse(false));
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

    EXPECT_EQ(layer.forward(x, false).maxAbsDiff(y_ref), 0.0f) << "eval";
    const MptStep par = runMptStep(layer, x, dy);
    EXPECT_EQ(par.y.maxAbsDiff(y_ref), 0.0f);
    EXPECT_EQ(par.dx.maxAbsDiff(dx_ref), 0.0f);
    if (org.nc == 1)
        EXPECT_EQ(par.dW.maxAbsDiff(dW_ref), 0.0f);
    else
        EXPECT_LT(par.dW.maxAbsDiff(dW_ref), 2e-3f);
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

TEST(Integration, MptStepMatchesSoloLayerBitwiseAtOneCluster)
{
    // At nc = 1 the MPT layer's weight gradient is bitwise the solo
    // layer's, and both take the same one-FMA SGD update, so y, dx and
    // the weights stay bitwise equal step after step at every ISA.
    const WinogradAlgo &algo = algoF2x2_3x3();
    const int B = 4, I = 3, J = 5, H = 10, Wd = 10;
    for (mk::Isa isa : test::usableIsas()) {
        test::ExecScope scope(test::withIsa(isa));
        for (int ng : {1, 2, 4}) {
            Rng rngA(61), rngB(61), data(62);
            nn::ConvLayer solo(I, J, 3, nn::ConvMode::WinogradLayer, algo,
                               rngA);
            mpt::MptConvLayer layer(I, J, 3, ng, 1, algo, rngB);
            for (int step = 0; step < 3; ++step) {
                const std::string at = std::string(mk::isaName(isa)) +
                                       " ng " + std::to_string(ng) +
                                       " step " + std::to_string(step);
                Tensor x(B, I, H, Wd), dy(B, J, H, Wd);
                x.fillUniform(data);
                dy.fillUniform(data);
                EXPECT_EQ(layer.forward(x, true).maxAbsDiff(
                              solo.forward(x, true)),
                          0.0f)
                    << at;
                EXPECT_EQ(layer.backward(dy).maxAbsDiff(solo.backward(dy)),
                          0.0f)
                    << at;
                layer.step(0.05f);
                solo.step(0.05f);
                EXPECT_EQ(layer.winoWeights().maxAbsDiff(solo.winoWeights()),
                          0.0f)
                    << at;
            }
        }
    }
}

TEST(FunctionalMpt, GradientsAllocatedByTheFirstBackward)
{
    // A layer that only runs eval forwards holds no gradient: its
    // first backward allocates dW and the cluster partial dWCluster.
    // Counted in workspace bytes, at one thread so that only the
    // calling thread's kernel scratch (grown by the warm-up) exists.
    ThreadPool::global().setThreadCount(1);
    const WinogradAlgo &algo = algoF2x2_3x3();
    const int B = 4, C = 8, K = 12, H = 8, ng = 2, nc = 2, shard = B / nc;
    const int nt = TileGrid(H, H, algo).tiles();
    const std::int64_t WBytes = bytesOf<WinoWeights>(algo.alpha, K, C);
    // What else the first backward holds: the dy/dx staging shards and
    // each cluster plan's dYt/dXt slabs.
    const std::int64_t backwardRest =
        bytesOf<Tensor>(shard, K, H, H) + bytesOf<Tensor>(shard, C, H, H) +
        nc * (bytesOf<WinoTiles>(algo.alpha, K, shard, nt) +
              bytesOf<WinoTiles>(algo.alpha, C, shard, nt));

    Rng rng(91), data(92);
    Tensor x(B, C, H, H), dy(B, K, H, H);
    x.fillUniform(data);
    dy.fillUniform(data);
    {
        mpt::MptConvLayer warm(C, K, 3, ng, nc, algo, rng);
        runMptStep(warm, x, dy);
    }

    const std::int64_t before = pooledInUse();
    mpt::MptConvLayer eval(C, K, 3, ng, nc, algo, rng);
    EXPECT_EQ(pooledInUse() - before, WBytes) << "a fresh layer holds only W";
    eval.forward(x, false);
    const std::int64_t evalBytes = pooledInUse() - before;
    EXPECT_EQ(eval.winoGradWeights().size(), 0u);

    const std::int64_t mid = pooledInUse();
    mpt::MptConvLayer trained(C, K, 3, ng, nc, algo, rng);
    trained.forward(x, true);
    EXPECT_EQ(pooledInUse() - mid, evalBytes)
        << "a train forward holds what an eval forward does";
    trained.backward(dy);
    trained.step(0.01f);
    EXPECT_EQ(pooledInUse() - mid - evalBytes, 2 * WBytes + backwardRest);
    EXPECT_EQ(trained.winoGradWeights().size(),
              trained.winoWeights().size());
    ThreadPool::global().setThreadCount(0);
}

TEST(FunctionalMpt, TileTrafficMatchesSectionIIICFormula)
{
    // The layer's counted traffic over one training step must agree
    // with the analytic volume formula used by the communication model.
    const WinogradAlgo &algo = algoF2x2_3x3();
    Rng rng(7);
    const int B = 8, C = 4, H = 8;
    Tensor x(B, C, H, H), dy(B, C, H, H);
    x.fillUniform(rng);
    dy.fillUniform(rng);

    const int ng = 4, nc = 2;
    mpt::MptConvLayer layer(C, C, 3, ng, nc, algo, rng);
    const MptStep par = runMptStep(layer, x, dy);

    // Per-worker analytic volume (elements, no prediction, both
    // directions and phases) times the worker count.
    ConvSpec spec{"t", B, C, C, H, H, 3};
    auto vol = mpt::mptCommVolume(spec, algo,
                                  memnet::ClusterShape{ng, nc}, nullptr);
    double analytic_elems = vol.tileBytes / 4.0 * ng * nc;
    // The 1D-predict line shrink (m/alpha on gathers) is a transfer
    // representation detail the layer doesn't model, so compare
    // against the un-shrunk expectation.
    double gather_rep = double(algo.m) / algo.alpha;
    double unshrunk =
        analytic_elems * 2.0 / (1.0 + gather_rep);
    EXPECT_NEAR(double(par.tileElems), unshrunk,
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
    // Harvesting reads lastOutputTiles(), which a train-mode forward
    // (staged, tiles kept) populates.
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
