/**
 * @file
 * train_wino: closed-loop SGD on a ResNet-style all-3x3 net of
 * Winograd-layer convolutions, one step (forward + loss + backward +
 * update) at a time.
 *
 * Off the clock, the same net is also built with direct convolutions
 * (its forward must match) and with mpt::MptConvLayer (its first losses
 * must match, and its partitioning counts are the mpt.* metrics).
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "mpt/mpt_conv_layer.hh"
#include "nn/basic_layers.hh"
#include "nn/dataset.hh"
#include "nn/loss.hh"
#include "tensor/workspace.hh"
#include "winograd/algo.hh"

namespace perfbench {

using namespace winomc;

namespace {

constexpr int kBatch = 16;
constexpr int kImage = 32;
constexpr int kShapeClasses = 6; ///< classes makeShapeDataset draws
constexpr int kLogits = 10;      ///< classifier width
constexpr int kBatches = 16;     ///< distinct batches the steps cycle
constexpr float kLr = 0.01f;
constexpr int kSetups = 5;       ///< setup_s is the median of these
constexpr int kMinSteps = 3;
constexpr int kMptGroups = 4;
constexpr int kMptClusters = 4;
constexpr int kMptCheckSteps = 3;
/** Relative bound of the Winograd-vs-direct forward check: the fp32
 *  safety budget the tuner admits F(m,3) under (DESIGN.md §4.14). */
constexpr double kDirectRelTol = 1e-4;
/** MPT sums partial products per group and cluster in another order
 *  than the single-worker layer; its loss may differ by fp32
 *  accumulation error only. */
constexpr double kLossRelTol = 1e-4;

enum class Conv { Winograd, Direct, Mpt };

nn::ModulePtr
makeConv(Conv kind, int in, int out, Rng &rng)
{
    const WinogradAlgo &f43 = algoF4x4_3x3();
    switch (kind) {
      case Conv::Winograd:
        return std::make_unique<nn::ConvLayer>(
            in, out, 3, nn::ConvMode::WinogradLayer, f43, rng);
      case Conv::Direct:
        return std::make_unique<nn::ConvLayer>(
            in, out, 3, nn::ConvMode::Direct, f43, rng);
      case Conv::Mpt:
        return std::make_unique<mpt::MptConvLayer>(
            in, out, 3, kMptGroups, kMptClusters, f43, rng);
    }
    return nullptr;
}

/**
 * Five 3x3 convs (widths 32/64/128), each followed by ReLU, AvgPool2
 * downsampling, GlobalAvgPool and a Dense classifier. Every conv kind
 * draws its spatial kernel from `rng` the same way, so one seed gives
 * one function whichever kind executes it.
 */
std::unique_ptr<nn::Sequential>
buildNet(Conv kind, std::uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    auto block = [&](int in, int out) {
        net->add(makeConv(kind, in, out, rng));
        net->add(std::make_unique<nn::ReLU>());
    };
    block(1, 32);
    block(32, 32);
    net->add(std::make_unique<nn::AvgPool2>());
    block(32, 64);
    net->add(std::make_unique<nn::AvgPool2>());
    block(64, 128);
    block(128, 128);
    net->add(std::make_unique<nn::GlobalAvgPool>());
    net->add(std::make_unique<nn::Dense>(128, kLogits, rng));
    return net;
}

struct Batches
{
    std::vector<Tensor> x;
    std::vector<std::vector<int>> y;
};

Batches
makeBatches(std::uint64_t seed)
{
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL); // independent of the weights
    const nn::Dataset ds = nn::makeShapeDataset(kBatch * kBatches, kImage,
                                                kShapeClasses, rng);
    Batches b;
    for (int i = 0; i < kBatches; ++i) {
        std::vector<int> labels;
        b.x.push_back(ds.batch(std::size_t(i) * kBatch, kBatch, labels));
        b.y.push_back(std::move(labels));
    }
    return b;
}

/** One SGD step; returns the batch loss. */
double
trainStep(nn::Module &net, const Tensor &x, const std::vector<int> &y,
          Spans *spans, int lossId)
{
    const Tensor logits = net.forward(x, true);
    const nn::LossResult res = [&] {
        Spans::Scope s(spans, lossId);
        return nn::softmaxCrossEntropy(logits, y);
    }();
    net.backward(res.dlogits);
    net.step(kLr);
    return res.loss;
}

void
checkAgainstDirect(Outcome &out, std::uint64_t seed, const Tensor &x)
{
    auto wino = buildNet(Conv::Winograd, seed);
    auto direct = buildNet(Conv::Direct, seed);
    const Tensor yw = wino->forward(x, false);
    const Tensor yd = direct->forward(x, false);
    const double err = yw.maxAbsDiff(yd);
    const double bound = kDirectRelTol * yd.absMax();
    std::printf("# check: winograd vs direct forward max|diff| %.3g "
                "(bound %.3g)\n", err, bound);
    out.check(err <= bound, "winograd forward matches direct forward");
}

/** MPT elements moved per training step. */
struct MptCounts
{
    double tileElems = 0.0;
    double weightElems = 0.0;
};

/** Train the MPT and the Winograd net side by side for a few steps;
 *  their losses must agree. Returns the MPT net's per-step counts. */
MptCounts
checkMptLoss(Outcome &out, std::uint64_t seed, const Batches &data)
{
    auto wino = buildNet(Conv::Winograd, seed);
    auto mptNet = buildNet(Conv::Mpt, seed);
    for (int s = 0; s < kMptCheckSteps; ++s) {
        const double lw = trainStep(*wino, data.x[s], data.y[s], nullptr, 0);
        const double lm =
            trainStep(*mptNet, data.x[s], data.y[s], nullptr, 0);
        const double rel = std::fabs(lw - lm) / std::fabs(lw);
        std::printf("# check: step %d loss winograd %.9g mpt %.9g "
                    "(rel diff %.3g, bound %.3g)\n",
                    s, lw, lm, rel, kLossRelTol);
        out.check(rel <= kLossRelTol,
                  "mpt loss matches winograd at step " + std::to_string(s));
    }
    MptCounts c;
    for (std::size_t i = 0; i < mptNet->size(); ++i) {
        if (auto *m = dynamic_cast<mpt::MptConvLayer *>(&mptNet->child(i))) {
            c.tileElems += double(m->tileElemsTransferred());
            c.weightElems += double(m->weightElemsReduced());
        }
    }
    c.tileElems /= kMptCheckSteps;
    c.weightElems /= kMptCheckSteps;
    return c;
}

} // namespace

Outcome
runTrain(const Options &opt)
{
    Outcome out(opt.trace);
    const Batches data = makeBatches(opt.seed);

    // Set-up: net and plan build plus one warm-up step, from an empty
    // workspace pool each time so every set-up pays its allocations.
    std::unique_ptr<nn::Sequential> net;
    std::vector<double> setupS;
    for (int k = 0; k < kSetups; ++k) {
        net.reset();
        ws::Workspace::global().trim();
        const auto t0 = Clock::now();
        net = buildNet(Conv::Winograd, opt.seed);
        trainStep(*net, data.x[0], data.y[0], nullptr, 0);
        setupS.push_back(secondsSince(t0));
    }

    checkAgainstDirect(out, opt.seed, data.x[0]);
    const MptCounts mptCounts = checkMptLoss(out, opt.seed, data);

    // Traced runs alternate untraced and traced steps on the same net,
    // so trace_overhead_pct compares steps taken under the same load.
    Spans spans;
    TracedNet traced(*net, spans);
    const int stepId = spans.id("train.step");
    const int lossId = spans.id("nn.loss");
    LayerProbe probe;
    if (opt.trace)
        probe.start();

    std::vector<double> plainMs, tracedMs;
    int steps = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < opt.seconds || steps < kMinSteps) {
        const int b = (steps + 1) % kBatches; // batch 0 warmed up
        const bool traceThis = opt.trace && steps % 2 == 1;
        double loss = 0.0;
        if (traceThis) {
            metrics::setEnabled(true);
            {
                Spans::Scope s(&spans, stepId);
                loss = trainStep(traced, data.x[b], data.y[b], &spans,
                                 lossId);
            }
            metrics::setEnabled(false);
            tracedMs.push_back(spans.lastMs(stepId));
        } else {
            const auto s0 = Clock::now();
            loss = trainStep(*net, data.x[b], data.y[b], nullptr, 0);
            plainMs.push_back(msBetween(s0, Clock::now()));
        }
        if (opt.fault && steps == 0)
            loss = std::nan("");
        out.check(std::isfinite(loss),
                  "finite loss at step " + std::to_string(steps));
        ++steps;
    }
    std::printf("# train: %d steps of batch %d (%zu untraced, %zu traced), "
                "set-up median %.3f s\n",
                steps, kBatch, plainMs.size(), tracedMs.size(),
                median(setupS));

    if (!opt.trace) {
        // The fastest step is the step's cost with the least
        // interference from other tenants of the host (see README.md).
        const double fastestMs = fastest(plainMs);
        out.set("work_per_s", kBatch / (fastestMs * 1e-3));
        out.set("op_ms", fastestMs);
        out.set("setup_s", median(setupS));
        out.set("peak_rss_mb", peakRssMb());
        return out;
    }

    const double nTraced = double(tracedMs.size());
    probe.report(out, nTraced, double(steps), opt.threads);
    reportNnLayers(out, spans, "train.step", nTraced);
    out.set("mpt.tile_elems_per_step", mptCounts.tileElems);
    out.set("mpt.weight_elems_per_step", mptCounts.weightElems);
    out.set("winograd.traffic_pred_ratio",
            trafficPredRatio(*net, data.x[0], true));
    out.set("op_ms_p50", median(plainMs));
    out.set("op_ms_p90", percentile(plainMs, 0.90));
    out.set("trace_overhead_pct",
            overheadPct(median(tracedMs), median(plainMs)));
    if (!opt.traceOut.empty())
        spans.writeChromeTrace(opt.traceOut);
    return out;
}

} // namespace perfbench
