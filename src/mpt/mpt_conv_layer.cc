#include "mpt/mpt_conv_layer.hh"

#include <algorithm>

#include "winograd/microkernel.hh"

namespace winomc::mpt {

namespace {

/**
 * Copy batch rows [s0, s0 + count) of src to rows [d0, d0 + count) of
 * dst (same C, H, W): the cluster scatter/gather of the batch split.
 * An NCHW batch row is one contiguous block, so this is one copy.
 */
void
copyBatchRows(const Tensor &src, int s0, Tensor &dst, int d0, int count)
{
    winomc_assert(src.c() == dst.c() && src.h() == dst.h() &&
                  src.w() == dst.w() && s0 >= 0 && d0 >= 0 &&
                  s0 + count <= src.n() && d0 + count <= dst.n(),
                  "copyBatchRows shape mismatch");
    const std::size_t row = std::size_t(src.c()) * src.h() * src.w();
    std::copy_n(src.data() + s0 * row, count * row, dst.data() + d0 * row);
}

} // namespace

MptConvLayer::MptConvLayer(int in_ch, int out_ch, int r, int ng_,
                           int nc_, const WinogradAlgo &algo_, Rng &rng)
    : inCh(in_ch), outCh(out_ch), ng(ng_), nc(nc_), algo(algo_)
{
    winomc_assert(algo.r == r, "algo r mismatch");
    const int a2 = algo.alpha * algo.alpha;
    winomc_assert(ng >= 1 && a2 % ng == 0,
                  "alpha^2 must divide across groups");
    winomc_assert(nc >= 1, "need at least one cluster");
    uvShare = a2 / ng;
    plans.resize(std::size_t(nc));

    Tensor w(out_ch, in_ch, r, r);
    w.fillKaiming(rng);
    W = transformWeights(w, algo);
}

MptConvLayer::MptConvLayer(const ConvSpec &spec, int ng_, int nc_,
                           const WinogradAlgo &algo_, Rng &rng)
    : MptConvLayer(spec.inCh, spec.outCh, spec.kernelH(), ng_, nc_,
                   algo_, rng)
{
    winomc_assert(spec.samePadded() && spec.squareKernel(),
                  "MPT conv binds stride-1 same-padded square-kernel "
                  "geometry (got ", spec.key(), ")");
}

Tensor
MptConvLayer::forward(const Tensor &x, bool train)
{
    winomc_assert(x.c() == inCh, "channel mismatch");
    winomc_assert(x.n() % nc == 0, "batch ", x.n(),
                  " must divide across ", nc, " clusters");
    lastH = x.h();
    lastW = x.w();
    shard = x.n() / nc;
    for (std::unique_ptr<WinoPlan> &plan : plans)
        planPool.lease(plan, algo, shard, inCh, outCh, x.h(), x.w());
    trainCached = train;

    Tensor y(x.n(), outCh, x.h(), x.w());
    xShard.reshape(shard, inCh, x.h(), x.w());
    yShard.reshape(shard, outCh, x.h(), x.w());

    for (int c = 0; c < nc; ++c) {
        WinoPlan &plan = *plans[size_t(c)];
        copyBatchRows(x, c * shard, xShard, 0, shard);
        // An undivided alpha^2 inference shard has no per-group
        // scatter/gather to satisfy, so the plan runs it as an eval
        // forward, in tile ranges when the shard is larger than one.
        // Grouped (ng > 1) or train-mode execution needs the plan
        // slabs: each group writes its uv slice of Yt and backward reads
        // the cached Xt.
        if (ng == 1 && !train) {
            plan.forwardInto(xShard, W, yShard, false);
            copyBatchRows(yShard, 0, y, c * shard, shard);
            continue;
        }
        plan.scatterInput(xShard);
        for (int g = 0; g < ng; ++g) {
            elementwiseForwardInto(plan.inputTiles(), W,
                                   plan.outputTilesMutable(), g * uvShare,
                                   (g + 1) * uvShare);
            tileElems += uint64_t(uvShare) * (inCh + outCh) * shard *
                         plan.tileGrid().tiles() * uint64_t(ng - 1) /
                         uint64_t(ng);
        }
        plan.gatherOutputInto(yShard);
        copyBatchRows(yShard, 0, y, c * shard, shard);
        if (!train)
            plan.invalidateCache();
    }
    return y;
}

Tensor
MptConvLayer::backward(const Tensor &dy)
{
    winomc_assert(trainCached,
                  "MptConvLayer::backward without a train-mode forward: "
                  "the cached tiles are stale");
    haveGrad = true;
    if (dW.size() == 0) {
        dW = WinoWeights(algo.alpha, outCh, inCh);
        dWCluster = WinoWeights(algo.alpha, outCh, inCh);
    }
    Tensor dx(dy.n(), inCh, lastH, lastW);
    dyShard.reshape(shard, outCh, lastH, lastW);
    dxShard.reshape(shard, inCh, lastH, lastW);

    for (int c = 0; c < nc; ++c) {
        WinoPlan &plan = *plans[size_t(c)];
        copyBatchRows(dy, c * shard, dyShard, 0, shard);
        plan.transformGradOutput(dyShard);
        for (int g = 0; g < ng; ++g) {
            const int uv0 = g * uvShare;
            const int uv1 = uv0 + uvShare;
            elementwiseBackwardDataInto(plan.gradOutputTiles(), W,
                                        plan.gradInputTilesMutable(), uv0,
                                        uv1);
            elementwiseGradWeightsInto(plan.gradOutputTiles(),
                                       plan.inputTiles(), dWCluster, uv0,
                                       uv1);
            tileElems += uint64_t(uvShare) * (inCh + outCh) * shard *
                         plan.tileGrid().tiles() * uint64_t(ng - 1) /
                         uint64_t(ng);
            weightElems += uint64_t(uvShare) * inCh * outCh;
        }
        // Accumulating the clusters' partial gradients into dW in
        // ascending cluster order is the ring reduction of each
        // group's weight slice.
        mk::kernels().axpy(dW.raw(), 1.0f, dWCluster.raw(),
                           std::int64_t(dW.size()));
        plan.gatherGradInputInto(dxShard);
        copyBatchRows(dxShard, 0, dx, c * shard, shard);
    }
    return dx;
}

void
MptConvLayer::step(float lr)
{
    if (!haveGrad)
        return;
    haveGrad = false;
    // The same one-FMA-per-element update as nn::ConvLayer, so an
    // nc = 1 layer keeps bitwise the solo layer's weights.
    mk::kernels().axpy(W.raw(), -lr, dW.raw(), std::int64_t(W.size()));
    dW.fill(0.0f);
}

} // namespace winomc::mpt
