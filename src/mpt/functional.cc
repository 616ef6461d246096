#include "mpt/functional.hh"

#include <algorithm>

#include "common/logging.hh"
#include "winograd/microkernel.hh"

namespace winomc::mpt {

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

FunctionalResult
runFunctionalMpt(const Tensor &x, const Tensor &dy, const WinoWeights &W,
                 const WinogradAlgo &algo, int ng, int nc)
{
    winomc_assert(x.n() == dy.n() && x.h() == dy.h() && x.w() == dy.w(),
                  "x/dy shape mismatch");
    winomc_assert(x.n() % nc == 0, "batch ", x.n(),
                  " must divide across ", nc, " clusters");
    const int a2 = algo.alpha * algo.alpha;
    winomc_assert(a2 % ng == 0, "alpha^2 = ", a2,
                  " must divide across ", ng, " groups");
    const int uv_share = a2 / ng;
    const int shard = x.n() / nc;

    FunctionalResult res;
    res.y = Tensor(x.n(), dy.c(), x.h(), x.w());
    res.dx = Tensor(x.n(), x.c(), x.h(), x.w());
    res.dW = WinoWeights(algo.alpha, W.outChannels(), W.inChannels());

    Tensor x_c(shard, x.c(), x.h(), x.w());
    Tensor dy_c(shard, dy.c(), dy.h(), dy.w());
    WinoWeights dW_c(algo.alpha, W.outChannels(), W.inChannels());
    for (int c = 0; c < nc; ++c) {
        const int b0 = c * shard;
        copyBatchRows(x, b0, x_c, 0, shard);
        copyBatchRows(dy, b0, dy_c, 0, shard);

        // --- fprop: scatter input tiles (each worker sees only its uv
        // slice), compute per group, gather output tiles.
        WinoTiles X = transformInput(x_c, algo);
        WinoTiles Y(algo.alpha, dy.c(), shard, X.tiles());
        for (int g = 0; g < ng; ++g) {
            elementwiseForwardInto(X, W, Y, g * uv_share,
                                   (g + 1) * uv_share);
            // Scatter of X and gather of Y: the (ng-1)/ng fraction of
            // each worker's slice crosses links.
            res.tileElemsTransferred +=
                uint64_t(uv_share) * (X.channels() + Y.channels()) *
                shard * X.tiles() * uint64_t(ng - 1) / uint64_t(ng);
        }
        copyBatchRows(inverseTransform(Y, algo, x.h(), x.w()), 0, res.y,
                      b0, shard);

        // --- bprop: scatter dY, compute per group, gather dX.
        WinoTiles dYt = inverseTransformAdjoint(dy_c, algo);
        WinoTiles dXt(algo.alpha, x.c(), shard, dYt.tiles());
        for (int g = 0; g < ng; ++g) {
            elementwiseBackwardDataInto(dYt, W, dXt, g * uv_share,
                                        (g + 1) * uv_share);
            res.tileElemsTransferred +=
                uint64_t(uv_share) * (dYt.channels() + dXt.channels()) *
                shard * dYt.tiles() * uint64_t(ng - 1) / uint64_t(ng);
        }
        copyBatchRows(transformInputAdjoint(dXt, algo, x.h(), x.w()), 0,
                      res.dx, b0, shard);

        // --- updateGrad: every worker produces the partial gradient of
        // its group's weight slice over its batch shard; accumulating
        // the clusters into res.dW in ascending order IS the ring
        // reduction.
        for (int g = 0; g < ng; ++g) {
            elementwiseGradWeightsInto(dYt, X, dW_c, g * uv_share,
                                       (g + 1) * uv_share);
            res.weightElemsReduced +=
                uint64_t(uv_share) * W.outChannels() * W.inChannels();
        }
        mk::kernels().axpy(res.dW.raw(), 1.0f, dW_c.raw(),
                           std::int64_t(dW_c.size()));
    }
    return res;
}

FunctionalResult
runReference(const Tensor &x, const Tensor &dy, const WinoWeights &W,
             const WinogradAlgo &algo)
{
    FunctionalResult res;
    res.y = winogradForward(x, W, algo);
    res.dx = winogradBackwardData(dy, W, algo, x.h(), x.w());
    res.dW = winogradGradWeights(x, dy, algo);
    return res;
}

} // namespace winomc::mpt
