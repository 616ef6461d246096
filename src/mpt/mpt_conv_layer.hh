/**
 * @file
 * A trainable Winograd-layer convolution whose every training step runs
 * through the MPT partitioning (batch over N_c clusters, tile elements
 * over N_g groups) with explicit scatter/gather and group reductions -
 * a drop-in nn::Module that *is* the distributed execution, plus
 * communication accounting.
 *
 * Training a network built from these layers produces bit-equivalent
 * results (up to FP accumulation order) to training the single-worker
 * nn::ConvLayer in WinogradLayer mode - the end-to-end demonstration
 * that MPT changes the schedule, never the learned model. Forward y
 * and backward dx are bitwise those of a single-worker staged plan,
 * for every (ng, nc). dW sums the clusters' partial gradients in
 * ascending cluster order, so it and the SGD step are bitwise the
 * solo layer's at nc = 1.
 *
 * Each cluster owns a shape-bound WinoPlan: the plan slabs play the role
 * of the cluster's SRAM-resident tiles, and each group runs the
 * single-node element-wise kernels (winograd/conv.hh) on its uv slice
 * of them, so steady-state steps allocate nothing.
 */

#ifndef WINOMC_MPT_MPT_CONV_LAYER_HH
#define WINOMC_MPT_MPT_CONV_LAYER_HH

#include <memory>

#include "nn/module.hh"
#include "winograd/conv_spec.hh"
#include "winograd/plan.hh"

namespace winomc::mpt {

class MptConvLayer : public nn::Module
{
  public:
    /**
     * @param ng, nc  worker organization; alpha^2 % ng == 0, batch %
     *                nc == 0 at forward time
     */
    MptConvLayer(int in_ch, int out_ch, int r, int ng, int nc,
                 const WinogradAlgo &algo, Rng &rng);

    /**
     * Descriptor convenience: channels and filter size come from the
     * generalized ConvSpec. The MPT pipeline binds the paper's
     * geometry, so the spec must be stride-1 same-padded with a square
     * kernel matching the algorithm — decompose other shapes first.
     */
    MptConvLayer(const ConvSpec &spec, int ng, int nc,
                 const WinogradAlgo &algo, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &dy) override;
    void step(float lr) override;
    size_t paramCount() const override { return W.size(); }
    std::string name() const override { return "mpt_conv"; }

    const WinoWeights &winoWeights() const { return W; }
    /** Weight gradient accumulated since the last step(); empty (size
     *  0) until the first backward allocates it. */
    const WinoWeights &winoGradWeights() const { return dW; }
    /** Winograd-domain values that crossed worker boundaries so far. */
    uint64_t tileElemsTransferred() const { return tileElems; }
    /** Gradient elements reduced across clusters so far. */
    uint64_t weightElemsReduced() const { return weightElems; }

  private:
    int inCh, outCh, ng, nc, uvShare;
    const WinogradAlgo &algo;
    WinoWeights W;
    /** The gradient and one cluster's partial of it, reduced into dW
     *  cluster by cluster: both allocated by the first backward. */
    WinoWeights dW;
    WinoWeights dWCluster;
    bool haveGrad = false;

    /** One execution plan per cluster; plan slabs cache the forward
     *  tiles the backward pass reuses. */
    std::vector<std::unique_ptr<WinoPlan>> plans;
    /** Every cluster leases its plan here: a shard-shape change parks
     *  the displaced plans instead of destroying them, so alternating
     *  batch shapes stop thrashing the workspace. Leases are exclusive,
     *  so the nc same-shape plans park side by side in one pool. */
    PlanPool planPool;
    /** Persistent scatter/gather staging tensors (shard-sized). */
    Tensor xShard, yShard, dyShard, dxShard;
    /** True iff the plan caches come from a train-mode forward. */
    bool trainCached = false;
    int lastH = 0, lastW = 0, shard = 0;

    uint64_t tileElems = 0;
    uint64_t weightElems = 0;
};

} // namespace winomc::mpt

#endif // WINOMC_MPT_MPT_CONV_LAYER_HH
