/**
 * @file
 * Functional (numerical) emulation of multi-dimensional parallel
 * training.
 *
 * The performance model (layer_sim.hh) answers "how fast"; this module
 * answers "is the parallel computation the same computation". It
 * executes one Winograd-layer training step exactly as the MPT
 * partitioning prescribes - batch split over N_c clusters, tile
 * elements split over N_g groups, explicit tile scatter/gather inside
 * each cluster, weight-gradient reduction inside each group.
 *
 * Every (group, cluster) worker runs the single-node element-wise
 * kernels of winograd/conv.hh restricted to its group's uv range
 * [g * a^2/N_g, (g+1) * a^2/N_g). The uv slices are disjoint and each
 * output element's arithmetic does not depend on the batch split, so
 * y and dx are bitwise identical to the single-worker pipeline; dW
 * sums the clusters' partial gradients in ascending cluster order and
 * matches to FP accumulation tolerance (bitwise at N_c = 1). The
 * integration tests assert exactly that: MPT changes the schedule,
 * never the math.
 */

#ifndef WINOMC_MPT_FUNCTIONAL_HH
#define WINOMC_MPT_FUNCTIONAL_HH

#include <cstdint>

#include "winograd/algo.hh"
#include "winograd/conv.hh"

namespace winomc::mpt {

struct FunctionalResult
{
    Tensor y;        ///< forward output, gathered from all workers
    Tensor dx;       ///< backward-data output
    WinoWeights dW;  ///< weight gradient after the group reductions

    /** Winograd-domain values crossing worker boundaries (elements). */
    uint64_t tileElemsTransferred = 0;
    /** Gradient elements reduced across clusters (per group summed). */
    uint64_t weightElemsReduced = 0;
};

/**
 * Execute fprop + bprop + updateGrad of one Winograd layer partitioned
 * over ng groups x nc clusters.
 *
 * @param x     input (B, I, H, W); B must divide by nc
 * @param dy    upstream gradient (B, J, H, W)
 * @param W     Winograd-domain weights (replicated in every cluster,
 *              sliced across groups)
 * @param algo  transform; alpha^2 must divide by ng
 */
FunctionalResult runFunctionalMpt(const Tensor &x, const Tensor &dy,
                                  const WinoWeights &W,
                                  const WinogradAlgo &algo, int ng,
                                  int nc);

/** Single-worker reference of the same step. */
FunctionalResult runReference(const Tensor &x, const Tensor &dy,
                              const WinoWeights &W,
                              const WinogradAlgo &algo);

/**
 * Copy batch rows [s0, s0 + count) of src to rows [d0, d0 + count) of
 * dst (same C, H, W): the cluster scatter/gather of the batch split.
 * An NCHW batch row is one contiguous block, so this is one copy.
 */
void copyBatchRows(const Tensor &src, int s0, Tensor &dst, int d0,
                   int count);

} // namespace winomc::mpt

#endif // WINOMC_MPT_FUNCTIONAL_HH
