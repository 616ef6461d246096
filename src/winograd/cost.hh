/**
 * @file
 * Analytic computation / data-access cost model for direct and Winograd
 * convolution (reproduces Figure 1 and feeds the NDP timing model).
 *
 * Data access is counted as DRAM traffic under the paper's NDP buffering
 * model (Section VI-B): weights/stationary operands are cached in the
 * 512 KiB double-buffered SRAM, the streamed matmul operand is re-read
 * once per 64-wide output-channel block, transform intermediates are
 * spilled to DRAM (they are far larger than the buffers) and re-read.
 * The paper's Figure 1 was measured on a Xeon with vTune (see DESIGN.md
 * substitution table); what it demonstrates - Winograd cuts multiplies
 * ~2.8x but inflates accesses ~4.4x - is a property of the algorithm
 * that this model reproduces.
 */

#ifndef WINOMC_WINOGRAD_COST_HH
#define WINOMC_WINOGRAD_COST_HH

#include <cstdint>

#include "winograd/algo.hh"
#include "winograd/conv_spec.hh"

namespace winomc {

/** Training phase of one layer (Section II-A). */
enum class Phase { Fprop, Bprop, UpdateGrad };

/** Cost of one phase of one layer on one worker ensemble. */
struct ConvCost
{
    uint64_t mults = 0;        ///< FP32 multiplies
    uint64_t adds = 0;         ///< FP32 adds
    uint64_t dramReadBytes = 0;
    uint64_t dramWriteBytes = 0;

    uint64_t macs() const { return mults; }
    uint64_t dramBytes() const { return dramReadBytes + dramWriteBytes; }

    ConvCost &
    operator+=(const ConvCost &o)
    {
        mults += o.mults;
        adds += o.adds;
        dramReadBytes += o.dramReadBytes;
        dramWriteBytes += o.dramWriteBytes;
        return *this;
    }
};

/** Hardware parameters the buffered-traffic model depends on. */
struct CostModelParams
{
    int systolicDim = 64;        ///< S x S MAC array (output block width)
    double bytesPerScalar = 4.0; ///< FP32
};

/** Direct ("spatial") convolution cost of one phase. */
ConvCost directConvCost(const ConvSpec &spec, Phase phase,
                        const CostModelParams &p = {});

/** Winograd convolution cost of one phase (Winograd-layer weights).
 *  The plain pipeline binds the stride-1 "same" square-kernel
 *  geometry; other descriptors run through the DWM decomposition
 *  (WinoDecompPlan), whose cost tune::predictMs models. */
ConvCost winogradConvCost(const ConvSpec &spec, const WinogradAlgo &algo,
                          Phase phase, const CostModelParams &p = {});

/** Sum over the three phases of one training iteration. */
ConvCost directConvIterCost(const ConvSpec &spec,
                            const CostModelParams &p = {});
ConvCost winogradConvIterCost(const ConvSpec &spec,
                              const WinogradAlgo &algo,
                              const CostModelParams &p = {});

/**
 * Predicted slab-level memory traffic (bytes) of one executed phase of
 * the host Winograd pipeline: staged (the whole batch as one tile
 * range), or for Fprop also fused (several tile ranges, DESIGN.md
 * §4.11).
 *
 * The model counts each stage's streamed operands once (stage-internal
 * register/cache blocking is assumed resident): the staged pipeline
 * pays a full write + read round trip through the Winograd-domain
 * slabs between every stage, the fused pipeline only touches spatial
 * operands plus one weight stream per tile range. Gathers are
 * tile-quantized (alpha^2 / m^2 elements per tile); the runtime
 * counters (`wino.<mode>.<phase>.*`) use exact in-bounds counts, so
 * measured/predicted lands slightly under 1 on shapes with padding.
 */
struct TrafficPrediction
{
    uint64_t xformBytes = 0;   ///< input-side gather / transform stage
    uint64_t ewBytes = 0;      ///< elementwise GEMM stage
    uint64_t inverseBytes = 0; ///< output-side transform / store stage

    uint64_t
    totalBytes() const
    {
        return xformBytes + ewBytes + inverseBytes;
    }
};

/**
 * @param fused  staged (false) or fused multi-range (true) mode
 * @param ranges the fused forward's tile ranges over the whole batch
 *               (WinoPlan::rangeCount()); ignored for staged. Fused is
 *               a forward-only pipeline: Bprop and UpdateGrad ignore
 *               both and return the staged prediction.
 */
TrafficPrediction predictedTrafficBytes(const ConvSpec &spec,
                                        const WinogradAlgo &algo,
                                        Phase phase, bool fused,
                                        int ranges = 1,
                                        const CostModelParams &p = {});

} // namespace winomc

#endif // WINOMC_WINOGRAD_COST_HH
