#include "winograd/cost.hh"

#include "common/logging.hh"
#include "winograd/tiling.hh"

namespace winomc {

namespace {

uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

ConvCost
directConvCost(const ConvSpec &spec, Phase phase, const CostModelParams &p)
{
    const uint64_t B = spec.batch, I = spec.inCh, J = spec.outCh;
    const uint64_t HW = uint64_t(spec.outH()) * spec.outW();
    const uint64_t RR = uint64_t(spec.kernelH()) * spec.kernelW();
    const double bytes = p.bytesPerScalar;
    const uint64_t S = uint64_t(p.systolicDim);

    ConvCost c;
    // All three phases are the same-sized convolution with roles of
    // x / y / w permuted (Section II-A), so the MAC count is identical.
    c.mults = B * I * J * HW * RR;
    c.adds = c.mults;

    // Streamed operand re-read factor: one pass per S-wide block of the
    // "output channel" dimension of the underlying matmul.
    switch (phase) {
      case Phase::Fprop: {
        // y[B,J,HW] = x[B,I,HW] * w ; x streamed per J-block.
        uint64_t x_reads = spec.inputElems() * ceilDiv(J, S);
        c.dramReadBytes = uint64_t((x_reads + spec.weightElems()) * bytes);
        c.dramWriteBytes = uint64_t(spec.outputElems() * bytes);
        break;
      }
      case Phase::Bprop: {
        // dx = dy (*) flip(w); dy streamed per I-block.
        uint64_t dy_reads = spec.outputElems() * ceilDiv(I, S);
        c.dramReadBytes = uint64_t((dy_reads + spec.weightElems()) * bytes);
        c.dramWriteBytes = uint64_t(spec.inputElems() * bytes);
        break;
      }
      case Phase::UpdateGrad: {
        // dw = sum_b dy (*) x; both feature maps stream, accumulating a
        // weight-sized output. x re-read per J-block of the gradient.
        uint64_t reads = spec.outputElems() +
                         spec.inputElems() * ceilDiv(J, S);
        c.dramReadBytes = uint64_t(reads * bytes);
        c.dramWriteBytes = uint64_t(spec.weightElems() * bytes);
        break;
      }
    }
    return c;
}

ConvCost
winogradConvCost(const ConvSpec &spec, const WinogradAlgo &algo,
                 Phase phase, const CostModelParams &p)
{
    winomc_assert(spec.squareKernel() && spec.kernelH() == algo.r,
                  "ConvSpec kernel ", spec.kernelH(), "x",
                  spec.kernelW(), " does not match algorithm r=",
                  algo.r);
    winomc_assert(spec.samePadded(),
                  "plain Winograd cost needs a stride-1 same-padded "
                  "spec (got ", spec.key(),
                  "); decompose it first");
    const uint64_t B = spec.batch, I = spec.inCh, J = spec.outCh;
    const uint64_t S = uint64_t(p.systolicDim);
    const double bytes = p.bytesPerScalar;

    TileGrid grid(spec.h, spec.w, algo);
    const uint64_t t = uint64_t(grid.tiles());
    const uint64_t a2 = uint64_t(algo.alpha) * algo.alpha;
    // 2D transform of one alpha x alpha tile: two small matmuls,
    // ~2 * alpha^3 MACs (upper bound; many coefficients are 0/+-1).
    const uint64_t xf_macs = 2 * a2 * uint64_t(algo.alpha);

    // Winograd-domain array sizes (elements).
    const uint64_t tiles_in = B * I * t * a2;   // X
    const uint64_t tiles_out = B * J * t * a2;  // Y
    const uint64_t wino_w = I * J * a2;         // W

    ConvCost c;
    switch (phase) {
      case Phase::Fprop: {
        // transform x -> X, dot products, inverse Y -> y.
        c.mults = B * I * t * xf_macs        // input transform
                + t * a2 * B * I * J          // eq. (2) dot products
                + B * J * t * xf_macs;        // inverse transform
        c.adds = c.mults;
        uint64_t reads = spec.inputElems()            // x for transform
                       + tiles_in * ceilDiv(J, S)     // X streamed per blk
                       + wino_w                       // W
                       + tiles_out;                   // Y for inverse
        uint64_t writes = tiles_in + tiles_out + spec.outputElems();
        c.dramReadBytes = uint64_t(reads * bytes);
        c.dramWriteBytes = uint64_t(writes * bytes);
        break;
      }
      case Phase::Bprop: {
        // dy -> dY (adjoint transform), dX = W^T dY, dX -> dx.
        c.mults = B * J * t * xf_macs
                + t * a2 * B * I * J
                + B * I * t * xf_macs;
        c.adds = c.mults;
        uint64_t reads = spec.outputElems()
                       + tiles_out * ceilDiv(I, S)
                       + wino_w
                       + tiles_in;
        uint64_t writes = tiles_out + tiles_in + spec.inputElems();
        c.dramReadBytes = uint64_t(reads * bytes);
        c.dramWriteBytes = uint64_t(writes * bytes);
        break;
      }
      case Phase::UpdateGrad: {
        // Winograd layer: dW[uv] = dY[uv] X[uv]^T; X, dY already in DRAM
        // from fprop/bprop; dW accumulates into W (update in Winograd
        // domain, Fig 2(b)).
        c.mults = t * a2 * B * I * J;
        c.adds = c.mults;
        uint64_t reads = tiles_out + tiles_in * ceilDiv(J, S) + wino_w;
        uint64_t writes = wino_w;
        c.dramReadBytes = uint64_t(reads * bytes);
        c.dramWriteBytes = uint64_t(writes * bytes);
        break;
      }
    }
    return c;
}

TrafficPrediction
predictedTrafficBytes(const ConvSpec &spec, const WinogradAlgo &algo,
                      Phase phase, bool fused, int ranges,
                      const CostModelParams &p)
{
    winomc_assert(spec.squareKernel() && spec.kernelH() == algo.r,
                  "ConvSpec kernel ", spec.kernelH(), "x",
                  spec.kernelW(), " does not match algorithm r=",
                  algo.r);
    winomc_assert(spec.samePadded(), "slab-traffic prediction covers "
                                     "the stride-1 same pipeline only");
    winomc_assert(ranges >= 1, "need at least one tile range");
    const uint64_t B = spec.batch, I = spec.inCh, J = spec.outCh;
    const double bytes = p.bytesPerScalar;

    TileGrid grid(spec.h, spec.w, algo);
    const uint64_t t = uint64_t(grid.tiles());
    const uint64_t a2 = uint64_t(algo.alpha) * algo.alpha;
    const uint64_t m2 = uint64_t(algo.m) * algo.m;

    // Slab / stream sizes in elements.
    const uint64_t tilesIn = B * I * t * a2;  // Xt / dXt
    const uint64_t tilesOut = B * J * t * a2; // Yt / dYt
    const uint64_t winoW = I * J * a2;        // W
    const uint64_t inGather = B * I * t * a2; // a x a window per tile
    const uint64_t dyGather = B * J * t * m2; // m x m window per tile

    auto toBytes = [bytes](uint64_t elems) {
        return uint64_t(double(elems) * bytes);
    };

    TrafficPrediction tp;
    switch (phase) {
      case Phase::Fprop:
        if (fused) {
            // Gather x, stream W once per tile range, store y; the
            // range tiles stay cache-resident by construction.
            tp.xformBytes = toBytes(inGather);
            tp.ewBytes = toBytes(winoW * uint64_t(ranges));
            tp.inverseBytes = toBytes(spec.outputElems());
        } else {
            tp.xformBytes = toBytes(inGather + tilesIn);
            tp.ewBytes = toBytes(tilesIn + winoW + tilesOut);
            tp.inverseBytes = toBytes(tilesOut + spec.outputElems());
        }
        break;
      case Phase::Bprop:
        // Staged only. The inverse side is the dx zero-fill write plus
        // the overlap-add read+write sweep.
        tp.xformBytes = toBytes(dyGather + tilesOut);
        tp.ewBytes = toBytes(tilesOut + winoW + tilesIn);
        tp.inverseBytes =
            toBytes(tilesIn + spec.inputElems() + 2 * inGather);
        break;
      case Phase::UpdateGrad:
        // Staged only: both transforms stream their slabs, the dot
        // products re-read them against a weight-sized output.
        tp.xformBytes =
            toBytes(inGather + tilesIn + dyGather + tilesOut);
        tp.ewBytes = toBytes(tilesIn + tilesOut + winoW);
        tp.inverseBytes = 0;
        break;
    }
    return tp;
}

ConvCost
directConvIterCost(const ConvSpec &spec, const CostModelParams &p)
{
    ConvCost c = directConvCost(spec, Phase::Fprop, p);
    c += directConvCost(spec, Phase::Bprop, p);
    c += directConvCost(spec, Phase::UpdateGrad, p);
    return c;
}

ConvCost
winogradConvIterCost(const ConvSpec &spec, const WinogradAlgo &algo,
                     const CostModelParams &p)
{
    ConvCost c = winogradConvCost(spec, algo, Phase::Fprop, p);
    c += winogradConvCost(spec, algo, Phase::Bprop, p);
    c += winogradConvCost(spec, algo, Phase::UpdateGrad, p);
    return c;
}

} // namespace winomc
