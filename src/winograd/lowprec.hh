/**
 * @file
 * Storage types of the sparse + low-precision Winograd hot path.
 *
 * ExecConfig (winograd/exec_config.hh) selects how the element-wise
 * stage runs: `prec` (WINOMC_PREC=fp32|fp16|bf16) picks the storage
 * format of the transformed-activation slabs — weights and
 * accumulation stay fp32 — and `sparse` (WINOMC_SPARSE=off|on) enables
 * zero-skipping: per-tile-panel activation zero masks built during the
 * input transform plus weight-row compaction, so fully-zero (row,
 * panel) products are never issued. This header holds what those two
 * fields need: the Prec enum, the zero mask and the 16-bit panel zero
 * test. The 16-bit tile container, HalfTiles, is the uint16_t form of
 * WinoTiles (winograd/tiling.hh); conv.cc encodes it, once, after the
 * fp32 input transform.
 */

#ifndef WINOMC_WINOGRAD_LOWPREC_HH
#define WINOMC_WINOGRAD_LOWPREC_HH

#include <cstdint>

#include "common/logging.hh"
#include "tensor/workspace.hh"
#include "winograd/tiling.hh"

namespace winomc {

/** Storage precision of the transformed-activation slabs. */
enum class Prec { F32 = 0, F16 = 1, Bf16 = 2 };

const char *precName(Prec p);
/** Bytes per stored activation element under `p` (4, 2, 2). */
int precBytes(Prec p);

/**
 * Bit e (e < entries <= 64) of the result is 1 iff the 16-bit payloads
 * x[e * stride + 0 .. cnt) all encode ±0, (bits & 0x7fff) == 0 in bf16
 * and fp16 alike: mk::panelZeroMask over a just-encoded 16-bit panel.
 */
std::uint64_t panelZeroMaskHalf(const std::uint16_t *x, std::size_t stride,
                                int entries, int cnt);

/**
 * Bit-packed per-tile-panel activation zero mask.
 *
 * For each (channel, image) plane the input transform records, per
 * kTilePanel-wide tile panel and per uv coefficient, whether the
 * just-written panel lane set is entirely zero. Bit sense: 1 means
 * "panel known all-zero" (skippable); clear() resets everything to 0,
 * the conservative no-skip state, so a stale or absent mask can only
 * cost performance, never correctness.
 *
 * Word layout: one contiguous region of `wordsPerPlane` uint64 words
 * per (c, b) plane at region base (c * batch + b) * wordsPerPlane; bit
 * index within the region is panel * uvCount + uv. The parallel input
 * transform partitions work by (b, c) plane (by channel on maps of
 * fewer than kTilePanel tiles), so each region has exactly one writer
 * and plain read-modify-write is race-free. The words are a pooled
 * ws::Slab.
 */
class ActMask
{
  public:
    ActMask() = default;

    /** uint64 words of a mask over `channels` x `batch` planes of
     *  `tiles` tiles, uvCount coefficients each. */
    static std::size_t wordsFor(int uvCount, int channels, int batch,
                                int tiles);

    void reshape(int uvCount, int channels, int batch, int tiles);
    /** Reset every bit to 0 (nothing skippable). */
    void clear();
    /** Hand the words back to the workspace pool if it has room (the
     *  mask is then empty); else keep them. Returns whether they went
     *  back. */
    bool
    offer()
    {
        if (!words.offer())
            return false;
        *this = ActMask();
        return true;
    }

    int uvCount() const { return nUv; }
    int channels() const { return nch; }
    int panels() const { return nPanels; }
    std::size_t wordCount() const { return words.size(); }

    /** The word region for plane (c, b); `wordsPerPlane()` words. */
    std::uint64_t *
    plane(int c, int b)
    {
        return words.data() + (std::size_t(c) * nb + b) * wpp;
    }
    const std::uint64_t *
    plane(int c, int b) const
    {
        return words.data() + (std::size_t(c) * nb + b) * wpp;
    }
    std::size_t wordsPerPlane() const { return wpp; }

    /**
     * OR the uvCount()-wide bit set `bits` (bit uv = panel all-zero,
     * exactly mk::panelZeroMask's result) into panel `p` of plane
     * (c, b). The per-panel bit runs are contiguous, so this is the
     * one-call fast path the input transforms use.
     */
    void
    orPanelBits(int c, int b, int p, std::uint64_t bits)
    {
        std::uint64_t *pl = plane(c, b);
        const std::size_t base = std::size_t(p) * nUv;
        const int s = int(base & 63);
        pl[base >> 6] |= bits << s;
        const int spill = s + nUv - 64;
        if (spill > 0)
            pl[(base >> 6) + 1] |= bits >> (nUv - spill);
    }

    bool
    panelZero(int uv, int c, int b, int p) const
    {
        const std::size_t bit = std::size_t(p) * nUv + uv;
        return (plane(c, b)[bit >> 6] >> (bit & 63)) & 1u;
    }

    /**
     * True iff every panel of channel `c`, coefficient `uv`, that
     * overlaps flat row range [k0, k0+kb) (the row is batch * tiles
     * elements long, tiles per image = `nt`) is known all-zero. This
     * is the elementwise GEMM's skip query for one K-block.
     */
    bool rowRangeZero(int uv, int c, int k0, int kb) const;

  private:
    int nUv = 0;
    int nch = 0;
    int nb = 0;
    int nt = 0;
    int nPanels = 0;      ///< ceil(nt / kTilePanel)
    std::size_t wpp = 0;  ///< words per (c, b) plane
    ws::Slab<std::uint64_t> words;
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_LOWPREC_HH
