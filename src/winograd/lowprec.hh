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
 * fields need: the Prec enum, the 16-bit tile container and the zero
 * mask.
 */

#ifndef WINOMC_WINOGRAD_LOWPREC_HH
#define WINOMC_WINOGRAD_LOWPREC_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace winomc {

/** Storage precision of the transformed-activation slabs. */
enum class Prec { F32 = 0, F16 = 1, Bf16 = 2 };

const char *precName(Prec p);
/** Bytes per stored activation element under `p` (4, 2, 2). */
int precBytes(Prec p);

/**
 * Winograd-domain tiles stored as 16-bit payloads (f16 or bf16 bit
 * patterns — the container does not care which). Same [uv][channel]
 * [batch][tile] layout and indexing as WinoTiles; the microkernels
 * decode to fp32 on load and accumulate in fp32.
 */
class HalfTiles
{
  public:
    HalfTiles() = default;

    /** Rebind shape, reusing capacity when possible. Contents are
     *  zeroed iff the shape changed. */
    void reshape(int alpha, int channels, int batch, int tiles);

    int alphaEdge() const { return alpha; }
    int uvCount() const { return alpha * alpha; }
    int channels() const { return nch; }
    int batch() const { return nb; }
    int tiles() const { return nt; }
    std::size_t size() const { return data.size(); }

    /** Contiguous (batch * tiles) row for a given (uv, channel). */
    std::uint16_t *
    row(int uv, int c)
    {
        return data.data() + index(uv, c, 0, 0);
    }
    const std::uint16_t *
    row(int uv, int c) const
    {
        return data.data() + index(uv, c, 0, 0);
    }

    /** Pointer to element (uv=0, c, b, t); see WinoTiles::uvBase. */
    std::uint16_t *
    uvBase(int c, int b, int t)
    {
        return data.data() + index(0, c, b, t);
    }
    const std::uint16_t *
    uvBase(int c, int b, int t) const
    {
        return data.data() + index(0, c, b, t);
    }
    std::size_t uvStride() const { return (std::size_t(nch) * nb) * nt; }

  private:
    std::size_t
    index(int uv, int c, int b, int t) const
    {
        winomc_assert(uv >= 0 && uv < alpha * alpha && c >= 0 &&
                          c < nch && b >= 0 && b < nb && t >= 0 && t < nt,
                      "HalfTiles index out of range");
        return ((std::size_t(uv) * nch + c) * nb + b) * nt + t;
    }

    int alpha = 0;
    int nch = 0;
    int nb = 0;
    int nt = 0;
    std::vector<std::uint16_t> data;
};

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
 * transform partitions work by (b, c) plane, so each region has
 * exactly one writer and plain read-modify-write is race-free.
 */
class ActMask
{
  public:
    ActMask() = default;

    void reshape(int uvCount, int channels, int batch, int tiles);
    /** Reset every bit to 0 (nothing skippable). */
    void clear();
    bool empty() const { return words.empty(); }

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

    /** Mark panel `p` of plane (c, b), coefficient `uv`, as all-zero. */
    void
    setZero(int uv, int c, int b, int p)
    {
        const std::size_t bit = std::size_t(p) * nUv + uv;
        plane(c, b)[bit >> 6] |= std::uint64_t(1) << (bit & 63);
    }

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
    std::vector<std::uint64_t> words;
};

} // namespace winomc

#endif // WINOMC_WINOGRAD_LOWPREC_HH
