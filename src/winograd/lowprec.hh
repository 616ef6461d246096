/**
 * @file
 * Execution policy for the sparse + low-precision Winograd hot path.
 *
 * Two process-wide knobs select how the elementwise stage runs:
 *
 *  - WINOMC_PREC=fp32|fp16|bf16 picks the storage format of the
 *    transformed-activation slabs (weights and accumulation stay fp32);
 *  - WINOMC_SPARSE=off|on enables zero-skipping: per-tile-panel
 *    activation zero masks built during the input transform plus
 *    weight-row compaction, so fully-zero (row, panel) products are
 *    never issued.
 *
 * Both follow the common/env.hh discipline: missing/empty is the
 * default silently, garbage warns and falls back. The resolved pair is
 * an ExecPolicy; WinoPlan captures it at construction and refuses to
 * match under a different policy, so plan pools can never alias plans
 * across precision/sparsity modes.
 */

#ifndef WINOMC_WINOGRAD_LOWPREC_HH
#define WINOMC_WINOGRAD_LOWPREC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace winomc {

/** Storage precision of the transformed-activation slabs. */
enum class Prec { F32 = 0, F16 = 1, Bf16 = 2 };

const char *precName(Prec p);
/** Bytes per stored activation element under `p` (4, 2, 2). */
int precBytes(Prec p);
/** Parse a WINOMC_PREC value; unknown strings warn and yield F32. */
Prec parsePrec(const char *str);
/** The process-wide precision (env parsed once, or the last setPrec). */
Prec requestedPrec();
void setPrec(Prec p);

/** Parse a WINOMC_SPARSE value (on/off/1/0/true/false); unknown
 *  strings warn and yield false. */
bool parseSparse(const char *str);
/** The process-wide sparse flag (env parsed once, or the last
 *  setSparseMode). */
bool requestedSparse();
void setSparseMode(bool on);

/** The (precision, sparsity) pair a plan executes under. */
struct ExecPolicy
{
    Prec prec = Prec::F32;
    bool sparse = false;

    bool
    operator==(const ExecPolicy &o) const
    {
        return prec == o.prec && sparse == o.sparse;
    }
    bool operator!=(const ExecPolicy &o) const { return !(*this == o); }
};

/** The policy newly constructed plans capture right now. */
ExecPolicy currentExecPolicy();

/**
 * Cache-key suffix for `pol`: empty at the fp32-dense default (so
 * existing tuner caches and weight tags keep their format), else
 * "_fp16"/"_bf16" and/or "_sp" appended in that order.
 */
std::string execPolicySuffix(const ExecPolicy &pol);

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
