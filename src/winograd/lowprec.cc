#include "winograd/lowprec.hh"

#include <algorithm>

#include "winograd/microkernel.hh"

namespace winomc {

int
precBytes(Prec p)
{
    return p == Prec::F32 ? 4 : 2;
}

std::uint64_t
panelZeroMaskHalf(const std::uint16_t *x, std::size_t stride, int entries,
                  int cnt)
{
    std::uint64_t m = 0;
    for (int e = 0; e < entries; ++e) {
        const std::uint16_t *p = x + std::size_t(e) * stride;
        unsigned bits = 0;
        for (int l = 0; l < cnt; ++l)
            bits |= p[l];
        if (!(bits & 0x7fffu))
            m |= std::uint64_t(1) << e;
    }
    return m;
}

std::size_t
ActMask::wordsFor(int uvCount, int channels, int batch, int tiles)
{
    const std::size_t panels = (tiles + mk::kTilePanel - 1) / mk::kTilePanel;
    return (panels * uvCount + 63) / 64 * std::size_t(channels) * batch;
}

void
ActMask::reshape(int uvCount, int channels, int batch, int tiles)
{
    nUv = uvCount;
    nch = channels;
    nb = batch;
    nt = tiles;
    nPanels = (tiles + mk::kTilePanel - 1) / mk::kTilePanel;
    wpp = wordsFor(uvCount, 1, 1, tiles);
    words.assignZero(wordsFor(uvCount, channels, batch, tiles));
}

void
ActMask::clear()
{
    std::fill(words.begin(), words.end(), 0);
}

bool
ActMask::rowRangeZero(int uv, int c, int k0, int kb) const
{
    // The flat row index k maps to (image b = k / nt, tile t = k % nt).
    // This sits on the skip-decision path of every sparse GEMM block,
    // so divide once to locate the starting image, then walk the
    // overlapped panels with plain arithmetic (t / kTilePanel is a
    // shift — the panel width is a constexpr power of two).
    int b = k0 / nt;
    int t = k0 - b * nt;
    const std::uint64_t *pl = plane(c, b);
    for (int remaining = kb; remaining > 0;) {
        const int p = t / mk::kTilePanel;
        const std::size_t bit = std::size_t(p) * nUv + uv;
        if (!((pl[bit >> 6] >> (bit & 63)) & 1u))
            return false;
        const int panelEnd = std::min((p + 1) * mk::kTilePanel, nt);
        remaining -= panelEnd - t;
        t = panelEnd;
        if (t >= nt) { // next image's plane
            t = 0;
            ++b;
            if (remaining > 0)
                pl = plane(c, b);
        }
    }
    return true;
}

} // namespace winomc
