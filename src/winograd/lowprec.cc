#include "winograd/lowprec.hh"

#include <algorithm>

#include "winograd/microkernel.hh"

namespace winomc {

int
precBytes(Prec p)
{
    return p == Prec::F32 ? 4 : 2;
}

void
HalfTiles::reshape(int a, int channels, int batch, int tiles)
{
    const bool same =
        a == alpha && channels == nch && batch == nb && tiles == nt;
    alpha = a;
    nch = channels;
    nb = batch;
    nt = tiles;
    const std::size_t need = std::size_t(a) * a * channels * batch * tiles;
    if (same && data.size() == need)
        return;
    data.assign(need, 0);
}

void
ActMask::reshape(int uvCount, int channels, int batch, int tiles)
{
    nUv = uvCount;
    nch = channels;
    nb = batch;
    nt = tiles;
    nPanels = (tiles + mk::kTilePanel - 1) / mk::kTilePanel;
    const std::size_t bitsPerPlane = std::size_t(nPanels) * nUv;
    wpp = (bitsPerPlane + 63) / 64;
    words.assign(wpp * std::size_t(nch) * nb, 0);
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
