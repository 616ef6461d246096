#include "winograd/tiling.hh"

#include <cmath>

namespace winomc {

TileGrid::TileGrid(int h_, int w_, const WinogradAlgo &algo)
    : h(h_), w(w_), m(algo.m), alpha(algo.alpha), pad((algo.r - 1) / 2),
      tilesH((h_ + algo.m - 1) / algo.m), tilesW((w_ + algo.m - 1) / algo.m)
{
    winomc_assert(h_ > 0 && w_ > 0, "empty feature map");
    winomc_assert(algo.r % 2 == 1,
                  "\"same\" convolution needs odd filter size, got r=",
                  algo.r);
}

void
WinoWeights::reshape(int alpha, int out_ch, int in_ch)
{
    winomc_assert(alpha > 0 && out_ch > 0 && in_ch > 0,
                  "degenerate WinoWeights shape");
    const Dims next{alpha, out_ch, in_ch};
    if (d == next)
        return;
    d = next;
    data.assignZero(size_t(alpha) * alpha * out_ch * in_ch);
}

WinoWeights &
WinoWeights::operator+=(const WinoWeights &o)
{
    winomc_assert(d == o.d, "WinoWeights += shape mismatch");
    for (size_t k = 0; k < data.size(); ++k)
        data[k] += o.data[k];
    return *this;
}

WinoWeights &
WinoWeights::operator*=(float s)
{
    for (auto &v : data)
        v *= s;
    return *this;
}

float
WinoWeights::maxAbsDiff(const WinoWeights &o) const
{
    winomc_assert(d == o.d,
                  "WinoWeights maxAbsDiff shape mismatch");
    float m = 0.0f;
    for (size_t k = 0; k < data.size(); ++k)
        m = std::max(m, std::abs(data[k] - o.data[k]));
    return m;
}

WinoTiles
tileMean(const std::vector<const WinoTiles *> &inputs)
{
    winomc_assert(!inputs.empty(), "mean of nothing");
    const WinoTiles &first = *inputs.front();
    WinoTiles out(first.alphaEdge(), first.channels(), first.batch(),
                  first.tiles());
    const float scale = 1.0f / float(inputs.size());
    for (const WinoTiles *in : inputs) {
        winomc_assert(in->alphaEdge() == first.alphaEdge() &&
                      in->channels() == first.channels() &&
                      in->batch() == first.batch() &&
                      in->tiles() == first.tiles(),
                      "tileMean shape mismatch");
        for (int uv = 0; uv < first.uvCount(); ++uv)
            for (int c = 0; c < first.channels(); ++c)
                for (int b = 0; b < first.batch(); ++b)
                    for (int t = 0; t < first.tiles(); ++t)
                        out.at(uv, c, b, t) +=
                            in->at(uv, c, b, t) * scale;
    }
    return out;
}

} // namespace winomc
