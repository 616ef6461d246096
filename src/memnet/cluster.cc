#include "memnet/cluster.hh"

#include "common/logging.hh"

namespace winomc::memnet {

TransferMode
ClusterShape::transferMode() const
{
    if (ng == 1)
        return TransferMode::None;
    return ng <= 4 ? TransferMode::OneD : TransferMode::TwoD;
}

std::string
ClusterShape::toString() const
{
    return detail::concatMessage("(", ng, "Ng,", nc, "Nc)");
}

ClusterShape
ClusterShape::groups16(int p)
{
    winomc_assert(p % 16 == 0, "p must be divisible by 16, got ", p);
    return ClusterShape{16, p / 16};
}

ClusterShape
ClusterShape::groups4(int p)
{
    winomc_assert(p % 4 == 0, "p must be divisible by 4, got ", p);
    return ClusterShape{4, p / 4};
}

ClusterShape
ClusterShape::dataParallel(int p)
{
    winomc_assert(p >= 1, "need at least one worker");
    return ClusterShape{1, p};
}

std::unique_ptr<noc::Topology>
clusterTopology(const ClusterShape &shape)
{
    switch (shape.ng) {
      case 1:
        return nullptr;
      case 4:
        return std::make_unique<noc::FullyConnected>(4);
      case 16:
        return std::make_unique<noc::FlatButterfly2D>(4);
      default:
        // Generalized shapes (tests / ablations): clique when small,
        // flattened butterfly when a square grid exists.
        for (int k = 2; k * k <= shape.ng; ++k)
            if (k * k == shape.ng)
                return std::make_unique<noc::FlatButterfly2D>(k);
        return std::make_unique<noc::FullyConnected>(shape.ng);
    }
}

LinkSpec
clusterLink(const ClusterShape &shape)
{
    // The (4, p/4) configuration bridges groups through the host over
    // the full-width links; the dense 16-worker cluster uses the narrow
    // links of the flattened butterfly (Section VII-A).
    return shape.ng <= 4 ? LinkSpec::full() : LinkSpec::narrow();
}

} // namespace winomc::memnet
