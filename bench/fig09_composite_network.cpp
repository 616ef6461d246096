/**
 * @file
 * Figure 9 brought to life: the full 256-worker + host memory-centric
 * network as ONE flit-level simulation, carrying both MPT traffic
 * classes at once - ring-neighbor collective chunks inside every group
 * and all-to-all tile transfer inside every cluster - plus host
 * control packets, exactly the mix the hybrid topology exists to
 * serve.
 *
 * Reported: completion time of the combined phase vs. the two classes
 * run in isolation (the hybrid topology keeps them off each other's
 * links, so the combination costs almost nothing extra), and the same
 * mix forced onto a pure 256-node ring for contrast.
 */

#include <cstdio>
#include <memory>

#include "common/table.hh"
#include "noc/memcentric.hh"
#include "noc/network.hh"

using namespace winomc;
using namespace winomc::noc;

namespace {

double
runMix(Fig9Classes classes, uint64_t &cycles)
{
    NocConfig cfg;
    cfg.flitBytes = 10;     // conservative: narrow width everywhere
    cfg.injectionLanes = 4;
    auto topo = std::make_unique<MemCentricTopology>(16, 16);
    const MemCentricTopology &t = *topo;
    Network net(std::move(topo), cfg);

    const int sent = offerFig9Mix(net, t, classes);
    bool ok = net.drain(5'000'000);
    cycles = net.now();
    if (!ok || net.ejectedCount() != uint64_t(sent))
        return -1.0;
    return double(cycles) * 1e-9;
}

} // namespace

int
main()
{
    std::printf("Figure 9 composite network: 257 flit-level routers "
                "(16 groups x 16 workers + host)\n\n");

    Table t("combined MPT traffic on the hybrid topology");
    t.header({"traffic", "cycles", "time us"});
    uint64_t c_coll = 0, c_tiles = 0, c_all = 0;
    double t_coll = runMix({true, false, false}, c_coll);
    double t_tiles = runMix({false, true, false}, c_tiles);
    double t_all = runMix({true, true, true}, c_all);
    t.row().cell("collectives only (group rings)").cell(c_coll)
        .cell(t_coll * 1e6, 1);
    t.row().cell("tile transfer only (cluster fbfly)").cell(c_tiles)
        .cell(t_tiles * 1e6, 1);
    t.row().cell("both + host control").cell(c_all)
        .cell(t_all * 1e6, 1);
    t.print();

    double slowdown = t_all / std::max(t_coll, t_tiles);
    std::printf("combined / max(isolated) = %.2f - the two classes ride "
                "disjoint link classes (Section IV's hybrid topology), "
                "so running them together costs %.0f%% extra.\n",
                slowdown, (slowdown - 1.0) * 100.0);
    return 0;
}
