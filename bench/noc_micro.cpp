/**
 * @file
 * Network microbenchmarks validating the Table III link assumptions:
 * load-latency curves of the ring and flattened-butterfly topologies
 * from the flit-level simulator, a cross-check of the analytic
 * bottleneck model against the event-driven message simulator, and
 * google-benchmark timings of the simulator itself.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "common/metrics.hh"
#include "common/table.hh"
#include "memnet/link_model.hh"
#include "memnet/message_sim.hh"
#include "noc/memcentric.hh"
#include "noc/network.hh"
#include "noc/traffic.hh"

using namespace winomc;
using namespace winomc::noc;

namespace {

void
loadLatencyTable()
{
    Table t("flit-level load-latency (64 B packets, uniform random)");
    t.header({"topology", "offered", "accepted", "avg latency (cyc)",
              "util max", "util mean", "stalls/node/cyc", "saturated"});
    for (double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        for (int which = 0; which < 2; ++which) {
            NocConfig cfg;
            cfg.flitBytes = which == 0 ? 30 : 10;
            // The occupancy distribution is part of the saturation
            // story; sampling costs nothing at this scale.
            cfg.sampleOccupancy = true;
            std::unique_ptr<Topology> topo;
            if (which == 0)
                topo = std::make_unique<RingTopology>(16);
            else
                topo = std::make_unique<FlatButterfly2D>(4);
            Network net(std::move(topo), cfg);
            Rng rng(77);
            LoadPoint pt = measureLoadPoint(
                net, uniformRandom(16), load, 64, 1500, 4000, rng);
            const char *name =
                which == 0 ? "ring-16 (full)" : "fbfly-4x4 (narrow)";
            t.row()
                .cell(name)
                .cell(pt.offered, 2)
                .cell(pt.accepted, 2)
                .cell(pt.avgLatency, 1)
                .cell(pt.maxLinkUtil, 2)
                .cell(pt.meanLinkUtil, 2)
                .cell(pt.creditStallRate + pt.holBlockRate, 3)
                .cell(pt.saturated ? "yes" : "no");
            if (metrics::enabled()) {
                char prefix[64];
                std::snprintf(prefix, sizeof(prefix),
                              "noc.%s.load%.1f",
                              which == 0 ? "ring16" : "fbfly4x4", load);
                net.exportMetrics(prefix);
            }
        }
    }
    t.print();
}

void
analyticVsMessageSim()
{
    Table t("all-to-all: analytic bottleneck vs event-driven message "
            "sim");
    t.header({"topology", "bytes/pair", "analytic us", "simulated us",
              "ratio"});
    for (double v : {64e3, 1e6, 8e6}) {
        {
            FlatButterfly2D a(4);
            double an = memnet::allToAllTime(a, v,
                                             memnet::LinkSpec::narrow());
            FlatButterfly2D b(4);
            double si = memnet::simulateAllToAll(
                b, memnet::LinkSpec::narrow(), v);
            t.row().cell("fbfly-4x4").cell(v, 0).cell(an * 1e6, 1)
                .cell(si * 1e6, 1).cell(si / an, 2);
        }
        {
            FullyConnected a(4);
            double an = memnet::allToAllTime(a, v,
                                             memnet::LinkSpec::full());
            FullyConnected b(4);
            double si = memnet::simulateAllToAll(
                b, memnet::LinkSpec::full(), v);
            t.row().cell("clique-4").cell(v, 0).cell(an * 1e6, 1)
                .cell(si * 1e6, 1).cell(si / an, 2);
        }
    }
    t.print();
}

void
BM_FlitSimRingStep(benchmark::State &state)
{
    NocConfig cfg;
    Network net(std::make_unique<RingTopology>(int(state.range(0))),
                cfg);
    Rng rng(3);
    auto pattern = uniformRandom(int(state.range(0)));
    for (auto _ : state) {
        for (int s = 0; s < net.topology().nodes(); ++s)
            if (rng.coin(0.2))
                net.offerPacket(s, pattern(s, rng), 64);
        net.step();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            net.topology().nodes());
}
BENCHMARK(BM_FlitSimRingStep)->Arg(16)->Arg(64)->Arg(256);

/** One drain of the Fig 9 mix on the 257-router network (narrow 10 B
 *  flits, 4 injection lanes); items are simulated cycles. Building
 *  the network and offering the mix are not timed. */
void
BM_FlitSimFig9Drain(benchmark::State &state)
{
    int64_t cycles = 0;
    for (auto _ : state) {
        state.PauseTiming();
        NocConfig cfg;
        cfg.flitBytes = 10;
        cfg.injectionLanes = 4;
        auto topo = std::make_unique<MemCentricTopology>(16, 16);
        const MemCentricTopology &t = *topo;
        auto net = std::make_unique<Network>(std::move(topo), cfg);
        offerFig9Mix(*net, t, {true, true, true});
        state.ResumeTiming();
        if (!net->drain(1'000'000))
            state.SkipWithError("Fig 9 mix did not drain");
        cycles += int64_t(net->now());
        state.PauseTiming();
        net.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_FlitSimFig9Drain)->Unit(benchmark::kMillisecond);

void
BM_MessageSimAllToAll(benchmark::State &state)
{
    for (auto _ : state) {
        FlatButterfly2D topo(4);
        benchmark::DoNotOptimize(memnet::simulateAllToAll(
            topo, memnet::LinkSpec::narrow(), 1e6));
    }
}
BENCHMARK(BM_MessageSimAllToAll);

} // namespace

int
main(int argc, char **argv)
{
    std::printf("NoC microbenchmarks (Table III validation)\n\n");
    loadLatencyTable();
    analyticVsMessageSim();

    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
