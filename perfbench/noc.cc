/**
 * @file
 * noc_fig9: flit-level drain of the Fig 9 composite traffic mix (group
 * ring collectives + cluster all-to-all tiles + host control) on the
 * 257-router MemCentricTopology. Only noc and sim run.
 *
 * The simulated results are deterministic, so every drain is checked
 * exactly against the reference counts below. They check the simulator
 * against itself: the NoC model has not been validated against
 * hardware, and this workload reports host speed only.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hh"
#include "noc/memcentric.hh"
#include "noc/network.hh"

namespace perfbench {

using namespace winomc;

namespace {

constexpr int kGroups = 16;
constexpr int kPerGroup = 16;
constexpr int kRounds = 24;
constexpr int kMaxCycles = 5'000'000;
constexpr int kMinDrains = 2;
/** Cycles per timed slice of a drain. */
constexpr int kSliceCycles = 100;

/** Reference results of one drain of the full mix. */
constexpr std::uint64_t kRefPackets = 29200;
constexpr std::uint64_t kRefCycles = 814;
constexpr std::uint64_t kRefFlits = 321136;

/** Collective, tile and host traffic of the Fig 9 mix; `dropOne`
 *  leaves out the last host packet (the injected fault). */
std::uint64_t
offerMix(noc::Network &net, const noc::MemCentricTopology &t, bool dropOne)
{
    std::uint64_t sent = 0;
    // Ring collectives: every worker streams 256 B chunks to its group
    // successor.
    for (int round = 0; round < kRounds; ++round)
        for (int g = 0; g < kGroups; ++g)
            for (int i = 0; i < kPerGroup; ++i, ++sent)
                net.offerPacket(t.workerAt(g, i),
                                t.workerAt(g, (i + 1) % kPerGroup), 256);
    // Tile transfer: 64 B from every worker to every other member of
    // its cluster (the workers sharing its in-group index).
    for (int round = 0; round < kRounds / 4; ++round)
        for (int i = 0; i < kPerGroup; ++i)
            for (int g = 0; g < kGroups; ++g)
                for (int og = 0; og < kGroups; ++og)
                    if (og != g) {
                        net.offerPacket(t.workerAt(g, i),
                                        t.workerAt(og, i), 64);
                        ++sent;
                    }
    // Host control packets.
    const int hostPackets = dropOne ? kGroups - 1 : kGroups;
    for (int g = 0; g < hostPackets; ++g, ++sent)
        net.offerPacket(t.hostNode(), t.workerAt(g, 5), 64);
    return sent;
}

struct Drain
{
    double offerS = 0.0;
    double drainS = 0.0;
    std::vector<double> sliceMs; ///< host time of each kSliceCycles
    bool drained = false;
    std::uint64_t offered = 0, ejected = 0, cycles = 0, flits = 0;
    std::uint64_t creditStalls = 0, holBlocks = 0;
    double maxLinkUtil = 0.0;
};

Drain
runDrain(bool dropOne, Spans *spans, int offerId, int drainId)
{
    Drain d;
    const auto t0 = Clock::now();
    std::unique_ptr<noc::Network> net;
    {
        Spans::Scope s(spans, offerId);
        noc::NocConfig cfg;
        cfg.flitBytes = 10; // narrow links everywhere, as in Fig 9
        cfg.injectionLanes = 4;
        auto topo =
            std::make_unique<noc::MemCentricTopology>(kGroups, kPerGroup);
        const noc::MemCentricTopology &t = *topo; // owned by net below
        net = std::make_unique<noc::Network>(std::move(topo), cfg);
        d.offered = offerMix(*net, t, dropOne);
    }
    d.offerS = secondsSince(t0);
    const auto t1 = Clock::now();
    {
        Spans::Scope s(spans, drainId);
        for (int c = 0; c < kMaxCycles && !d.drained; c += kSliceCycles) {
            const auto s0 = Clock::now();
            d.drained = net->drain(kSliceCycles);
            d.sliceMs.push_back(msBetween(s0, Clock::now()));
        }
    }
    d.drainS = secondsSince(t1);
    d.ejected = net->ejectedCount();
    d.cycles = net->now();
    d.flits = net->ejectedFlitCount();
    d.creditStalls = net->creditStallCount();
    d.holBlocks = net->holBlockCount();
    d.maxLinkUtil = net->maxLinkUtilization();
    return d;
}

} // namespace

Outcome
runNoc(const Options &opt)
{
    Outcome out(opt.trace);
    Spans spans;
    const int offerId = spans.id("noc.offer");
    const int drainId = spans.id("noc.drain");
    LayerProbe probe;
    if (opt.trace)
        probe.start();

    // Traced runs alternate untraced and traced drains.
    std::vector<double> offerS, plainMs, tracedMs;
    std::vector<double> fastestSliceMs; ///< per slice, over plain drains
    Drain last;
    int drains = 0;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < opt.seconds || drains < kMinDrains) {
        const bool traceThis = opt.trace && drains % 2 == 1;
        const Drain d = runDrain(opt.fault && drains == 0,
                                 traceThis ? &spans : nullptr, offerId,
                                 drainId);
        out.check(d.drained && d.ejected == d.offered,
                  "every offered packet ejects");
        out.check(d.offered == kRefPackets && d.cycles == kRefCycles &&
                      d.flits == kRefFlits,
                  "drain matches the reference: " +
                      std::to_string(d.offered) + " packets, " +
                      std::to_string(d.cycles) + " cycles, " +
                      std::to_string(d.flits) + " flits");
        offerS.push_back(d.offerS);
        if (traceThis) {
            tracedMs.push_back(d.drainS * 1e3);
        } else {
            plainMs.push_back(d.drainS * 1e3);
            if (fastestSliceMs.empty())
                fastestSliceMs = d.sliceMs;
            const std::size_t n =
                std::min(fastestSliceMs.size(), d.sliceMs.size());
            for (std::size_t i = 0; i < n; ++i)
                fastestSliceMs[i] = std::min(fastestSliceMs[i],
                                             d.sliceMs[i]);
        }
        last = d;
        ++drains;
    }
    std::printf("# noc: %d drains of %llu packets in %llu cycles "
                "(simulated counts checked exactly; the NoC model is "
                "not validated against hardware)\n",
                drains, (unsigned long long)last.offered,
                (unsigned long long)last.cycles);

    // Every drain simulates the same cycles, so a slice that took longer
    // in one drain than in another ran on a slower host; the sum of each
    // slice's fastest time is the drain's cost with the least
    // interference (see README.md).
    const double fastestMs = sum(fastestSliceMs);
    if (!opt.trace) {
        out.set("work_per_s", double(kRefCycles) / (fastestMs * 1e-3));
        out.set("op_ms", fastestMs);
        out.set("setup_s", median(offerS));
        out.set("peak_rss_mb", peakRssMb());
        return out;
    }
    probe.report(out, double(tracedMs.size()), double(drains), opt.threads);
    out.set("noc.drain_ms", median(tracedMs));
    out.set("noc.drain_cycles", double(last.cycles));
    out.set("noc.flits_ejected", double(last.flits));
    out.set("noc.credit_stalls", double(last.creditStalls));
    out.set("noc.hol_blocks", double(last.holBlocks));
    out.set("noc.max_link_util", last.maxLinkUtil);
    out.set("op_ms_p50", median(plainMs));
    out.set("op_ms_p90", percentile(plainMs, 0.90));
    out.set("trace_overhead_pct",
            overheadPct(median(tracedMs), median(plainMs)));
    if (!opt.traceOut.empty())
        spans.writeChromeTrace(opt.traceOut);
    return out;
}

} // namespace perfbench
