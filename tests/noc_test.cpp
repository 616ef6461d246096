/**
 * @file
 * Tests for the flit-level network simulator: topology wiring
 * invariants, routing minimality, flit conservation, latency semantics,
 * bandwidth saturation, and deadlock freedom under load.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <ostream>
#include <vector>

#include "common/metrics.hh"

#include "noc/memcentric.hh"
#include "noc/network.hh"
#include "noc/topology.hh"
#include "noc/traffic.hh"

namespace winomc::noc {
namespace {

// ---------------------------------------------------------- Topologies

/// Wiring involution: the link through (node, port) comes back through
/// (neighbor, peerPort).
void
checkWiring(const Topology &t)
{
    for (int node = 0; node < t.nodes(); ++node) {
        for (int port = 0; port < t.ports(); ++port) {
            int peer = t.neighbor(node, port);
            if (peer < 0)
                continue;
            int back = t.peerPort(node, port);
            EXPECT_EQ(t.neighbor(peer, back), node)
                << t.name() << " node " << node << " port " << port;
            EXPECT_EQ(t.peerPort(peer, back), port)
                << t.name() << " node " << node << " port " << port;
        }
    }
}

TEST(Topology, RingWiring)
{
    RingTopology t(8);
    checkWiring(t);
    EXPECT_EQ(t.neighbor(7, 0), 0);
    EXPECT_EQ(t.neighbor(0, 1), 7);
}

TEST(Topology, FbflyWiring)
{
    FlatButterfly2D t(4);
    checkWiring(t);
    EXPECT_EQ(t.nodes(), 16);
    EXPECT_EQ(t.ports(), 6);
}

TEST(Topology, CliqueWiring)
{
    FullyConnected t(4);
    checkWiring(t);
    EXPECT_EQ(t.ports(), 3);
}

TEST(Topology, RingRoutesMinimally)
{
    RingTopology t(10);
    for (int s = 0; s < 10; ++s) {
        for (int d = 0; d < 10; ++d) {
            if (s == d)
                continue;
            int fwd = (d - s + 10) % 10;
            int expect = std::min(fwd, 10 - fwd);
            EXPECT_EQ(t.hopCount(s, d), expect) << s << "->" << d;
        }
    }

}

TEST(Topology, FbflyMaxTwoHops)
{
    FlatButterfly2D t(4);
    for (int s = 0; s < t.nodes(); ++s) {
        for (int d = 0; d < t.nodes(); ++d) {
            if (s != d) {
                EXPECT_LE(t.hopCount(s, d), 2) << s << "->" << d;
            }
        }
    }
}

TEST(Topology, CliqueSingleHop)
{
    FullyConnected t(6);
    for (int s = 0; s < 6; ++s) {
        for (int d = 0; d < 6; ++d) {
            if (s != d) {
                EXPECT_EQ(t.hopCount(s, d), 1);
            }
        }
    }
}

TEST(Topology, RingDatelineVcSwitch)
{
    RingTopology t(8);
    EXPECT_EQ(t.nextVc(7, 0, 0), 1); // crossing 7 -> 0
    EXPECT_EQ(t.nextVc(0, 1, 0), 1); // crossing 0 -> 7
    EXPECT_EQ(t.nextVc(3, 0, 0), 0);
    EXPECT_EQ(t.nextVc(3, 1, 1), 1); // stays on high VC once switched
}

// ------------------------------------------------------------- Network

NocConfig
smallCfg()
{
    NocConfig cfg;
    cfg.vcs = 2;
    cfg.bufferDepth = 32;
    cfg.hopLatency = 7;
    cfg.flitBytes = 30;
    return cfg;
}

TEST(Network, SinglePacketLatencyMatchesHops)
{
    auto net = Network(std::make_unique<RingTopology>(8), smallCfg());
    net.offerPacket(0, 2, 30); // one flit, 2 hops
    ASSERT_TRUE(net.drain(1000));
    const PacketInfo &p = net.packet(0);
    EXPECT_TRUE(p.done);
    // inject cycle + 2 hops * hopLatency + egress grant cycles; the
    // exact pipeline adds a couple of arbitration cycles.
    Tick lat = p.ejected - p.injected;
    EXPECT_GE(lat, Tick(2 * 7));
    EXPECT_LE(lat, Tick(2 * 7 + 6));
}

TEST(Network, MultiFlitPacketSerializes)
{
    auto net = Network(std::make_unique<RingTopology>(8), smallCfg());
    net.offerPacket(0, 1, 256); // ceil(256/30) = 9 flits, 1 hop
    ASSERT_TRUE(net.drain(1000));
    Tick lat = net.packet(0).ejected - net.packet(0).injected;
    // Head needs ~hopLatency; the other 8 flits pipeline at 1/cycle.
    EXPECT_GE(lat, Tick(7 + 8));
}

TEST(Network, AllPacketsDeliveredUniformTraffic)
{
    auto net = Network(std::make_unique<FlatButterfly2D>(4), smallCfg());
    Rng rng(5);
    int sent = 0;
    for (int k = 0; k < 500; ++k) {
        int s = int(rng.uniformInt(0, 15));
        int d = int(rng.uniformInt(0, 14));
        if (d >= s)
            ++d;
        net.offerPacket(s, d, 64);
        ++sent;
    }
    ASSERT_TRUE(net.drain(100000));
    EXPECT_EQ(net.ejectedCount(), uint64_t(sent));
    EXPECT_EQ(net.flitsInFlight(), 0u);
}

TEST(Network, RingHeavyLoadDrainsNoDeadlock)
{
    // All-to-all on a ring under heavy load exercises the dateline VCs.
    auto net = Network(std::make_unique<RingTopology>(16), smallCfg());
    Rng rng(6);
    int sent = 0;
    for (int k = 0; k < 2000; ++k) {
        int s = int(rng.uniformInt(0, 15));
        int d = int(rng.uniformInt(0, 14));
        if (d >= s)
            ++d;
        net.offerPacket(s, d, 128);
        ++sent;
    }
    ASSERT_TRUE(net.drain(500000)) << "possible deadlock";
    EXPECT_EQ(net.ejectedCount(), uint64_t(sent));
}

TEST(Network, NeighborRingSustainsNearFullBandwidth)
{
    auto net = Network(std::make_unique<RingTopology>(8), smallCfg());
    Rng rng(7);
    LoadPoint pt = measureLoadPoint(net, ringNeighbor(8), 0.9, 256, 2000,
                                    6000, rng);
    // Neighbor traffic uses disjoint links; ~0.9 flits/node/cycle must
    // be deliverable.
    EXPECT_GT(pt.accepted, 0.8);
    EXPECT_FALSE(pt.saturated);
}

TEST(Network, UniformRingSaturatesBeyondBisection)
{
    // Uniform on a ring saturates near 8/n = 0.5 flits/node/cycle for
    // n=16 (theoretical capacity 4/ (n/4)... conservatively below 0.9).
    auto net = Network(std::make_unique<RingTopology>(16), smallCfg());
    Rng rng(8);
    LoadPoint pt = measureLoadPoint(net, uniformRandom(16), 0.9, 64,
                                    2000, 6000, rng);
    EXPECT_LT(pt.accepted, 0.75);
}

TEST(Network, FbflyUniformOutperformsRingUniform)
{
    Rng rng_a(9), rng_b(9);
    auto ring = Network(std::make_unique<RingTopology>(16), smallCfg());
    auto fbfly = Network(std::make_unique<FlatButterfly2D>(4),
                         smallCfg());
    LoadPoint pr = measureLoadPoint(ring, uniformRandom(16), 0.7, 64,
                                    2000, 5000, rng_a);
    LoadPoint pf = measureLoadPoint(fbfly, uniformRandom(16), 0.7, 64,
                                    2000, 5000, rng_b);
    EXPECT_GT(pf.accepted, pr.accepted);
    EXPECT_LT(pf.avgLatency, pr.avgLatency);
}

TEST(Network, LatencyRisesWithLoad)
{
    Rng rng_a(10), rng_b(10);
    auto low = Network(std::make_unique<FlatButterfly2D>(4), smallCfg());
    auto high = Network(std::make_unique<FlatButterfly2D>(4), smallCfg());
    LoadPoint pl = measureLoadPoint(low, uniformRandom(16), 0.05, 64,
                                    2000, 5000, rng_a);
    LoadPoint ph = measureLoadPoint(high, uniformRandom(16), 0.6, 64,
                                    2000, 5000, rng_b);
    EXPECT_GT(ph.avgLatency, pl.avgLatency);
}

// ------------------------------------------- Stats and conservation

/// Drive uniform traffic, checking offered == ejected + in-flight at
/// arbitrary mid-flight cycles and after the drain, on every topology.
void
checkConservation(std::unique_ptr<Topology> topo, int nodes)
{
    Network net(std::move(topo), smallCfg());
    Rng rng(11);
    for (int burst = 0; burst < 10; ++burst) {
        for (int k = 0; k < 40; ++k) {
            int s = int(rng.uniformInt(0, nodes - 1));
            int d = int(rng.uniformInt(0, nodes - 2));
            if (d >= s)
                ++d;
            net.offerPacket(s, d, int(rng.uniformInt(1, 200)));
        }
        net.run(17); // deliberately mid-flight
        EXPECT_EQ(net.offeredFlitCount(),
                  net.ejectedFlitCount() + net.flitsInFlight())
            << net.topology().name() << " burst " << burst;
    }
    ASSERT_TRUE(net.drain(500000)) << net.topology().name();
    EXPECT_EQ(net.flitsInFlight(), 0u);
    EXPECT_EQ(net.offeredFlitCount(), net.ejectedFlitCount())
        << net.topology().name();
    EXPECT_GT(net.offeredFlitCount(), 0u);
}

TEST(NetworkStats, FlitConservationRing)
{
    checkConservation(std::make_unique<RingTopology>(16), 16);
}

TEST(NetworkStats, FlitConservationFbfly)
{
    checkConservation(std::make_unique<FlatButterfly2D>(4), 16);
}

TEST(NetworkStats, FlitConservationClique)
{
    checkConservation(std::make_unique<FullyConnected>(8), 8);
}

/// Every per-link utilization lies in [0, 1] (one flit per link per
/// cycle), the mean never exceeds the max, and injection/ejection
/// rates stay within the injection-lane budget.
TEST(NetworkStats, UtilizationBounded)
{
    NocConfig cfg = smallCfg();
    cfg.sampleOccupancy = true;
    Network net(std::make_unique<RingTopology>(16), cfg);
    Rng rng(12);
    measureLoadPoint(net, uniformRandom(16), 0.8, 64, 1000, 3000, rng);

    const Topology &t = net.topology();
    double max_seen = 0.0;
    for (int node = 0; node < t.nodes(); ++node) {
        for (int port = 0; port < t.ports(); ++port) {
            double u = net.linkUtilization(node, port);
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0) << "node " << node << " port " << port;
            max_seen = std::max(max_seen, u);
        }
        EXPECT_GE(net.injectionRate(node), 0.0);
        EXPECT_LE(net.injectionRate(node), double(cfg.injectionLanes));
        EXPECT_GE(net.ejectionRate(node), 0.0);
        EXPECT_LE(net.ejectionRate(node), double(cfg.injectionLanes));
    }
    EXPECT_DOUBLE_EQ(net.maxLinkUtilization(), max_seen);
    EXPECT_GT(net.maxLinkUtilization(), 0.0);
    EXPECT_LE(net.meanLinkUtilization(), net.maxLinkUtilization());
    EXPECT_GT(net.occupancyHistogram().count(), 0u);
}

/// resetStats() zeroes the window (latency, links, stalls, occupancy)
/// but the lifetime conservation counters survive and the invariant
/// keeps holding afterwards.
TEST(NetworkStats, ResetStatsKeepsConservationCounters)
{
    NocConfig cfg = smallCfg();
    cfg.sampleOccupancy = true;
    Network net(std::make_unique<RingTopology>(8), cfg);
    Rng rng(13);
    for (int k = 0; k < 200; ++k) {
        int s = int(rng.uniformInt(0, 7));
        int d = int(rng.uniformInt(0, 6));
        if (d >= s)
            ++d;
        net.offerPacket(s, d, 64);
    }
    net.run(300);
    const uint64_t offered = net.offeredFlitCount();
    const uint64_t ejected_before = net.ejectedFlitCount();
    ASSERT_GT(net.creditStallCount() + net.holBlockCount(), 0u);

    net.resetStats();
    EXPECT_EQ(net.statsElapsed(), Tick(0));
    EXPECT_EQ(net.creditStallCount(), 0u);
    EXPECT_EQ(net.holBlockCount(), 0u);
    EXPECT_DOUBLE_EQ(net.maxLinkUtilization(), 0.0);
    EXPECT_EQ(net.latencyStats().count(), 0u);
    EXPECT_EQ(net.occupancyHistogram().count(), 0u);
    // Lifetime counters are simulation state, not window state.
    EXPECT_EQ(net.offeredFlitCount(), offered);
    EXPECT_EQ(net.ejectedFlitCount(), ejected_before);
    EXPECT_EQ(net.offeredFlitCount(),
              net.ejectedFlitCount() + net.flitsInFlight());

    // A fresh batch accumulates into the new window on top of the
    // surviving lifetime counters.
    for (int k = 0; k < 50; ++k) {
        int s = int(rng.uniformInt(0, 7));
        net.offerPacket(s, (s + 1 + int(rng.uniformInt(0, 6))) % 8, 64);
    }
    ASSERT_TRUE(net.drain(100000));
    EXPECT_EQ(net.offeredFlitCount(), net.ejectedFlitCount());
    EXPECT_GT(net.offeredFlitCount(), offered);
    EXPECT_GT(net.maxLinkUtilization(), 0.0); // new window accumulated
}

/// exportMetrics() lands the conservation counters and bounded gauges
/// in the registry under the requested prefix.
TEST(NetworkStats, ExportMetricsMatchesAccessors)
{
    const bool was = metrics::enabled();
    metrics::setEnabled(true);
    metrics::reset();

    NocConfig cfg = smallCfg();
    cfg.sampleOccupancy = true;
    Network net(std::make_unique<FlatButterfly2D>(4), cfg);
    Rng rng(14);
    measureLoadPoint(net, uniformRandom(16), 0.4, 64, 500, 2000, rng);
    net.exportMetrics("t.noc");

    auto snap = metrics::snapshot();
    auto get = [&](const char *name) -> const metrics::Sample * {
        for (const auto &s : snap)
            if (s.name == name)
                return &s;
        return nullptr;
    };
    const auto *off = get("t.noc.flits_offered");
    ASSERT_NE(off, nullptr);
    EXPECT_DOUBLE_EQ(off->value, double(net.offeredFlitCount()));
    const auto *ej = get("t.noc.flits_ejected");
    ASSERT_NE(ej, nullptr);
    EXPECT_DOUBLE_EQ(ej->value, double(net.ejectedFlitCount()));
    const auto *util = get("t.noc.link_util_max");
    ASSERT_NE(util, nullptr);
    EXPECT_DOUBLE_EQ(util->value, net.maxLinkUtilization());
    const auto *occ = get("t.noc.router_occupancy");
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->kind, metrics::Kind::Histogram);
    EXPECT_EQ(occ->count, net.occupancyHistogram().count());

    metrics::reset();
    metrics::setEnabled(was);
}

// ------------------------------------------------ MemCentricTopology

TEST(MemCentric, WiringInvolution)
{
    MemCentricTopology t(16, 16);
    EXPECT_EQ(t.nodes(), 257);
    checkWiring(t);
}

TEST(MemCentric, SmallConfigWiring)
{
    MemCentricTopology t(4, 4);
    EXPECT_EQ(t.nodes(), 17);
    checkWiring(t);
}

TEST(MemCentric, GroupRingAndClusterButterflyHops)
{
    MemCentricTopology t(16, 16);
    // Same group: ring distance.
    EXPECT_EQ(t.hopCount(t.workerAt(3, 0), t.workerAt(3, 5)), 5);
    EXPECT_EQ(t.hopCount(t.workerAt(3, 0), t.workerAt(3, 12)), 4);
    // Same cluster (same index): <= 2 butterfly hops.
    for (int g = 1; g < 16; ++g)
        EXPECT_LE(t.hopCount(t.workerAt(0, 7), t.workerAt(g, 7)), 2);
    // General case: ring (<= 8) then butterfly (<= 2).
    for (int s : {0, 37, 200}) {
        for (int d : {255, 129, 3}) {
            if (s == d)
                continue;
            EXPECT_LE(t.hopCount(s, d), 10) << s << "->" << d;
        }
    }
}

TEST(MemCentric, HostReachableFromEverywhere)
{
    MemCentricTopology t(16, 16);
    for (int w : {0, 15, 137, 255}) {
        // Worker -> host: ring to the group head (<= 8) + 1.
        EXPECT_LE(t.hopCount(w, t.hostNode()), 9);
        // Host -> worker: host link + ring.
        EXPECT_LE(t.hopCount(t.hostNode(), w), 9);
    }
}

TEST(MemCentric, MptTrafficDrains)
{
    // Simultaneous ring-neighbor (collective) and intra-cluster
    // all-to-all (tile transfer) traffic on the composite network must
    // drain - the hybrid-topology claim of Section IV.
    NocConfig cfg;
    cfg.flitBytes = 10;
    auto topo = std::make_unique<MemCentricTopology>(4, 4);
    const MemCentricTopology &t = *topo;
    Network net(std::move(topo), cfg);

    int sent = 0;
    for (int round = 0; round < 20; ++round) {
        for (int g = 0; g < 4; ++g) {
            for (int i = 0; i < 4; ++i) {
                // Collective hop to the ring successor.
                net.offerPacket(t.workerAt(g, i),
                                t.workerAt(g, (i + 1) % 4), 256);
                ++sent;
                // Tile transfer to every other cluster member.
                for (int og = 0; og < 4; ++og) {
                    if (og == g)
                        continue;
                    net.offerPacket(t.workerAt(g, i),
                                    t.workerAt(og, i), 64);
                    ++sent;
                }
            }
        }
    }
    ASSERT_TRUE(net.drain(500000)) << "composite network deadlock?";
    EXPECT_EQ(net.ejectedCount(), uint64_t(sent));
}

TEST(MemCentric, RandomTrafficWithHostDrains)
{
    NocConfig cfg;
    auto topo = std::make_unique<MemCentricTopology>(4, 4);
    Network net(std::move(topo), cfg);
    Rng rng(17);
    int sent = 0;
    for (int kk = 0; kk < 800; ++kk) {
        int s = int(rng.uniformInt(0, 16)); // host included
        int d = int(rng.uniformInt(0, 15));
        if (d >= s)
            ++d;
        net.offerPacket(s, d, 64);
        ++sent;
    }
    ASSERT_TRUE(net.drain(500000));
    EXPECT_EQ(net.ejectedCount(), uint64_t(sent));
}

// ------------------------------------------------------ Golden counts

/// One seeded run of the simulator: open-loop traffic for `openCycles`
/// (a Bernoulli packet source per node), then `run(runCycles)` with no
/// new offers, then a drain. A zero rate offers the Fig 9 mix of
/// `offerFig9Mix` at cycle 0 instead.
struct GoldenCase
{
    const char *name;
    std::unique_ptr<Topology> (*topology)();
    int vcs, injectionLanes, bufferDepth, flitBytes;
    bool neighbor;    ///< ring-neighbor destinations, else uniform
    double flitRate;  ///< offered flits / node / cycle
    int packetBytes;
    int openCycles, runCycles;
};

/// The simulated counts at one checkpoint.
struct GoldenCounts
{
    uint64_t cycle, flits, creditStalls, holBlocks;
    double latencySum, maxLinkUtil;
};

bool
operator==(const GoldenCounts &a, const GoldenCounts &b)
{
    return a.cycle == b.cycle && a.flits == b.flits &&
           a.creditStalls == b.creditStalls &&
           a.holBlocks == b.holBlocks && a.latencySum == b.latencySum &&
           a.maxLinkUtil == b.maxLinkUtil;
}

std::ostream &
operator<<(std::ostream &os, const GoldenCounts &c)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{%llu, %llu, %llu, %llu, %.17g, %.17g}",
                  (unsigned long long)c.cycle, (unsigned long long)c.flits,
                  (unsigned long long)c.creditStalls,
                  (unsigned long long)c.holBlocks, c.latencySum,
                  c.maxLinkUtil);
    return os << buf;
}

GoldenCounts
countsOf(const Network &net)
{
    return {uint64_t(net.now()), net.ejectedFlitCount(),
            net.creditStallCount(), net.holBlockCount(),
            net.latencyStats().sum(), net.maxLinkUtilization()};
}

/// Counts after the open phase, after run(runCycles), after the drain.
std::vector<GoldenCounts>
runGolden(const GoldenCase &gc)
{
    NocConfig cfg;
    cfg.vcs = gc.vcs;
    cfg.injectionLanes = gc.injectionLanes;
    cfg.bufferDepth = gc.bufferDepth;
    cfg.flitBytes = gc.flitBytes;
    std::unique_ptr<Topology> topo = gc.topology();
    const Topology &t = *topo;
    Network net(std::move(topo), cfg);
    const int n = t.nodes();
    if (gc.flitRate == 0.0)
        noc::offerFig9Mix(net, static_cast<const MemCentricTopology &>(t),
                          {true, true, true});
    Rng rng(uint64_t(n) * 1000 + uint64_t(gc.vcs) * 100 +
            uint64_t(gc.injectionLanes));
    const TrafficPattern pattern =
        gc.neighbor ? ringNeighbor(n) : uniformRandom(n);
    const int flitsPerPacket =
        (gc.packetBytes + gc.flitBytes - 1) / gc.flitBytes;
    const double packetRate = gc.flitRate / flitsPerPacket;
    for (int c = 0; c < gc.openCycles; ++c) {
        for (int s = 0; s < n; ++s)
            if (rng.uniform() < packetRate)
                net.offerPacket(s, pattern(s, rng), gc.packetBytes);
        net.step();
    }
    std::vector<GoldenCounts> out{countsOf(net)};
    net.run(gc.runCycles);
    out.push_back(countsOf(net));
    EXPECT_TRUE(net.drain(1'000'000)) << gc.name;
    EXPECT_EQ(net.offeredFlitCount(), net.ejectedFlitCount()) << gc.name;
    out.push_back(countsOf(net));
    return out;
}

template <class T, int... Args>
std::unique_ptr<Topology>
make()
{
    return std::make_unique<T>(Args...);
}

/// Every simulated count of seeded runs across topologies, VC counts,
/// injection lanes, buffer depths, patterns and loads below and above
/// saturation. The values were recorded from the simulator whose
/// switch allocator scanned every input-VC slot of every output port
/// each cycle; any allocator must reproduce them exactly.
TEST(NetworkGolden, CountsMatchRecordedRuns)
{
    const GoldenCase cases[] = {
        {"ring16 uniform low", make<RingTopology, 16>, 2, 1, 32, 30,
         false, 0.2, 64, 600, 50},
        {"ring16 uniform sat", make<RingTopology, 16>, 3, 4, 4, 30, false,
         0.9, 128, 400, 100},
        {"ring64 neighbor sat", make<RingTopology, 64>, 2, 4, 32, 30,
         true, 1.5, 256, 300, 100},
        {"ring64 uniform low", make<RingTopology, 64>, 3, 1, 4, 30, false,
         0.05, 64, 500, 20},
        {"fbfly4 uniform sat", make<FlatButterfly2D, 4>, 2, 4, 4, 30,
         false, 1.2, 64, 400, 50},
        {"fbfly4 neighbor low", make<FlatButterfly2D, 4>, 3, 1, 32, 30,
         true, 0.4, 256, 500, 30},
        {"clique8 uniform sat", make<FullyConnected, 8>, 3, 4, 32, 30,
         false, 4.5, 256, 300, 40},
        {"clique8 neighbor low", make<FullyConnected, 8>, 2, 1, 4, 30,
         true, 0.3, 128, 400, 10},
        {"memc4x4 uniform sat", make<MemCentricTopology, 4, 4>, 2, 4, 4,
         10, false, 0.8, 64, 400, 100},
        {"memc4x4 neighbor low", make<MemCentricTopology, 4, 4>, 3, 1, 32,
         30, true, 0.3, 256, 500, 50},
        {"fig9 mix", make<MemCentricTopology, 16, 16>, 2, 4, 32, 10,
         false, 0.0, 64, 0, 300},
        {"clique40 uniform sat (2-word slot masks)",
         make<FullyConnected, 40>, 2, 4, 4, 30, false, 3.0, 128, 200, 20},
    };
    const std::vector<GoldenCounts> expected[] = {
        {{600, 1699, 0, 545, 19993, 0.54000000000000004},
         {650, 1825, 0, 549, 21836, 0.52615384615384619},
         {658, 1833, 0, 549, 22012, 0.51975683890577506}},
        {{400, 250, 9788, 22649, 8906, 0.2175},
         {500, 305, 11894, 28760, 13216, 0.21199999999999999},
         {7642, 5850, 100412, 276712, 4404636, 0.11842449620518189}},
        {{300, 18102, 0, 37388, 119709, 0.9966666666666667},
         {400, 24322, 0, 50168, 209989, 0.99750000000000005},
         {595, 28827, 0, 54210, 314612, 0.98319327731092432}},
        {{500, 417, 37306, 12173, 20806, 0.27400000000000002},
         {520, 427, 39242, 13070, 21016, 0.2673076923076923},
         {2017, 1662, 98475, 45687, 393205, 0.1279127416955875}},
        {{400, 3763, 13507, 10917, 127948, 0.22500000000000001},
         {450, 4197, 15286, 12595, 158940, 0.22666666666666666},
         {910, 7668, 26317, 20758, 555739, 0.19450549450549451}},
        {{500, 3249, 0, 0, 7213, 0.54400000000000004},
         {530, 3374, 0, 0, 7552, 0.54339622641509433},
         {531, 3375, 0, 0, 7585, 0.5423728813559322}},
        {{300, 6946, 0, 1899, 46283, 0.75},
         {340, 7952, 0, 2154, 59020, 0.76764705882352946},
         {572, 10566, 0, 2508, 105572, 0.534965034965035}},
        {{400, 752, 1779, 0, 8767, 0.28999999999999998},
         {410, 775, 1827, 0, 9062, 0.29024390243902437},
         {613, 905, 2109, 0, 12957, 0.28548123980424145}},
        {{400, 1496, 8486, 17332, 19825, 0.28000000000000003},
         {500, 1710, 10554, 23069, 27712, 0.28000000000000003},
         {2395, 5404, 30523, 65126, 526601, 0.14613778705636743}},
        {{500, 2444, 0, 0, 5343, 0.46800000000000003},
         {550, 2556, 0, 0, 5623, 0.42545454545454547},
         {550, 2556, 0, 0, 5623, 0.42545454545454547}},
        {{0, 0, 0, 0, 0, 0},
         {300, 195200, 312, 28760, 2236372, 0.9966666666666667},
         {814, 321136, 312, 28760, 7995295, 0.77518427518427513}},
        {{200, 9920, 20160, 1180, 131554, 0.14999999999999999},
         {220, 11023, 22367, 1282, 157005, 0.15454545454545454},
         {650, 24195, 48390, 2494, 752936, 0.08461538461538462}},
    };
    ASSERT_EQ(std::size(expected), std::size(cases));
    for (size_t i = 0; i < std::size(cases); ++i) {
        const std::vector<GoldenCounts> got = runGolden(cases[i]);
        EXPECT_EQ(got, expected[i]) << cases[i].name;
    }
}

} // namespace
} // namespace winomc::noc
