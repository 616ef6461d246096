/**
 * @file
 * Cycle-stepped flit-level network: routers wired by a Topology, flit
 * and credit propagation with per-hop SerDes latency, packet injection /
 * ejection with latency statistics.
 *
 * Link widths follow Table III: a full-width link moves 30 bytes per
 * 1 GHz cycle (16 lanes x 15 Gbps), a narrow link 10 bytes per cycle
 * (8 lanes x 10 Gbps); a packet of B bytes therefore serializes into
 * ceil(B / flit_bytes) flits.
 */

#ifndef WINOMC_NOC_NETWORK_HH
#define WINOMC_NOC_NETWORK_HH

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "noc/router.hh"
#include "noc/topology.hh"

namespace winomc::noc {

struct NocConfig
{
    int vcs = 2;
    int bufferDepth = 32;  ///< flits per input VC (covers credit RTT)
    /** Cycles from switch grant to downstream buffer: router pipeline
     *  (2) + serialization + deserialization (5 ns, Table III); at
     *  least 1. */
    int hopLatency = 7;
    int flitBytes = 30;    ///< link phit per cycle (full-width default)
    /** Parallel injection channels from the terminal (the NDP feeds
     *  its router through the on-chip crossbar, so multi-port routers
     *  can accept several flits per cycle). */
    int injectionLanes = 1;
    /** Sample every router's buffered-flit count into a histogram each
     *  cycle. Off by default: the O(routers) per-cycle pass is only
     *  worth paying when the occupancy distribution is wanted. The
     *  cheap counters (link busy, stalls, inject/eject) are always
     *  collected. */
    bool sampleOccupancy = false;
};

class Network
{
  public:
    Network(std::unique_ptr<Topology> topo, const NocConfig &cfg);

    /**
     * Offer a packet to node `src`'s source queue. Returns the packet
     * id. Size is given in bytes and converted to flits.
     */
    int offerPacket(int src, int dst, int bytes);

    /** Advance one cycle. */
    void step();
    /** Run `cycles` cycles. */
    void run(int cycles);
    /** Step until all offered packets eject (or `max_cycles` pass);
     *  returns true if drained. */
    bool drain(int max_cycles);

    Tick now() const { return cycle; }
    const Topology &topology() const { return *topo; }
    const NocConfig &config() const { return cfg; }

    const PacketInfo &packet(int id) const { return packets[size_t(id)]; }
    size_t packetCount() const { return packets.size(); }
    uint64_t ejectedCount() const { return ejected; }

    /** Packet latency (inject -> eject) of ejected packets. */
    const Accumulator &latencyStats() const { return latency; }
    /** Flits ejected per node per cycle since the last resetStats(). */
    double acceptedFlitRate() const;
    /** Reset every windowed statistic (latency, link/stall/inject/
     *  eject counters, occupancy histogram) and restart the window at
     *  the current cycle. Lifetime conservation counters
     *  (offeredFlitCount / ejectedFlitCount) are simulation state and
     *  survive. */
    void resetStats();

    /** Flits currently buffered anywhere (0 when idle). */
    size_t flitsInFlight() const;

    // ------------------------------------------------- introspection
    /** Cycles covered by the current stats window. */
    Tick statsElapsed() const { return cycle - statsSince; }
    /** Lifetime flits offered via offerPacket (conservation). */
    uint64_t offeredFlitCount() const { return offeredFlits; }
    /** Lifetime flits ejected at terminals (conservation:
     *  offered == ejected + flitsInFlight() at any cycle). */
    uint64_t ejectedFlitCount() const { return totalEjectedFlits; }

    /** Busy fraction of the directed link out of (node, port) over the
     *  stats window: flits sent / elapsed cycles, always in [0, 1]
     *  (one flit per link per cycle). */
    double linkUtilization(int node, int port) const;
    /** Max / mean utilization over all wired directed links. */
    double maxLinkUtilization() const;
    double meanLinkUtilization() const;

    /** Arbitration scans blocked on exhausted downstream credits /
     *  on an output VC owned by another packet (head-of-line block),
     *  summed over routers, this stats window. */
    uint64_t creditStallCount() const;
    uint64_t holBlockCount() const;

    /** Flits per cycle this node injected / ejected over the window. */
    double injectionRate(int node) const;
    double ejectionRate(int node) const;

    /** Per-cycle buffered-flits-per-router distribution; only
     *  populated when cfg.sampleOccupancy is set. */
    const Histogram &occupancyHistogram() const;

    /** Push the window's statistics into the common/metrics registry
     *  under `prefix` (e.g. "noc.ring16"): counters for flit/stall
     *  totals, gauges for rates and utilization extremes, histogram
     *  metrics for per-link utilization, per-node injection/ejection
     *  rates, and router occupancy. No-op when metrics are disabled. */
    void exportMetrics(const std::string &prefix) const;
    /** Replay every ejected packet as a span on a fresh virtual-time
     *  trace timeline (1 cycle == 1 us, tid == source node). No-op
     *  when tracing is disabled. */
    void exportTrace(const std::string &label) const;

  private:
    /** A flit on a link, landing in input `slot` of router `node`. */
    struct FlitArrival
    {
        int node, slot;
        Flit flit;
    };
    /** A credit for output VC `index` (out * vcs + vc) of `node`. */
    struct CreditArrival
    {
        int node, index;
    };
    /** Everything landing in one cycle. */
    struct Bucket
    {
        std::vector<FlitArrival> flits;
        std::vector<CreditArrival> credits;
    };
    /** A packet waiting in a source lane. */
    struct Queued
    {
        int packet, vc;
    };
    /** Un-injected packets of one (node, lane), and how many flits of
     *  the front packet were injected already. */
    struct SourceLane
    {
        std::deque<Queued> packets;
        int sent = 0;
    };

    void deliverArrivals();
    /** Ejection, then switch allocation, of one router. */
    void allocate(Router &r);
    void injection();

    /** Buffer a flit in input `slot`; an empty slot starts requesting. */
    void acceptFlit(Router &r, int slot, const Flit &f);
    /** Make non-empty `slot` a requester of its packet's output,
     *  routing the front flit first if it is a head. */
    void request(Router &r, int slot);
    /** Remove `slot`'s front flit and update the requester masks. */
    Flit popFront(Router &r, int slot);
    void eject(int node, const Flit &f);
    /** Return the credit of input `slot` to the upstream router. */
    void creditUpstream(const Router &r, int slot);
    /** Bucket of arrivals sent this cycle. */
    Bucket &sendBucket();

    std::unique_ptr<Topology> topo;
    NocConfig cfg;
    Tick cycle = 0;

    std::vector<Router> routers;
    std::vector<PacketInfo> packets;
    /** Wiring, [node * ports + port]: peer node and its input port. */
    std::vector<int> neighbors;
    std::vector<int> peerPorts;
    /** Routers holding flits (bit per node); only these allocate. */
    std::vector<uint64_t> activeRouters;
    /** Source lanes, [node * injectionLanes + lane]. */
    std::vector<SourceLane> sourceLanes;
    uint64_t nextLane = 0;
    /** In-flight flits and credits, one bucket per cycle of the hop
     *  latency; wheel[t % wheel.size()] lands at cycle t. */
    std::vector<Bucket> wheel;

    // Flits in source queues / router buffers / on links.
    uint64_t queuedFlits = 0;
    uint64_t bufferedFlits = 0;
    uint64_t linkFlits = 0;

    Accumulator latency;
    uint64_t ejected = 0;
    uint64_t ejectedFlits = 0;
    Tick statsSince = 0;

    // Windowed introspection state (cleared by resetStats()).
    std::vector<uint64_t> linkBusy;        ///< [node * ports + port]
    std::vector<uint64_t> nodeInjected;    ///< flits entering router
    std::vector<uint64_t> nodeEjected;     ///< flits leaving at terminal
    std::vector<uint64_t> creditStalls;    ///< per node
    std::vector<uint64_t> holBlocks;       ///< per node
    std::optional<Histogram> occupancyHist;

    // Lifetime conservation counters (survive resetStats()).
    uint64_t offeredFlits = 0;
    uint64_t totalEjectedFlits = 0;
};

} // namespace winomc::noc

#endif // WINOMC_NOC_NETWORK_HH
