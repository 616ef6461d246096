#include "noc/network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace winomc::noc {

Network::Network(std::unique_ptr<Topology> topo_, const NocConfig &cfg_)
    : topo(std::move(topo_)), cfg(cfg_)
{
    winomc_assert(cfg.vcs >= topo->vcsNeeded(),
                  "topology '", topo->name(), "' needs ",
                  topo->vcsNeeded(), " VCs, config has ", cfg.vcs);
    winomc_assert(cfg.injectionLanes >= 1, "need an injection lane");
    winomc_assert(cfg.hopLatency >= 1, "hop latency must be >= 1 cycle");
    const int n = topo->nodes();
    const int ports = topo->ports();
    routers.reserve(size_t(n));
    for (int i = 0; i < n; ++i)
        routers.emplace_back(i, ports, cfg.vcs, cfg.bufferDepth,
                             cfg.injectionLanes);
    neighbors.resize(size_t(n) * size_t(ports));
    peerPorts.resize(size_t(n) * size_t(ports));
    for (int node = 0; node < n; ++node)
        for (int port = 0; port < ports; ++port) {
            const size_t at = size_t(node) * size_t(ports) + size_t(port);
            neighbors[at] = topo->neighbor(node, port);
            peerPorts[at] =
                neighbors[at] >= 0 ? topo->peerPort(node, port) : -1;
        }
    activeRouters.assign(size_t(bits::wordsFor(n)), 0);
    sourceLanes.resize(size_t(n) * size_t(cfg.injectionLanes));
    wheel.resize(size_t(cfg.hopLatency) + 1);

    linkBusy.assign(size_t(n) * size_t(ports), 0);
    nodeInjected.assign(size_t(n), 0);
    nodeEjected.assign(size_t(n), 0);
    creditStalls.assign(size_t(n), 0);
    holBlocks.assign(size_t(n), 0);
    if (cfg.sampleOccupancy) {
        // One bucket range covering an entirely full router.
        int capacity = (ports + cfg.injectionLanes) * cfg.vcs *
                       cfg.bufferDepth;
        occupancyHist.emplace(0.0, double(capacity + 1), 32);
    }
}

int
Network::offerPacket(int src, int dst, int bytes)
{
    winomc_assert(src >= 0 && src < topo->nodes() && dst >= 0 &&
                  dst < topo->nodes(), "bad packet endpoints");
    winomc_assert(src != dst, "packet to self");
    winomc_assert(bytes > 0, "empty packet");

    int id = int(packets.size());
    int flits = (bytes + cfg.flitBytes - 1) / cfg.flitBytes;
    PacketInfo info;
    info.src = src;
    info.dst = dst;
    info.flits = flits;
    info.injected = cycle;
    packets.push_back(info);
    offeredFlits += uint64_t(flits);
    queuedFlits += uint64_t(flits);

    // Whole packets stay on one lane so wormhole ordering holds.
    size_t lane = size_t(nextLane++) % size_t(cfg.injectionLanes);
    sourceLanes[size_t(src) * size_t(cfg.injectionLanes) + lane]
        .packets.push_back({id, topo->selectVc(src, dst)});
    return id;
}

Network::Bucket &
Network::sendBucket()
{
    return wheel[size_t(cycle + Tick(cfg.hopLatency)) % wheel.size()];
}

void
Network::deliverArrivals()
{
    Bucket &bucket = wheel[size_t(cycle) % wheel.size()];
    for (const CreditArrival &c : bucket.credits) {
        Router &r = routers[size_t(c.node)];
        int &credit = r.credits[size_t(c.index)];
        ++credit;
        winomc_assert(credit <= r.bufDepth, "credit overflow at node ",
                      c.node);
    }
    for (const FlitArrival &a : bucket.flits)
        acceptFlit(routers[size_t(a.node)], a.slot, a.flit);
    linkFlits -= bucket.flits.size();
    bucket.flits.clear();
    bucket.credits.clear();
}

void
Network::acceptFlit(Router &r, int slot, const Flit &f)
{
    if (r.buffered == 0)
        bits::set(activeRouters.data(), r.node);
    r.push(slot, f);
    ++bufferedFlits;
    if (r.count[size_t(slot)] == 1)
        request(r, slot);
}

void
Network::request(Router &r, int slot)
{
    int &out = r.outPort[size_t(slot)];
    if (out == -1) {
        // Route computation at the head flit.
        const Flit &f = r.front(slot);
        winomc_assert(f.head, "body flit with no route at ", r.node);
        const int dst = packets[size_t(f.packet)].dst;
        if (dst == r.node) {
            out = r.netPorts; // egress
            r.outVc[size_t(slot)] = 0;
        } else {
            out = topo->route(r.node, dst);
            r.outVc[size_t(slot)] =
                topo->nextVc(r.node, out, slot % r.vcs);
        }
    }
    bits::set(r.requesters(out), slot);
}

Flit
Network::popFront(Router &r, int slot)
{
    const Flit f = r.pop(slot);
    --bufferedFlits;
    int &out = r.outPort[size_t(slot)];
    if (f.tail || r.count[size_t(slot)] == 0)
        bits::clear(r.requesters(out), slot);
    if (f.tail) {
        out = -1;
        r.outVc[size_t(slot)] = -1;
        if (r.count[size_t(slot)] > 0)
            request(r, slot); // the next packet's head
    }
    return f;
}

void
Network::eject(int node, const Flit &f)
{
    if (f.tail) {
        PacketInfo &pi = packets[size_t(f.packet)];
        pi.ejected = cycle;
        pi.done = true;
        ++ejected;
        latency.add(double(cycle - pi.injected));
    }
    ++ejectedFlits;
    ++totalEjectedFlits;
    ++nodeEjected[size_t(node)];
}

void
Network::creditUpstream(const Router &r, int slot)
{
    const int port = slot / r.vcs;
    if (port >= r.netPorts)
        return; // injection ports have no upstream router
    const size_t at = size_t(r.node) * size_t(r.netPorts) + size_t(port);
    sendBucket().credits.push_back(
        {neighbors[at], peerPorts[at] * r.vcs + slot % r.vcs});
}

void
Network::allocate(Router &r)
{
    const int node = r.node;
    const int egress = r.netPorts;

    // Ejection first: the terminal empties into the NDP's on-chip
    // crossbar (Table III), which is far wider than one serial link, so
    // any number of head flits may eject per cycle. Slots in ascending
    // order, each drained while its front packet is bound here.
    bits::forEach(r.requesters(egress), r.words, [&](int slot) {
        do {
            eject(node, popFront(r, slot));
            creditUpstream(r, slot);
        } while (r.count[size_t(slot)] > 0 &&
                 r.outPort[size_t(slot)] == egress);
    });

    // One grant per network output port per cycle, outputs in
    // ascending order. The round-robin scan starts at rrPtr and visits
    // only the output's requesters; each one it passes over is blocked
    // and counted. A grant takes effect at once, so a tail leaving
    // exposes the next head to the outputs after this one.
    Bucket &send = sendBucket();
    for (int o = 0; o < egress; ++o) {
        const uint64_t *mask = r.requesters(o);
        if (!bits::any(mask, r.words))
            continue;
        bits::scanFrom(mask, r.words, r.rrPtr[size_t(o)], [&](int slot) {
            const int vc = r.outVc[size_t(slot)];
            const size_t ovc = size_t(o) * size_t(r.vcs) + size_t(vc);
            int &owner = r.owner[ovc];
            if (owner != slot && owner != -1) {
                ++holBlocks[size_t(node)];
                return false; // another packet owns this output VC
            }
            if (r.credits[ovc] <= 0) {
                ++creditStalls[size_t(node)];
                return false;
            }
            --r.credits[ovc];
            const Flit f = popFront(r, slot);
            // Wormhole: hold the output VC until the tail passes.
            owner = f.tail ? -1 : slot;

            const size_t link =
                size_t(node) * size_t(r.netPorts) + size_t(o);
            ++linkBusy[link];
            send.flits.push_back(
                {neighbors[link], peerPorts[link] * r.vcs + vc, f});
            ++linkFlits;
            creditUpstream(r, slot);
            r.rrPtr[size_t(o)] = (slot + 1) % r.slots();
            return true;
        });
    }
    if (r.buffered == 0)
        bits::clear(activeRouters.data(), node);
}

void
Network::injection()
{
    const int lanes = cfg.injectionLanes;
    for (int node = 0; node < topo->nodes(); ++node) {
        Router &r = routers[size_t(node)];
        for (int lane = 0; lane < lanes; ++lane) {
            SourceLane &src =
                sourceLanes[size_t(node) * size_t(lanes) + size_t(lane)];
            if (src.packets.empty())
                continue;
            const Queued &e = src.packets.front();
            const int port = r.injectionPort(lane);
            if (!r.hasSpace(port, e.vc))
                continue;
            PacketInfo &pi = packets[size_t(e.packet)];
            Flit f;
            f.packet = e.packet;
            f.head = src.sent == 0;
            f.tail = src.sent == pi.flits - 1;
            if (f.head)
                pi.network_in = cycle;
            acceptFlit(r, r.slotOf(port, e.vc), f);
            ++nodeInjected[size_t(node)];
            --queuedFlits;
            if (f.tail) {
                src.packets.pop_front();
                src.sent = 0;
            } else {
                ++src.sent;
            }
        }
    }
}

void
Network::step()
{
    deliverArrivals();
    bits::forEach(activeRouters.data(), int(activeRouters.size()),
                  [&](int node) { allocate(routers[size_t(node)]); });
    injection();
    if (occupancyHist)
        for (const auto &r : routers)
            occupancyHist->add(double(r.occupancy()));
    ++cycle;
}

void
Network::run(int cycles)
{
    for (int k = 0; k < cycles; ++k)
        step();
}

bool
Network::drain(int max_cycles)
{
    for (int k = 0; k < max_cycles; ++k) {
        if (ejected == packets.size() && flitsInFlight() == 0)
            return true;
        step();
    }
    return ejected == packets.size() && flitsInFlight() == 0;
}

double
Network::acceptedFlitRate() const
{
    Tick elapsed = cycle - statsSince;
    if (elapsed == 0)
        return 0.0;
    return double(ejectedFlits) / double(elapsed) / topo->nodes();
}

void
Network::resetStats()
{
    latency.reset();
    ejectedFlits = 0;
    std::fill(linkBusy.begin(), linkBusy.end(), 0);
    std::fill(nodeInjected.begin(), nodeInjected.end(), 0);
    std::fill(nodeEjected.begin(), nodeEjected.end(), 0);
    std::fill(creditStalls.begin(), creditStalls.end(), 0);
    std::fill(holBlocks.begin(), holBlocks.end(), 0);
    if (occupancyHist)
        occupancyHist->reset();
    statsSince = cycle;
}

size_t
Network::flitsInFlight() const
{
    return size_t(queuedFlits + bufferedFlits + linkFlits);
}

double
Network::linkUtilization(int node, int port) const
{
    Tick elapsed = statsElapsed();
    if (elapsed == 0)
        return 0.0;
    return double(linkBusy[size_t(node) * size_t(topo->ports()) +
                           size_t(port)]) /
           double(elapsed);
}

double
Network::maxLinkUtilization() const
{
    double best = 0.0;
    for (int node = 0; node < topo->nodes(); ++node)
        for (int port = 0; port < topo->ports(); ++port)
            if (neighbors[size_t(node) * size_t(topo->ports()) +
                          size_t(port)] >= 0)
                best = std::max(best, linkUtilization(node, port));
    return best;
}

double
Network::meanLinkUtilization() const
{
    double sum = 0.0;
    int wired = 0;
    for (int node = 0; node < topo->nodes(); ++node)
        for (int port = 0; port < topo->ports(); ++port)
            if (neighbors[size_t(node) * size_t(topo->ports()) +
                          size_t(port)] >= 0) {
                sum += linkUtilization(node, port);
                ++wired;
            }
    return wired ? sum / wired : 0.0;
}

uint64_t
Network::creditStallCount() const
{
    uint64_t n = 0;
    for (uint64_t c : creditStalls)
        n += c;
    return n;
}

uint64_t
Network::holBlockCount() const
{
    uint64_t n = 0;
    for (uint64_t c : holBlocks)
        n += c;
    return n;
}

double
Network::injectionRate(int node) const
{
    Tick elapsed = statsElapsed();
    return elapsed ? double(nodeInjected[size_t(node)]) /
                         double(elapsed)
                   : 0.0;
}

double
Network::ejectionRate(int node) const
{
    Tick elapsed = statsElapsed();
    return elapsed ? double(nodeEjected[size_t(node)]) /
                         double(elapsed)
                   : 0.0;
}

const Histogram &
Network::occupancyHistogram() const
{
    winomc_assert(occupancyHist,
                  "occupancy histogram needs cfg.sampleOccupancy");
    return *occupancyHist;
}

void
Network::exportMetrics(const std::string &prefix) const
{
    if (!metrics::enabled())
        return;
    auto key = [&](const char *suffix) { return prefix + suffix; };

    metrics::counterAdd(key(".flits_offered").c_str(),
                        double(offeredFlits));
    metrics::counterAdd(key(".flits_ejected").c_str(),
                        double(totalEjectedFlits));
    metrics::counterAdd(key(".credit_stall_events").c_str(),
                        double(creditStallCount()));
    metrics::counterAdd(key(".hol_block_events").c_str(),
                        double(holBlockCount()));
    metrics::gaugeSet(key(".cycles").c_str(), double(cycle));
    metrics::gaugeSet(key(".accepted_flit_rate").c_str(),
                      acceptedFlitRate());
    metrics::gaugeSet(key(".link_util_max").c_str(),
                      maxLinkUtilization());
    metrics::gaugeSet(key(".link_util_mean").c_str(),
                      meanLinkUtilization());
    if (latency.count()) {
        metrics::gaugeSet(key(".latency_mean_cycles").c_str(),
                          latency.mean());
        metrics::gaugeSet(key(".latency_max_cycles").c_str(),
                          latency.maximum());
    }

    const std::string util = key(".link_utilization");
    const std::string inj = key(".injection_rate");
    const std::string ej = key(".ejection_rate");
    for (int node = 0; node < topo->nodes(); ++node) {
        for (int port = 0; port < topo->ports(); ++port)
            if (neighbors[size_t(node) * size_t(topo->ports()) +
                          size_t(port)] >= 0)
                metrics::histogramAdd(util.c_str(),
                                      linkUtilization(node, port), 0.0,
                                      1.0, 20);
        metrics::histogramAdd(inj.c_str(), injectionRate(node), 0.0,
                              double(cfg.injectionLanes), 20);
        metrics::histogramAdd(ej.c_str(), ejectionRate(node), 0.0,
                              double(cfg.injectionLanes), 20);
    }
    if (occupancyHist && occupancyHist->count())
        metrics::histogramMerge(key(".router_occupancy").c_str(),
                                *occupancyHist);
}

void
Network::exportTrace(const std::string &label) const
{
    if (!trace::enabled())
        return;
    int pid = trace::allocSimPid();
    trace::namePid(pid, "noc:" + label + " (" + topo->name() + ")");
    // Virtual time: 1 router cycle rendered as 1 us; one track (tid)
    // per source node so concurrent packets stack sensibly.
    for (size_t id = 0; id < packets.size(); ++id) {
        const PacketInfo &pi = packets[id];
        if (!pi.done)
            continue;
        std::string name = "pkt" + std::to_string(id) + " " +
                           std::to_string(pi.src) + "->" +
                           std::to_string(pi.dst);
        double dur = double(pi.ejected - pi.injected);
        trace::emitCompleteAt(name, "noc", double(pi.injected),
                              dur > 0 ? dur : 1.0, pid, pi.src);
    }
}

} // namespace winomc::noc
