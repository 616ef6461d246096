#include "noc/memcentric.hh"

#include "common/logging.hh"
#include "noc/network.hh"

namespace winomc::noc {

MemCentricTopology::MemCentricTopology(int groups, int per_group)
    : ng(groups), nc(per_group)
{
    winomc_assert(groups >= 4 && per_group >= 2,
                  "memcentric needs >= 4 groups and >= 2 per group");
    k = 2;
    while (k * k < groups)
        ++k;
    winomc_assert(k * k == groups,
                  "group count must be square for the 2D butterfly, "
                  "got ", groups);
}

int
MemCentricTopology::ports() const
{
    // Workers use ring(2) + fbfly(2(k-1)) + host(1); the host router
    // needs one port per group. Uniform port count = max of both.
    int worker_ports = 2 + fbflyPorts() + 1;
    return worker_ports > ng ? worker_ports : ng;
}

int
MemCentricTopology::fbflyNeighbor(int group, int p) const
{
    int row = rowOf(group), col = colOf(group);
    if (p < k - 1) {
        int other = p < col ? p : p + 1;
        return row * k + other;
    }
    int q = p - (k - 1);
    int other = q < row ? q : q + 1;
    return other * k + col;
}

int
MemCentricTopology::fbflyRoute(int group, int dst_group) const
{
    int gcol = colOf(group), dcol = colOf(dst_group);
    int grow = rowOf(group), drow = rowOf(dst_group);
    if (gcol != dcol)
        return dcol < gcol ? dcol : dcol - 1;
    winomc_assert(grow != drow, "fbfly route to self");
    return (k - 1) + (drow < grow ? drow : drow - 1);
}

int
MemCentricTopology::neighbor(int node, int port) const
{
    if (node == hostNode())
        return port < ng ? workerAt(port, 0) : -1;

    const int g = groupOf(node), i = indexOf(node);
    if (port == ringCwPort())
        return workerAt(g, (i + 1) % nc);
    if (port == ringCcwPort())
        return workerAt(g, (i + nc - 1) % nc);
    if (port >= fbflyPortBase() && port < fbflyPortBase() + fbflyPorts())
        return workerAt(fbflyNeighbor(g, port - fbflyPortBase()), i);
    if (port == hostPort())
        return i == 0 ? hostNode() : -1;
    return -1;
}

int
MemCentricTopology::peerPort(int node, int port) const
{
    if (node == hostNode())
        return hostPort(); // enters the group head's host port
    const int g = groupOf(node);
    if (port == ringCwPort())
        return ringCcwPort();
    if (port == ringCcwPort())
        return ringCwPort();
    if (port >= fbflyPortBase() &&
        port < fbflyPortBase() + fbflyPorts()) {
        int peer_g = fbflyNeighbor(g, port - fbflyPortBase());
        return fbflyPortBase() + fbflyRoute(peer_g, g);
    }
    if (port == hostPort())
        return g; // host's port toward this group
    winomc_panic("bad memcentric port ", port, " at node ", node);
}

int
MemCentricTopology::route(int cur, int dst) const
{
    winomc_assert(cur != dst, "routing to self");
    winomc_assert(dst >= 0 && dst <= hostNode(), "bad destination");

    if (cur == hostNode())
        return groupOf(dst); // down the host link to dst's group head

    const int g = groupOf(cur), i = indexOf(cur);
    if (dst == hostNode()) {
        // Ring to the group head, then the host link.
        if (i == 0)
            return hostPort();
        int fwd = (0 - i + nc) % nc;
        return fwd <= nc - fwd ? ringCwPort() : ringCcwPort();
    }

    const int dg = groupOf(dst), di = indexOf(dst);
    if (i != di) {
        // Dimension order: fix the in-group index over the ring first.
        int fwd = (di - i + nc) % nc;
        return fwd <= nc - fwd ? ringCwPort() : ringCcwPort();
    }
    winomc_assert(g != dg, "inconsistent route state");
    return fbflyPortBase() + fbflyRoute(g, dg);
}

int
MemCentricTopology::nextVc(int node, int out_port, int cur_vc) const
{
    if (node == hostNode())
        return cur_vc;
    const int i = indexOf(node);
    // Per-group ring dateline between index nc-1 and 0.
    bool crossing = (i == nc - 1 && out_port == ringCwPort()) ||
                    (i == 0 && out_port == ringCcwPort());
    return crossing ? 1 : cur_vc;
}

int
offerFig9Mix(Network &net, const MemCentricTopology &t,
             Fig9Classes classes)
{
    winomc_assert(t.groups() == 16 && t.perGroup() == 16,
                  "the Fig 9 mix runs on 16 groups of 16 workers");
    int sent = 0;
    if (classes.collective) {
        for (int round = 0; round < 24; ++round) {
            for (int g = 0; g < 16; ++g) {
                for (int i = 0; i < 16; ++i) {
                    net.offerPacket(t.workerAt(g, i),
                                    t.workerAt(g, (i + 1) % 16), 256);
                    ++sent;
                }
            }
        }
    }
    if (classes.tiles) {
        for (int round = 0; round < 6; ++round) {
            for (int i = 0; i < 16; ++i) {
                for (int g = 0; g < 16; ++g) {
                    for (int og = 0; og < 16; ++og) {
                        if (og == g)
                            continue;
                        net.offerPacket(t.workerAt(g, i),
                                        t.workerAt(og, i), 64);
                        ++sent;
                    }
                }
            }
        }
    }
    if (classes.host) {
        for (int g = 0; g < 16; ++g) {
            net.offerPacket(t.hostNode(), t.workerAt(g, 5), 64);
            ++sent;
        }
    }
    return sent;
}

} // namespace winomc::noc
