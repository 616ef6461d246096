/**
 * @file
 * Input-queued wormhole router with virtual channels and credit-based
 * flow control (Table III: 1 GHz router clock, minimal routing).
 *
 * Per cycle each output port grants at most one flit, chosen round-robin
 * among the input VCs routed to it. A head flit acquires the output VC
 * (wormhole: the packet owns it until the tail passes) and must see a
 * downstream credit; body/tail flits follow the established path.
 *
 * The router keeps its state so that a cycle costs in proportion to
 * the flits it buffers. Input VCs are numbered as slots (slot = port *
 * vcs + vc). Each slot's buffer is a fixed-depth ring in one flat
 * array. Every non-empty slot carries the route of its packet and is
 * set in that output's requester bitmask; the egress (terminal) has a
 * mask of its own. The union of the masks is the set of occupied
 * slots.
 */

#ifndef WINOMC_NOC_ROUTER_HH
#define WINOMC_NOC_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "noc/flit.hh"

namespace winomc::noc {

class Network;

/** Multi-word bitmasks over slots (or nodes), 64 per word. */
namespace bits {

inline int
wordsFor(int n)
{
    return (n + 63) / 64;
}

inline void
set(uint64_t *m, int i)
{
    m[i >> 6] |= uint64_t(1) << (i & 63);
}

inline void
clear(uint64_t *m, int i)
{
    m[i >> 6] &= ~(uint64_t(1) << (i & 63));
}

inline bool
any(const uint64_t *m, int words)
{
    for (int w = 0; w < words; ++w)
        if (m[w])
            return true;
    return false;
}

/** Call fn(i) for every set bit i in ascending order. Each word is
 *  read when the scan reaches it, so fn may change bits it has
 *  already passed. */
template <class Fn>
void
forEach(const uint64_t *m, int words, Fn &&fn)
{
    for (int w = 0; w < words; ++w)
        for (uint64_t b = m[w]; b; b &= b - 1)
            fn(w * 64 + __builtin_ctzll(b));
}

/** Call fn(i) for the set bits in cyclic order from bit `from` until
 *  fn returns true. The mask must not change before fn returns true. */
template <class Fn>
void
scanFrom(const uint64_t *m, int words, int from, Fn &&fn)
{
    auto visit = [&](int w, uint64_t b) {
        for (; b; b &= b - 1)
            if (fn(w * 64 + __builtin_ctzll(b)))
                return true;
        return false;
    };
    const int w0 = from >> 6;
    const uint64_t below = (uint64_t(1) << (from & 63)) - 1;
    if (visit(w0, m[w0] & ~below))
        return;
    for (int w = w0 + 1; w < words; ++w)
        if (visit(w, m[w]))
            return;
    for (int w = 0; w < w0; ++w)
        if (visit(w, m[w]))
            return;
    visit(w0, m[w0] & below);
}

} // namespace bits

/** Per-router state; the Network steps all routers synchronously. */
class Router
{
  public:
    /**
     * @param node       node id
     * @param net_ports  network ports (injection ports follow, egress
     *                   is conceptual)
     * @param vcs        virtual channels per port
     * @param buf_depth  flits of buffering per input VC
     * @param inj_lanes  parallel injection channels
     */
    Router(int node, int net_ports, int vcs, int buf_depth,
           int inj_lanes = 1);

    int inputPorts() const { return netPorts + injLanes; }
    int injectionPort(int lane = 0) const { return netPorts + lane; }

    /** True if input (port, vc) can accept one more flit. */
    bool
    hasSpace(int port, int vc) const
    {
        return count[size_t(slotOf(port, vc))] < bufDepth;
    }

    /** Total buffered flits (for drain checks). */
    size_t occupancy() const { return buffered; }

  private:
    friend class Network;

    int slotOf(int port, int vc) const { return port * vcs + vc; }
    int slots() const { return inputPorts() * vcs; }
    /** Requester mask of network output `out`; out == netPorts is the
     *  egress. */
    uint64_t *requesters(int out) { return req.data() + out * words; }

    const Flit &
    front(int slot) const
    {
        return ring[size_t(slot) * size_t(bufDepth) +
                    size_t(head[size_t(slot)])];
    }
    /** Append a flit to a slot's ring (which must have space). */
    void push(int slot, const Flit &f);
    /** Remove and return a slot's front flit. */
    Flit pop(int slot);

    int node;
    int netPorts;
    int vcs;
    int bufDepth;
    int injLanes;
    int words; ///< 64-bit words per slot mask

    size_t buffered = 0;
    std::vector<Flit> ring;  ///< [slot * bufDepth + i]
    std::vector<int> head;   ///< per slot: ring index of the front flit
    std::vector<int> count;  ///< per slot: buffered flits
    /** Per slot: output port and VC of the packet at the front (set at
     *  its head, kept until its tail leaves), -1 when idle. */
    std::vector<int> outPort;
    std::vector<int> outVc;
    /** [out * vcs + vc]: free downstream slots (network outputs). */
    std::vector<int> credits;
    /** [out * vcs + vc]: slot owning the output VC, or -1. */
    std::vector<int> owner;
    /** Round-robin pointer per network output: the slot the next scan
     *  starts at. */
    std::vector<int> rrPtr;
    /** [out * words + w]: slots whose front packet is routed to `out`
     *  and that hold a flit; out == netPorts is the egress. */
    std::vector<uint64_t> req;
};

} // namespace winomc::noc

#endif // WINOMC_NOC_ROUTER_HH
