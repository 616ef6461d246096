#include "noc/router.hh"

#include "common/logging.hh"

namespace winomc::noc {

Router::Router(int node_, int net_ports, int vcs_, int buf_depth,
               int inj_lanes)
    : node(node_), netPorts(net_ports), vcs(vcs_), bufDepth(buf_depth),
      injLanes(inj_lanes), words(bits::wordsFor(slots())),
      ring(size_t(slots()) * size_t(buf_depth)),
      head(size_t(slots()), 0), count(size_t(slots()), 0),
      outPort(size_t(slots()), -1), outVc(size_t(slots()), -1),
      credits(size_t(net_ports) * size_t(vcs_), buf_depth),
      owner(size_t(net_ports) * size_t(vcs_), -1),
      rrPtr(size_t(net_ports), 0),
      req((size_t(net_ports) + 1) * size_t(words), 0)
{
    winomc_assert(inj_lanes >= 1, "need at least one injection lane");
    winomc_assert(buf_depth >= 1, "need at least one flit of buffer");
}

void
Router::push(int slot, const Flit &f)
{
    int &n = count[size_t(slot)];
    winomc_assert(n < bufDepth, "input buffer overflow at node ", node,
                  " port ", slot / vcs, " vc ", slot % vcs);
    int at = head[size_t(slot)] + n;
    if (at >= bufDepth)
        at -= bufDepth;
    ring[size_t(slot) * size_t(bufDepth) + size_t(at)] = f;
    ++n;
    ++buffered;
}

Flit
Router::pop(int slot)
{
    const Flit f = front(slot);
    int &h = head[size_t(slot)];
    if (++h == bufDepth)
        h = 0;
    --count[size_t(slot)];
    --buffered;
    return f;
}

} // namespace winomc::noc
