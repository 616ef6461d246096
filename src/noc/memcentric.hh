/**
 * @file
 * The full memory-centric network of Figure 9: N_g groups of N_c
 * workers (default 16 x 16 = 256) plus the host.
 *
 * Wiring:
 *  - a bidirectional ring through the workers of each group (the
 *    full-width links carrying the weight collectives);
 *  - a 2D flattened butterfly across the group-representatives of each
 *    cluster, i.e. the workers sharing an in-group index (the narrow
 *    links carrying tile transfer);
 *  - a host link from worker 0 of every group to the host processor
 *    (used by dynamic clustering to bridge groups, Section IV).
 *
 * Minimal dimension-ordered routing: fix the in-group index over the
 * ring first, then the group over the flattened butterfly; host
 * traffic enters/leaves through the group heads. Ring dateline VCs
 * keep the composite deadlock-free (ring channels depend only on
 * butterfly channels, never the reverse).
 *
 * Note the flit simulator models one link width per network; combined-
 * topology experiments use the narrow width everywhere, which is the
 * conservative choice for tile traffic (the system model accounts for
 * the two classes separately).
 */

#ifndef WINOMC_NOC_MEMCENTRIC_HH
#define WINOMC_NOC_MEMCENTRIC_HH

#include "noc/topology.hh"

namespace winomc::noc {

class Network;

class MemCentricTopology : public Topology
{
  public:
    /**
     * @param groups   worker groups (default 16); must be a square
     *                 number so the cluster butterfly is 2D
     * @param per_group workers per group / ring length (default 16)
     */
    explicit MemCentricTopology(int groups = 16, int per_group = 16);

    std::string name() const override { return "memcentric"; }
    int nodes() const override { return ng * nc + 1; }
    int ports() const override;
    int neighbor(int node, int port) const override;
    int peerPort(int node, int port) const override;
    int route(int cur, int dst) const override;
    int nextVc(int node, int out_port, int cur_vc) const override;
    int vcsNeeded() const override { return 2; }

    int hostNode() const { return ng * nc; }
    int groupOf(int worker) const { return worker / nc; }
    int indexOf(int worker) const { return worker % nc; }
    int workerAt(int group, int index) const { return group * nc + index; }
    int groups() const { return ng; }
    int perGroup() const { return nc; }

    /** Port layout on workers. */
    int ringCwPort() const { return 0; }
    int ringCcwPort() const { return 1; }
    int fbflyPortBase() const { return 2; }
    int fbflyPorts() const { return 2 * (k - 1); }
    int hostPort() const { return 2 + fbflyPorts(); }

  private:
    int rowOf(int group) const { return group / k; }
    int colOf(int group) const { return group % k; }
    /** Output fbfly port at `group` toward `dst_group`. */
    int fbflyRoute(int group, int dst_group) const;
    /** Peer group through fbfly port p. */
    int fbflyNeighbor(int group, int p) const;

    int ng;  ///< groups
    int nc;  ///< workers per group (ring length)
    int k;   ///< butterfly edge: k * k == ng
};

/** The traffic classes of the Fig 9 mix to offer. */
struct Fig9Classes
{
    bool collective; ///< 24 rounds of 256 B to the ring successor
    bool tiles;      ///< 6 rounds of 64 B all-to-all in each cluster
    bool host;       ///< one 64 B control packet to every group
};

/**
 * Offer the Fig 9 mix on the 16 x 16 network, in the order listed in
 * Fig9Classes: ring-neighbor collective chunks inside every group,
 * tile all-to-all among the workers sharing an in-group index, and
 * host control packets to worker 5 of every group.
 * @return packets offered
 */
int offerFig9Mix(Network &net, const MemCentricTopology &t,
                 Fig9Classes classes);

} // namespace winomc::noc

#endif // WINOMC_NOC_MEMCENTRIC_HH
