/**
 * @file
 * Flit and packet descriptors of the flit-level network simulator.
 */

#ifndef WINOMC_NOC_FLIT_HH
#define WINOMC_NOC_FLIT_HH

#include <cstdint>

#include "common/units.hh"

namespace winomc::noc {

/**
 * One flow-control unit. Packet metadata (destination, size) lives in
 * Network::packets, and the VC a flit occupies is the input VC that
 * buffers it, so a buffered flit carries only its packet and position.
 */
struct Flit
{
    int packet = -1;  ///< owning packet id
    bool head = false;
    bool tail = false;
};

/** Packet bookkeeping (created at injection, finalized at ejection). */
struct PacketInfo
{
    int src = -1;
    int dst = -1;
    int flits = 1;
    Tick injected = 0;   ///< when offered to the source queue
    Tick network_in = 0; ///< when the head flit entered the router
    Tick ejected = 0;
    bool done = false;
};

} // namespace winomc::noc

#endif // WINOMC_NOC_FLIT_HH
