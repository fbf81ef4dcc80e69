/**
 * @file
 * Shared-bandwidth resources with deterministic arbitration.
 *
 * A BandwidthLink models one serializing interconnect — the SSD's
 * DRAM channel, a flash channel bus (the NoC link of the accelerator
 * complex) — as a busy-until horizon that every consumer reserves
 * time on in *event order*: first acquire() call wins the earliest
 * slot, later calls queue behind it (FIFO). Because the event queue
 * itself is deterministic (tick, then insertion order), arbitration
 * is a pure function of the simulated workload — no randomness, no
 * wall-clock, replay-identical.
 *
 * This is the resource that FlashController bus transfers, DfvStream
 * bursts, accelerator weight fetches, QC-probe reads, top-K reduce
 * traffic, and FTL relocation staging all draw from, so contention
 * between any two of them is physical rather than analytic.
 *
 * waitTicks() accumulates the arbitration delay every grant suffered
 * (start - ready); busyTicks() accumulates granted occupancy. Both
 * feed the contention counters on the stats surface.
 */

#ifndef DEEPSTORE_SIM_BANDWIDTH_H
#define DEEPSTORE_SIM_BANDWIDTH_H

#include <cstdint>
#include <string>

#include "common/units.h"

namespace deepstore::sim {

/** One serializing bandwidth resource (see file comment). */
class BandwidthLink
{
  public:
    /**
     * @param name diagnostic label (stats / traces)
     * @param bytes_per_second link bandwidth for byte-sized grants
     */
    BandwidthLink(std::string name, double bytes_per_second);

    /**
     * Reserve the link for a transfer of `bytes`, ready to start at
     * `ready`. Returns the completion tick; the link is busy until
     * then.
     */
    Tick acquire(Tick ready, std::uint64_t bytes);

    /**
     * Reserve the link for an explicit duration (callers that price
     * their own transfer time, e.g. the flash channel's ONFI timing).
     */
    Tick acquireTicks(Tick ready, Tick duration);

    /** Total arbitration wait suffered by all grants so far. */
    Tick waitTicks() const { return wait_; }

    /** Total granted occupancy so far. */
    Tick busyTicks() const { return busy_; }

    /** Grants issued so far. */
    std::uint64_t grants() const { return grants_; }

    /** Bytes moved by byte-sized grants (acquire() only). */
    std::uint64_t bytesCarried() const { return bytes_; }

    const std::string &name() const { return name_; }

    /** Power loss: in-flight reservations die with the capacitors.
     *  Counters survive (they describe the pre-loss epoch). */
    void reset(Tick now) { freeAt_ = now; }

  private:
    std::string name_;
    double bytesPerSecond_;
    Tick freeAt_ = 0;
    Tick wait_ = 0;
    Tick busy_ = 0;
    std::uint64_t grants_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace deepstore::sim

#endif // DEEPSTORE_SIM_BANDWIDTH_H
