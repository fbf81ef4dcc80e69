/**
 * @file
 * A minimal statistics package in the spirit of gem5's Stats: scalar
 * counters owned by a StatGroup, dumpable as text. The counters are
 * the DS_STAT entries of common/stats_schema.h; models bump them by
 * typed id and benches and tests read them.
 */

#ifndef DEEPSTORE_COMMON_STATS_H
#define DEEPSTORE_COMMON_STATS_H

#include <array>
#include <ostream>
#include <string>

#include "common/stats_schema.h"

namespace deepstore {

/** A scalar statistic (double-valued accumulator). */
class Stat
{
  public:
    void operator+=(double v) { value_ += v; recorded_ = true; }
    void set(double v) { value_ = v; recorded_ = true; }

    double value() const { return value_; }
    /** True once bumped or set; only recorded stats are dumped. */
    bool recorded() const { return recorded_; }

  private:
    double value_ = 0.0;
    bool recorded_ = false;
};

/**
 * One Stat per StatId, e.g. `stats().get(StatId::FlashPageReads) += 1`.
 * A counter never bumped or set stays out of find() and dump(), so
 * the dump lists exactly the counters a run touched.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    Stat &get(StatId id) { return stats_[static_cast<std::size_t>(id)]; }

    /** The stat, or nullptr while it has not been recorded. */
    const Stat *find(StatId id) const
    {
        const Stat &s = stats_[static_cast<std::size_t>(id)];
        return s.recorded() ? &s : nullptr;
    }

    /** Dump "group.stat = value" lines of the recorded stats, sorted
     *  by name. */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    std::array<Stat, kStatCount> stats_{};
};

} // namespace deepstore

#endif // DEEPSTORE_COMMON_STATS_H
