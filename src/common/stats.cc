#include "common/stats.h"

namespace deepstore {

void
StatGroup::dump(std::ostream &os) const
{
    // StatId order is byte-wise name order (checked in the schema).
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    for (std::size_t i = 0; i < kStatCount; ++i) {
        if (stats_[i].recorded())
            os << prefix << kStatNames[i] << " = " << stats_[i].value()
               << "\n";
    }
}

} // namespace deepstore
