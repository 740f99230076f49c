#include "diag/ranker.hh"

#include "obs/trace.hh"

namespace stm
{

const std::vector<RankedEvent> &
Ranker::rank(bool include_absence) const
{
    if (!cacheValid_ || cachedAbsence_ != include_absence) {
        obs::TraceSpan rescore(obs::TraceCategory::Fleet,
                               obs::TraceId::FleetRescore,
                               tallies_.size());
        cache_ = scoring::rankTallies(tallies_, failures_, successes_,
                                      include_absence);
        cacheValid_ = true;
        cachedAbsence_ = include_absence;
    }
    return cache_;
}

} // namespace stm
