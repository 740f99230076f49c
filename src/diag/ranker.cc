#include "diag/ranker.hh"

#include "obs/trace.hh"

namespace stm
{

std::vector<RankedEvent>
Ranker::rank(bool include_absence) const
{
    obs::TraceSpan rescore(obs::TraceCategory::Fleet,
                           obs::TraceId::FleetRescore, tallies_.size());
    return scoring::rankTallies(tallies_, failures_, successes_,
                                include_absence);
}

} // namespace stm
