/**
 * @file
 * LBRA and LCRA: automatic failure diagnosis from hardware short-term
 * memory (Section 5.2).
 *
 * The pipeline: instrument the program with LBRLOG/LCRLOG, observe a
 * failure to learn the failure site, attach success-logging sites for
 * that site (reactively, or proactively before release), collect a
 * handful of failure-run and success-run profiles — the paper uses
 * just 10 + 10, which is the source of its diagnosis-latency
 * advantage over sampling approaches — and rank events with the
 * statistical model. The collection is the shared campaign engine
 * (diag/campaign.hh); this layer feeds its profiles to a Ranker.
 */

#ifndef STM_DIAG_AUTO_DIAG_HH
#define STM_DIAG_AUTO_DIAG_HH

#include <cstdint>
#include <vector>

#include "diag/campaign.hh"
#include "diag/scoring.hh"

namespace stm
{

/** Result of one automatic diagnosis. */
struct AutoDiagResult
{
    bool diagnosed = false; //!< enough profiles were collected
    LogSiteId site = kSegfaultSite;
    std::vector<RankedEvent> ranking;

    /** Failing runs whose profiles were used. */
    std::uint64_t failureRunsUsed = 0;
    /**
     * Total failing-workload runs executed — the diagnosis latency in
     * units of "times the failure had to occur / be attempted".
     */
    std::uint64_t failureAttempts = 0;
    std::uint64_t successRunsUsed = 0;
    std::uint64_t successAttempts = 0;

    /** 1-based rank of @p event; 0 if unranked. */
    std::size_t
    positionOf(const EventKey &event, bool absence = false) const
    {
        return scoring::positionOf(ranking, event, absence);
    }
};

/** Run LBRA on a program with the given workloads. */
AutoDiagResult runLbra(ProgramPtr prog, const Workload &failing,
                       const Workload &succeeding,
                       const AutoDiagOptions &opts = {});

/** Run LCRA (uses Conf2 unless opts.log.lcrConfig says otherwise). */
AutoDiagResult runLcra(ProgramPtr prog, const Workload &failing,
                       const Workload &succeeding,
                       const AutoDiagOptions &opts = {});

} // namespace stm

#endif // STM_DIAG_AUTO_DIAG_HH
