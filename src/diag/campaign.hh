/**
 * @file
 * The diagnosis campaign of Section 5.2 (Figure 8): the one loop
 * behind in-process LBRA/LCRA (diag/auto_diag.hh) and the simulated
 * fleet (fleet/fleet_sim.hh).
 *
 *   1. Instrument the program with LBRLOG/LCRLOG (plus every success
 *      site under the Proactive scheme).
 *   2. Pin: run the failing workload until the first failure with a
 *      usable site. Under the Reactive scheme, patch that site's
 *      success site into the plan.
 *   3. Collect failure profiles at the pinned site (a crash must also
 *      fault at the pinning instruction) until the budget is met.
 *   4. Collect success profiles at the same site from the succeeding
 *      workload.
 *
 * Every usable profile goes to a sink in strict attempt order; the
 * campaign itself never ranks. In-process diagnosis passes a sink
 * that feeds a Ranker; the fleet passes one that turns each profile
 * into a wire report. Runs fan out on a RunPool, but every decision
 * replays in attempt order on the calling thread, so the sink sees
 * the same calls for any worker count.
 */

#ifndef STM_DIAG_CAMPAIGN_HH
#define STM_DIAG_CAMPAIGN_HH

#include <cstdint>
#include <functional>

#include "diag/log_enhance.hh"
#include "diag/workload.hh"
#include "program/program.hh"
#include "program/transform.hh"

namespace stm
{

/** Configuration of one LBRA/LCRA diagnosis campaign. */
struct AutoDiagOptions
{
    /** Success-site collection scheme (Section 5.2). */
    transform::SuccessSiteScheme scheme =
        transform::SuccessSiteScheme::Reactive;
    /** Failure-run profiles to gather (the paper uses 10). */
    std::uint32_t failureProfiles = 10;
    /** Success-run profiles to gather (the paper uses 10). */
    std::uint32_t successProfiles = 10;
    /** Underlying LBRLOG/LCRLOG configuration. */
    LogEnhanceOptions log;
    /**
     * Also score absence predicates ("the profile does NOT contain
     * e"); needed for read-too-early order violations under the
     * space-saving LCR configuration (Section 4.2.2).
     */
    bool absencePredicates = false;
    /** Budget of runs before giving up. */
    std::uint64_t maxAttempts = 50000;
    /**
     * Worker threads for run execution (0 = defaultJobs(): the
     * setDefaultJobs override, else hardware concurrency). Any value
     * produces rankings and attempt counts bit-identical to jobs=1;
     * see exec/run_pool.hh for the determinism contract.
     */
    unsigned jobs = 0;
};

/**
 * Receives one usable profile: @p run is the workload run index
 * (the argument to Workload::forRun) of the run that produced it,
 * and @p failure tells a failure profile from a success profile.
 */
using ProfileSink =
    std::function<void(const ProfileRecord &record, std::uint64_t run,
                       const Workload &workload, bool failure)>;

/** What a campaign observed, apart from the profiles it sank. */
struct CampaignOutcome
{
    bool pinned = false; //!< a failure site was observed
    LogSiteId site = kSegfaultSite;
    /** Failure profiles sunk. */
    std::uint64_t failureRunsUsed = 0;
    /** Failing-workload runs consumed (the diagnosis latency). */
    std::uint64_t failureAttempts = 0;
    /** Success profiles sunk. */
    std::uint64_t successRunsUsed = 0;
    /** Succeeding-workload runs consumed. */
    std::uint64_t successAttempts = 0;
};

/**
 * Run one campaign with LBR (@p lbr) or LCR profiles, handing every
 * usable profile to @p sink. The success phase runs only when at
 * least one failure profile was collected.
 */
CampaignOutcome runCampaign(ProgramPtr prog, const Workload &failing,
                            const Workload &succeeding,
                            const AutoDiagOptions &opts, bool lbr,
                            const ProfileSink &sink);

} // namespace stm

#endif // STM_DIAG_CAMPAIGN_HH
