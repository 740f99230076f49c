/**
 * @file
 * FleetSim: the end-to-end emulation of the paper's deployment story
 * (Section 5.2, Figure 8) — N production machines, each running the
 * monitored program with its own seeds, reporting LBR/LCR profiles
 * over the wire to the collection service, which feeds the streaming
 * ranker.
 *
 * The pipeline per diagnosis:
 *
 *   1. Capture: the shared campaign engine (diag/campaign.hh)
 *      instruments, pins the failure site, re-instruments under the
 *      Reactive scheme, and collects the profiles — exactly the runs
 *      in-process LBRA/LCRA makes. The fleet's sink tags each profile
 *      with its machine (attempt i runs on machine i mod N) and
 *      replay seed, turning it into a RunProfile report.
 *   2. Transport: every report is serialized to a wire frame and
 *      travels through the Collector (validated, deduplicated,
 *      accounted), which folds it into the Ranker on arrival, via
 *      the ingest functions below.
 *
 * Because the campaign's decisions replay in strict attempt order
 * (exec/run_pool.hh) and the Ranker is order-independent
 * (diag/scoring.hh), the resulting ranking matches the in-process
 * LBRA/LCRA diagnosis run with the same profile budget — the fleet
 * adds transport and aggregation, not semantics.
 */

#ifndef STM_FLEET_FLEET_SIM_HH
#define STM_FLEET_FLEET_SIM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "corpus/bug.hh"
#include "diag/log_enhance.hh"
#include "diag/ranker.hh"
#include "fleet/collector.hh"
#include "program/transform.hh"

namespace stm::fleet
{

/** Configuration of one fleet-collection campaign. */
struct FleetOptions
{
    /** Simulated fleet size: attempt i runs on machine i mod N. */
    std::uint64_t machines = 16;

    /** Failure / success reports to aggregate (the paper's 10+10). */
    std::uint32_t failureProfiles = 10;
    std::uint32_t successProfiles = 10;
    /** Underlying LBRLOG/LCRLOG configuration. */
    LogEnhanceOptions log;
    /** Success-site collection scheme. */
    transform::SuccessSiteScheme scheme =
        transform::SuccessSiteScheme::Reactive;
    /** Score absence predicates (LCRA under Conf1; Section 4.2.2). */
    bool absencePredicates = false;
    /** Budget of runs before giving up. */
    std::uint64_t maxAttempts = 50000;
    /** RunPool workers (0 = defaultJobs()). */
    unsigned jobs = 0;
    /**
     * Hardware record to collect: unset = LBR for sequential
     * entries, LCR for concurrency entries (the auto deployment).
     */
    std::optional<ProfileKind> kind;

    /**
     * Fault injection for the transport: re-send every N-th frame
     * (0 = never), emulating at-least-once delivery. The collector's
     * dedup must make this invisible to the ranking.
     */
    std::uint32_t duplicateEvery = 0;
    /**
     * Fault injection: corrupt one byte of every N-th frame (0 =
     * never). The CRC must reject these; they are re-sent intact,
     * so the ranking is again unaffected.
     */
    std::uint32_t corruptEvery = 0;
};

/** What the fleet captured, before transport. */
struct FleetCapture
{
    bool pinned = false; //!< a failure site was observed
    LogSiteId site = kSegfaultSite;
    /** Machine-tagged reports: failures first batch, then successes. */
    std::vector<RunProfile> reports;
    std::uint64_t failureReports = 0;
    std::uint64_t successReports = 0;
    std::uint64_t failureAttempts = 0;
    std::uint64_t successAttempts = 0;
};

/** Outcome of one fleet diagnosis. */
struct FleetResult
{
    bool diagnosed = false;
    LogSiteId site = kSegfaultSite;
    std::vector<RankedEvent> ranking;

    std::uint64_t failureReports = 0;
    std::uint64_t successReports = 0;
    std::uint64_t failureAttempts = 0;
    std::uint64_t successAttempts = 0;

    /** Transport accounting. */
    std::uint64_t wireBytes = 0;     //!< frame bytes shipped
    std::uint64_t framesSent = 0;    //!< includes retransmissions
    std::uint64_t duplicates = 0;    //!< suppressed by the collector
    std::uint64_t decodeErrors = 0;  //!< rejected by wire validation

    /** 1-based rank of @p event; 0 if unranked. */
    std::size_t
    positionOf(const EventKey &event, bool absence = false) const
    {
        return scoring::positionOf(ranking, event, absence);
    }
};

/**
 * Fold one decoded report into @p ranker: its event set, labelled by
 * its failure flag.
 */
void ingest(Ranker &ranker, const RunProfile &report);

/**
 * Fold one report straight from its wire view (the collector's
 * intake path): records are decoded register-to-register into the
 * event set, never materialized into vectors. Tallies identically to
 * ingest(RunProfile) over the same report.
 */
void ingest(Ranker &ranker, const RunProfileView &report);

/**
 * Run the capture phase only: instrument, pin, and gather the fleet's
 * RunProfiles without transport. The reports vector is deterministic
 * for any worker count; the equivalence tests permute it.
 */
FleetCapture captureFleetReports(const BugSpec &bug,
                                 const FleetOptions &opts = {});

/**
 * Full pipeline: capture, then serialize -> wire -> collector ->
 * ranker. When @p collector_stats is non-null it receives the
 * collector's "fleet.collector" metrics at the end.
 */
FleetResult runFleetDiagnosis(const BugSpec &bug,
                              const FleetOptions &opts = {},
                              StatGroup *collector_stats = nullptr);

} // namespace stm::fleet

#endif // STM_FLEET_FLEET_SIM_HH
