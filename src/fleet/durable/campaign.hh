/**
 * @file
 * Reactive fleet campaigns over durable collectors: the Figure 8
 * experiment (time to a correct diagnosis vs fleet size, proactive
 * vs reactive success-site collection) at simulated-production
 * scale.
 *
 * A campaign proceeds in rounds. Each round, every one of N
 * simulated machines executes one monitored run; a machine fails
 * with the configured per-run probability (a deterministic hash of
 * seed, machine, and round — no global RNG state, so the schedule is
 * identical for any collector count). Failures always report (the
 * failure-site capture rides the crash report); successes report
 * only when the machine is instrumented for the success site —
 * immediately under the Proactive scheme, only after the pin round
 * under Reactive (the paper's deployed-binary patch) — and are
 * sampled down, as in any real fleet, by the success sampling
 * factor.
 *
 * The reports themselves are real: a capture pool gathered by
 * FleetSim's instrumentation pipeline (real LBR/LCR events of the
 * bug), each encoded once and cloned per reporting machine with its
 * identity restamped (restampFrame), so every machine's report is a
 * distinct wire frame (distinct fingerprint) carrying genuine
 * diagnosis events.
 *
 * Transport is the durable path end to end: machine m's frame goes
 * to collector m % C; at every round boundary each collector rolls
 * its epoch (WAL flush, whole-store snapshot); a coordinator merges
 * all snapshots in the shared directory and ranks. The campaign's
 * diagnosis clock stops at the first round whose *merged* ranking
 * puts the golden predictor at competition rank 1.
 */

#ifndef STM_FLEET_DURABLE_CAMPAIGN_HH
#define STM_FLEET_DURABLE_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/bug.hh"
#include "fleet/durable/durable_collector.hh"
#include "fleet/fleet_sim.hh"

namespace stm::fleet
{

/** The real-report pools a campaign clones machine reports from. */
struct CampaignPools
{
    std::vector<RunProfile> failures;
    std::vector<RunProfile> successes;
    /** Golden predictor: rank-1 event over the whole pool. */
    EventKey golden;
    bool goldenAbsence = false;
    bool valid = false; //!< capture pinned and both pools non-empty
};

/** Campaign configuration. */
struct CampaignOptions
{
    /** Simulated fleet size. */
    std::uint64_t machines = 1000;
    /** Durable collector instances sharding the fleet. */
    unsigned collectors = 2;
    /** Shared durable directory (snapshots + WALs, all collectors). */
    std::string dir;
    /** Success-site collection scheme (the Figure 8 axis). */
    transform::SuccessSiteScheme scheme =
        transform::SuccessSiteScheme::Reactive;
    /** Per machine-round failure probability. */
    double failureProbability = 1e-3;
    /** One in this many machines reports a sampled success a round. */
    std::uint64_t successSampleEvery = 100;
    /** Give up after this many rounds. */
    std::uint32_t maxRounds = 64;
    /** Re-send every N-th frame (0 = never): at-least-once faults. */
    std::uint32_t duplicateEvery = 0;
    /** Deterministic campaign seed. */
    std::uint64_t seed = 1;
    /** WAL rotation for each collector. */
    std::size_t walRotateBytes = std::size_t{4} << 20;
};

/** Outcome of one campaign. */
struct CampaignResult
{
    bool diagnosed = false;
    /** Rounds until the merged ranking is correct (1-based). */
    std::uint32_t rounds = 0;
    /** Round of the first failure report (1-based; 0 = never). */
    std::uint32_t pinRound = 0;

    std::uint64_t framesSent = 0; //!< includes retransmissions
    std::uint64_t failureReports = 0;
    std::uint64_t successReports = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t mergedReports = 0;
    std::uint64_t snapshotsMerged = 0;
    std::uint64_t walBytes = 0;      //!< summed over collectors
    std::uint64_t snapshotBytes = 0; //!< summed over collectors

    std::vector<RankedEvent> ranking; //!< final merged ranking
};

/**
 * Capture the report pools for @p bug through the FleetSim pipeline
 * and determine the golden predictor. One pool serves campaigns at
 * every fleet size (the capture cost is paid once).
 */
CampaignPools buildCampaignPools(const BugSpec &bug,
                                 const FleetOptions &opts = {});

/**
 * Run one durable campaign. @p pools must be valid. The directory
 * opts.dir is created and reused; each collector writes its own
 * snapshot and WAL files into it (file names carry the collector
 * id), and the coordinator merges whatever snapshots it finds.
 */
CampaignResult runDurableCampaign(const CampaignPools &pools,
                                  const CampaignOptions &opts);

/**
 * Deterministic per-(machine, round) hash in [0, 2^64): the
 * campaign's only source of randomness. Exposed so tests can predict
 * the failure schedule.
 */
std::uint64_t campaignHash(std::uint64_t seed, std::uint64_t machine,
                           std::uint64_t round, std::uint64_t salt);

} // namespace stm::fleet

#endif // STM_FLEET_DURABLE_CAMPAIGN_HH
