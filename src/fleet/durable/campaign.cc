#include "fleet/durable/campaign.hh"

#include <memory>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace stm::fleet
{

namespace
{

/**
 * Fix glibc's mmap threshold at its 128 KiB default (process-wide,
 * once). Left dynamic, it rises to the first large block freed, and
 * later multi-megabyte blocks (callers' serialize() images) are
 * carved from the brk heap, which keeps their pages after the free:
 * the same campaigns then peak megabytes apart depending on what the
 * process allocated before. Snapshot file images skip malloc
 * altogether (PageBuffer).
 */
void
mapLargeBlocks()
{
#ifdef __GLIBC__
    static const bool pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    (void)pinned;
#endif
}

} // namespace

std::uint64_t
campaignHash(std::uint64_t seed, std::uint64_t machine,
             std::uint64_t round, std::uint64_t salt)
{
    // splitmix64 over the packed identity: cheap, well-mixed, and
    // stateless — machine m's round-r coin is the same no matter how
    // the fleet is sharded or which collector asks.
    std::uint64_t x = seed ^ (machine * 0x9E3779B97F4A7C15ull) ^
                      (round * 0xC2B2AE3D27D4EB4Full) ^
                      (salt * 0x165667B19E3779F9ull);
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

CampaignPools
buildCampaignPools(const BugSpec &bug, const FleetOptions &opts)
{
    mapLargeBlocks();
    CampaignPools pools;
    FleetCapture capture = captureFleetReports(bug, opts);
    if (!capture.pinned)
        return pools;
    for (RunProfile &report : capture.reports) {
        if (report.failure)
            pools.failures.push_back(std::move(report));
        else
            pools.successes.push_back(std::move(report));
    }
    if (pools.failures.empty() || pools.successes.empty())
        return pools;

    // Golden predictor: the rank-1 event over the full pool. The
    // campaign's clones carry these exact event sets, so a campaign
    // that aggregates enough of both report kinds must converge to
    // the same leader.
    Ranker reference;
    for (const RunProfile &r : pools.failures)
        ingest(reference, r);
    for (const RunProfile &r : pools.successes)
        ingest(reference, r);
    std::vector<RankedEvent> ranking = reference.rank();
    if (ranking.empty())
        return pools;
    pools.golden = ranking.front().event;
    pools.goldenAbsence = ranking.front().absence;
    pools.valid = true;
    return pools;
}

CampaignResult
runDurableCampaign(const CampaignPools &pools,
                   const CampaignOptions &opts)
{
    mapLargeBlocks();
    CampaignResult result;
    std::uint64_t machines = opts.machines == 0 ? 1 : opts.machines;
    unsigned collectors = opts.collectors == 0 ? 1 : opts.collectors;
    // The failure coin: hash < threshold fails. Saturating cast
    // keeps probability 1.0 meaningful.
    double clamped = opts.failureProbability < 0.0 ? 0.0
                     : opts.failureProbability > 1.0
                         ? 1.0
                         : opts.failureProbability;
    std::uint64_t threshold =
        clamped >= 1.0 ? ~std::uint64_t{0}
                       : static_cast<std::uint64_t>(
                             clamped * 18446744073709551616.0);

    std::vector<std::unique_ptr<DurableCollector>> fleet;
    fleet.reserve(collectors);
    for (unsigned c = 0; c < collectors; ++c) {
        DurableOptions durable;
        durable.dir = opts.dir;
        durable.collectorId = c + 1;
        durable.walRotateBytes = opts.walRotateBytes;
        fleet.push_back(std::make_unique<DurableCollector>(durable));
    }

    // Each pool report is encoded once; a machine's report is its
    // prototype's frame restamped with the machine and run seed in
    // one reused buffer.
    auto encodeAll = [](const std::vector<RunProfile> &pool) {
        std::vector<std::vector<std::uint8_t>> frames;
        frames.reserve(pool.size());
        for (const RunProfile &p : pool)
            frames.push_back(serialize(p));
        return frames;
    };
    const std::vector<std::vector<std::uint8_t>> failureFrames =
        encodeAll(pools.failures);
    const std::vector<std::vector<std::uint8_t>> successFrames =
        encodeAll(pools.successes);
    std::vector<std::uint8_t> frame;

    auto ship = [&](const std::vector<std::uint8_t> &proto,
                    std::uint64_t machine, std::uint64_t h) {
        frame.assign(proto.begin(), proto.end());
        restampFrame(frame.data(), frame.size(), machine, h);
        DurableCollector &dest = *fleet[machine % collectors];
        IngestStatus status = dest.ingest(frame);
        ++result.framesSent;
        if (status == IngestStatus::Duplicate)
            ++result.duplicates;
        if (opts.duplicateEvery != 0 &&
            result.framesSent % opts.duplicateEvery == 0) {
            if (dest.ingest(frame) == IngestStatus::Duplicate)
                ++result.duplicates;
            ++result.framesSent;
        }
        return status;
    };

    bool pinned = false;
    std::uint64_t every = opts.successSampleEvery;
    for (std::uint32_t round = 1; round <= opts.maxRounds; ++round) {
        bool instrumented =
            opts.scheme == transform::SuccessSiteScheme::Proactive ||
            pinned;
        // The success sampler picks the machines with
        // (m + round) % every == 0: the first is (-round) mod every,
        // then one every `every` machines.
        std::uint64_t nextSample =
            every == 0 ? ~std::uint64_t{0}
                       : (every - round % every) % every;
        for (std::uint64_t m = 0; m < machines; ++m) {
            bool sampled = m == nextSample;
            if (sampled)
                nextSample += every;
            std::uint64_t coin = campaignHash(opts.seed, m, round, 0);
            if (coin < threshold) {
                // Failure: the crash report always ships.
                const std::vector<std::uint8_t> &proto =
                    failureFrames[coin % failureFrames.size()];
                if (ship(proto, m, coin) == IngestStatus::Accepted)
                    ++result.failureReports;
                if (!pinned) {
                    pinned = true;
                    result.pinRound = round;
                }
            } else if (instrumented && sampled) {
                std::uint64_t h =
                    campaignHash(opts.seed, m, round, 1);
                const std::vector<std::uint8_t> &proto =
                    successFrames[h % successFrames.size()];
                if (ship(proto, m, h) == IngestStatus::Accepted)
                    ++result.successReports;
            }
        }
        // Round boundary: every collector rolls its epoch, then the
        // coordinator merges whatever snapshots are on disk.
        for (auto &collector : fleet)
            collector->rollEpoch();
        MergeResult merged = mergeSnapshotDir(opts.dir);
        result.rounds = round;
        result.mergedReports = merged.merged.reportCount();
        result.snapshotsMerged = merged.filesMerged;
        if (merged.merged.reportCount() != 0) {
            std::vector<RankedEvent> ranking =
                merged.merged.rank(pools.goldenAbsence);
            if (scoring::positionOf(ranking, pools.golden,
                                    pools.goldenAbsence) == 1) {
                result.diagnosed = true;
                result.ranking = std::move(ranking);
                break;
            }
        }
    }

    for (auto &collector : fleet) {
        const StatGroup &s = collector->stats();
        result.walBytes += static_cast<std::uint64_t>(
            s.gaugeValue("wal_bytes"));
        result.snapshotBytes += static_cast<std::uint64_t>(
            s.gaugeValue("snapshot_bytes"));
    }
    if (!result.diagnosed && result.mergedReports != 0) {
        MergeResult merged = mergeSnapshotDir(opts.dir);
        result.ranking = merged.merged.rank(pools.goldenAbsence);
    }
    return result;
}

} // namespace stm::fleet
