#include "fleet/fleet_sim.hh"

#include <unordered_set>

#include "diag/campaign.hh"

namespace stm::fleet
{

void
ingest(Ranker &ranker, const RunProfile &report)
{
    ranker.addProfile(report.failure,
                      report.kind == ProfileKind::Lbr
                          ? eventsOfLbr(report.lbr)
                          : eventsOfLcr(report.lcr));
}

void
ingest(Ranker &ranker, const RunProfileView &report)
{
    std::set<EventKey> events;
    if (report.kind() == ProfileKind::Lbr) {
        for (std::size_t i = 0; i < report.lbrSize(); ++i)
            events.insert(eventOfBranchRecord(report.lbr(i)));
    } else {
        for (std::size_t i = 0; i < report.lcrSize(); ++i)
            events.insert(eventOfLcrRecord(report.lcr(i)));
    }
    ranker.addProfile(report.failure(), events);
}

FleetCapture
captureFleetReports(const BugSpec &bug, const FleetOptions &opts)
{
    AutoDiagOptions campaignOpts;
    campaignOpts.scheme = opts.scheme;
    campaignOpts.failureProfiles = opts.failureProfiles;
    campaignOpts.successProfiles = opts.successProfiles;
    campaignOpts.log = opts.log;
    campaignOpts.maxAttempts = opts.maxAttempts;
    campaignOpts.jobs = opts.jobs;
    bool lbr = opts.kind ? *opts.kind == ProfileKind::Lbr
                         : !bug.isConcurrent;
    std::uint64_t machines = opts.machines == 0 ? 1 : opts.machines;

    // Run i's report identity: the machine it ran on and its replay
    // seed.
    FleetCapture capture;
    CampaignOutcome campaign = runCampaign(
        bug.program, bug.failing, bug.succeeding, campaignOpts, lbr,
        [&](const ProfileRecord &record, std::uint64_t run,
            const Workload &workload, bool failure) {
            capture.reports.push_back(profileOfRecord(
                record, bug.id, run % machines,
                workload.forRun(run).sched.seed, failure));
        });
    capture.pinned = campaign.pinned;
    capture.site = campaign.site;
    capture.failureReports = campaign.failureRunsUsed;
    capture.successReports = campaign.successRunsUsed;
    capture.failureAttempts = campaign.failureAttempts;
    capture.successAttempts = campaign.successAttempts;
    return capture;
}

FleetResult
runFleetDiagnosis(const BugSpec &bug, const FleetOptions &opts,
                  StatGroup *collector_stats)
{
    FleetCapture capture = captureFleetReports(bug, opts);

    FleetResult result;
    result.site = capture.site;
    result.failureReports = capture.failureReports;
    result.successReports = capture.successReports;
    result.failureAttempts = capture.failureAttempts;
    result.successAttempts = capture.successAttempts;

    // The collector folds each novel report into the ranker on
    // arrival, straight from its wire view, without materializing a
    // RunProfile; the set of prints is its dedup.
    Ranker ranker;
    std::unordered_set<std::uint64_t> seen;
    Collector collector([&](const RunProfileView &v,
                            std::uint64_t print) {
        if (!seen.insert(print).second)
            return false;
        ingest(ranker, v);
        return true;
    });

    // Transport: every report crosses the wire; injected
    // retransmissions and corruptions exercise dedup and the CRC.
    std::uint64_t sent = 0;
    for (const RunProfile &p : capture.reports) {
        std::vector<std::uint8_t> frame = serialize(p);
        result.wireBytes += frame.size();
        ++sent;
        if (opts.corruptEvery != 0 &&
            sent % opts.corruptEvery == 0) {
            std::vector<std::uint8_t> damaged = frame;
            damaged[damaged.size() / 2] ^= 0x40;
            collector.ingest(damaged);
            ++sent; // the agent re-sends the intact frame
        }
        collector.ingest(frame);
        if (opts.duplicateEvery != 0 &&
            sent % opts.duplicateEvery == 0) {
            collector.ingest(frame);
            ++sent;
        }
    }
    result.framesSent = sent;
    result.duplicates = collector.stats().value("duplicates");
    result.decodeErrors = collector.stats().value("decode_errors");
    if (collector_stats)
        *collector_stats = collector.stats();

    if (ranker.failureProfiles() == 0 || ranker.successProfiles() == 0)
        return result;
    result.ranking = ranker.rank(opts.absencePredicates);
    result.diagnosed = true;
    return result;
}

} // namespace stm::fleet
