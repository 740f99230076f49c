#include "fleet/fleet_sim.hh"

#include <optional>

#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "program/cfg.hh"
#include "program/fingerprint.hh"
#include "vm/machine.hh"

namespace stm::fleet
{

namespace
{

/**
 * The profile to use from one run: prefer a snapshot at @p site with
 * the requested success-site flag, fall back to any snapshot at the
 * site (same policy as diag/auto_diag.cc — wrong-output checkpoints
 * execute in both kinds of run with the failure-site flag).
 */
const ProfileRecord *
pickProfile(const RunResult &run, ProfileKind kind, LogSiteId site,
            bool prefer_success_site)
{
    const ProfileRecord *preferred = nullptr;
    const ProfileRecord *fallback = nullptr;
    for (const auto &p : run.profiles) {
        if (p.kind != kind || p.site != site)
            continue;
        if (p.successSite == prefer_success_site)
            preferred = &p;
        else
            fallback = &p;
    }
    return preferred ? preferred : fallback;
}

} // namespace

FleetCapture
captureFleetReports(const BugSpec &bug, const FleetOptions &opts)
{
    FleetCapture capture;
    ProgramPtr prog = bug.program;
    bool lbr = opts.kind ? *opts.kind == ProfileKind::Lbr
                         : !bug.isConcurrent;
    const Workload &failing = bug.failing;
    const Workload &succeeding = bug.succeeding;

    // 1. Base instrumentation as a copy-on-write overlay: the fleet's
    // deployed binary stays immutable; each phase ships an O(sites)
    // plan (and the run cache can recall identical runs by content).
    Instrumentation plan;
    if (lbr) {
        transform::LbrLogPlan logPlan;
        logPlan.lbrSelectMask = opts.log.lbrSelect;
        logPlan.toggling = opts.log.toggling;
        transform::applyLbrLog(*prog, plan, logPlan);
    } else {
        transform::LcrLogPlan logPlan;
        logPlan.lcrConfigMask = opts.log.lcrConfig.pack();
        logPlan.toggling = opts.log.toggling;
        transform::applyLcrLog(*prog, plan, logPlan);
    }
    Cfg cfg(*prog);
    if (opts.scheme == transform::SuccessSiteScheme::Proactive) {
        transform::applySuccessSites(
            *prog, plan, cfg, lbr,
            transform::SuccessSiteScheme::Proactive);
    }

    // Published overlay state, reassigned only between pool batches.
    const std::uint64_t baseFp = fingerprintProgramBase(*prog);
    std::shared_ptr<const Instrumentation> overlay;
    std::uint64_t progFp = 0;
    auto publishOverlay = [&] {
        overlay = std::make_shared<const Instrumentation>(plan);
        progFp = combineFingerprints(
            baseFp, fingerprintInstrumentation(plan));
    };
    publishOverlay();

    ProfileKind kind = lbr ? ProfileKind::Lbr : ProfileKind::Lcr;
    std::uint64_t machines = opts.machines == 0 ? 1 : opts.machines;
    RunPool pool(opts.jobs);

    auto makeRunner = [&](const Workload &workload,
                          std::uint64_t seed_base) {
        MachineOptions proto = workload.forRun(0);
        proto.lbrEntries = opts.log.lbrEntries;
        proto.lcrEntries = opts.log.lcrEntries;
        std::uint64_t optionsFp = fingerprintMachineOptions(proto);
        return [prog, &opts, &workload, seed_base, &overlay, &progFp,
                optionsFp](std::uint64_t i) {
            MachineOptions machineOpts =
                workload.forRun(seed_base + i);
            machineOpts.lbrEntries = opts.log.lbrEntries;
            machineOpts.lcrEntries = opts.log.lcrEntries;
            return memoizedRun(prog, overlay, progFp, optionsFp,
                               machineOpts);
        };
    };
    auto failureRunner = makeRunner(failing, 0);

    /** Attempt i's report identity: machine and replay seed. */
    auto report = [&](const ProfileRecord &record, std::uint64_t i,
                      const Workload &workload, bool failure) {
        capture.reports.push_back(profileOfRecord(
            record, bug.id, i % machines,
            workload.forRun(i).sched.seed, failure));
    };

    // 2a. Pin search: run the fleet until the first failure that
    // carries a usable site.
    std::uint64_t attempt = 0;
    std::uint64_t failingRunsSeen = 0;
    std::uint32_t faultInstr = 0;
    auto shouldGiveUp = [&] {
        return failingRunsSeen >=
                   std::uint64_t{5} * opts.failureProfiles + 20 &&
               capture.failureReports == 0;
    };

    std::optional<std::pair<std::uint64_t, RunResult>> pinRun;
    if (opts.failureProfiles > 0) {
        pool.runOrdered(
            0, opts.maxAttempts, failureRunner,
            [&](std::uint64_t i, RunResult &&run) {
                if (shouldGiveUp())
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                ++failingRunsSeen;
                if (!run.failure && !failing.failureSiteHint)
                    return true;
                pinRun.emplace(i, std::move(run));
                return false;
            });
    }

    if (pinRun) {
        const RunResult &run = pinRun->second;
        LogSiteId site = kSegfaultSite;
        if (run.failure)
            site = run.failure->site;
        else if (failing.failureSiteHint)
            site = *failing.failureSiteHint;
        capture.pinned = true;
        capture.site = site;
        if (run.failure)
            faultInstr = run.failure->instrIndex;
        // Reactive scheme: patch the success site into the deployed
        // binary now that the failure location is known. The pool
        // drained before we got here.
        if (opts.scheme == transform::SuccessSiteScheme::Reactive) {
            if (site == kSegfaultSite) {
                transform::applySuccessSites(
                    *prog, plan, cfg, lbr,
                    transform::SuccessSiteScheme::Reactive,
                    kSegfaultSite, faultInstr);
            } else {
                transform::applySuccessSites(
                    *prog, plan, cfg, lbr,
                    transform::SuccessSiteScheme::Reactive, site);
            }
            publishOverlay();
        }
        const ProfileRecord *profile =
            pickProfile(run, kind, site, false);
        if (profile) {
            report(*profile, pinRun->first, failing, true);
            ++capture.failureReports;
        }
        pinRun.reset();
    }

    // 2b. The rest of the failure reports, from the (possibly
    // re-instrumented) fleet.
    if (capture.pinned &&
        capture.failureReports < opts.failureProfiles &&
        attempt < opts.maxAttempts) {
        pool.runOrdered(
            attempt, opts.maxAttempts - attempt, failureRunner,
            [&](std::uint64_t i, RunResult &&run) {
                if (capture.failureReports >= opts.failureProfiles)
                    return false;
                if (shouldGiveUp())
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                ++failingRunsSeen;
                if (!run.failure && !failing.failureSiteHint)
                    return true;
                LogSiteId site = kSegfaultSite;
                if (run.failure)
                    site = run.failure->site;
                else if (failing.failureSiteHint)
                    site = *failing.failureSiteHint;
                if (site != capture.site)
                    return true; // a different failure
                if (site == kSegfaultSite && run.failure &&
                    run.failure->instrIndex != faultInstr) {
                    return true;
                }
                const ProfileRecord *profile =
                    pickProfile(run, kind, site, false);
                if (!profile)
                    return true;
                report(*profile, i, failing, true);
                ++capture.failureReports;
                return true;
            });
    }
    capture.failureAttempts = attempt;
    if (!capture.pinned || capture.failureReports == 0)
        return capture;

    // 3. Success reports at the same site, from machines running the
    // benign workload.
    if (opts.successProfiles > 0) {
        auto successRunner = makeRunner(succeeding, 1000000);
        pool.runOrdered(
            0, opts.maxAttempts, successRunner,
            [&](std::uint64_t i, RunResult &&run) {
                if (capture.successReports >= opts.successProfiles)
                    return false;
                capture.successAttempts = i + 1;
                if (succeeding.isFailure(run))
                    return true;
                const ProfileRecord *profile = pickProfile(
                    run, kind, capture.site, true);
                if (!profile)
                    return true;
                report(*profile, 1000000 + i, succeeding, false);
                ++capture.successReports;
                return true;
            });
    }
    return capture;
}

FleetResult
runFleetDiagnosis(const BugSpec &bug, const FleetOptions &opts,
                  Collector *collector)
{
    FleetCapture capture = captureFleetReports(bug, opts);

    FleetResult result;
    result.site = capture.site;
    result.failureReports = capture.failureReports;
    result.successReports = capture.successReports;
    result.failureAttempts = capture.failureAttempts;
    result.successAttempts = capture.successAttempts;

    CollectorOptions copts;
    copts.shards = opts.shards;
    copts.shardCapacity = opts.shardCapacity;
    copts.overflow = opts.overflow;
    Collector local(copts);
    Collector &sink = collector ? *collector : local;

    // Transport: every report crosses the wire; injected
    // retransmissions and corruptions exercise dedup and the CRC.
    // The ranker consumes after every frame — the streaming shape a
    // live service has, and what keeps a single-threaded driver from
    // blocking on its own full shard under OverflowPolicy::Block.
    // The drain side is the zero-copy path: each frame is decoded in
    // place from the collector's arena and folded into the ranker
    // without ever materializing a RunProfile.
    IncrementalRanker ranker;
    auto pump = [&] {
        sink.drainViews([&](const RunProfileView &v, std::uint64_t) {
            ranker.ingest(v);
        });
    };
    std::uint64_t sent = 0;
    for (const RunProfile &p : capture.reports) {
        std::vector<std::uint8_t> frame = serialize(p);
        result.wireBytes += frame.size();
        ++sent;
        if (opts.corruptEvery != 0 &&
            sent % opts.corruptEvery == 0) {
            std::vector<std::uint8_t> damaged = frame;
            damaged[damaged.size() / 2] ^= 0x40;
            sink.ingest(damaged);
            ++sent; // the agent re-sends the intact frame
        }
        sink.ingest(frame);
        if (opts.duplicateEvery != 0 &&
            sent % opts.duplicateEvery == 0) {
            sink.ingest(frame);
            ++sent;
        }
        pump();
    }
    result.framesSent = sent;
    pump();
    result.duplicates = sink.stats().value("duplicates");
    result.decodeErrors = sink.stats().value("decode_errors");
    result.dropped = sink.stats().value("dropped");

    if (ranker.failureReports() == 0 || ranker.successReports() == 0)
        return result;
    result.ranking = ranker.rank(opts.absencePredicates);
    result.diagnosed = true;
    return result;
}

} // namespace stm::fleet
