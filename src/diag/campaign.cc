#include "diag/campaign.hh"

#include <optional>

#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "obs/trace.hh"
#include "program/cfg.hh"
#include "program/fingerprint.hh"

namespace stm
{

namespace
{

/**
 * The profile to use from one run: prefer a snapshot at @p site with
 * the requested success-site flag, fall back to any snapshot at the
 * site (wrong-output checkpoints execute in both kinds of run with
 * the failure-site flag).
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

/**
 * Where a failing run failed: its failure-logging site (the segfault
 * site for crashes), else the workload's checkpoint hint.
 * @pre run.failure or failing.failureSiteHint
 */
LogSiteId
failureSiteOf(const RunResult &run, const Workload &failing)
{
    if (run.failure)
        return run.failure->site;
    return *failing.failureSiteHint;
}

} // namespace

/**
 * The failure loop is split in two pool batches around the pinning
 * failure: the Reactive scheme re-instruments the program once the
 * failure site is known, and the plan must never change while
 * Machines are in flight. The pool drains between batches.
 */
CampaignOutcome
runCampaign(ProgramPtr prog, const Workload &failing,
            const Workload &succeeding, const AutoDiagOptions &opts,
            bool lbr, const ProfileSink &sink)
{
    CampaignOutcome out;

    // 1. Base log-enhancement instrumentation as a copy-on-write
    // overlay: the Program itself stays immutable for the whole
    // campaign, so pool workers share it without copies and the
    // run cache can address it by one base fingerprint.
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
        transform::applySuccessSites(*prog, plan, cfg, lbr,
                                     transform::SuccessSiteScheme::
                                         Proactive);
    }

    // Runners read the published overlay and fingerprint through
    // these locals; they are reassigned only between pool batches
    // (pool drained), never while Machines are in flight.
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

    // 2. Observe failures; the first one pins the failure site.
    std::uint32_t faultInstr = 0;
    std::uint64_t attempt = 0;
    std::uint64_t failingRunsSeen = 0;

    // Give up early if failures reproduce but never carry a profile
    // at a usable site (silent-corruption bugs).
    auto shouldGiveUp = [&] {
        return failingRunsSeen >=
                   std::uint64_t{5} * opts.failureProfiles + 20 &&
               out.failureRunsUsed == 0;
    };
    auto sinkFailure = [&](const RunResult &run, std::uint64_t i) {
        const ProfileRecord *profile =
            pickProfile(run, kind, out.site, false);
        if (!profile)
            return;
        sink(*profile, i, failing, true);
        ++out.failureRunsUsed;
    };

    // 2a. Pin search: attempts run with the pre-pin instrumentation
    // until the first failure with a usable site stops the batch.
    std::optional<RunResult> pinRun;
    if (opts.failureProfiles > 0) {
        obs::TraceSpan pinSpan(obs::TraceCategory::Diag,
                               obs::TraceId::DiagPinSearch);
        pool.runOrdered(
            0, opts.maxAttempts, failureRunner,
            [&](std::uint64_t i, RunResult &&run) {
                if (shouldGiveUp())
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                ++failingRunsSeen;
                // Silent failures (no fail-stop, no checkpoint hint)
                // leave no profiling location at all — the
                // Apache5/Cherokee/JS2 class.
                if (!run.failure && !failing.failureSiteHint)
                    return true;
                pinRun = std::move(run);
                return false;
            });
    }

    if (pinRun) {
        out.pinned = true;
        out.site = failureSiteOf(*pinRun, failing);
        if (pinRun->failure)
            faultInstr = pinRun->failure->instrIndex;
        // Reactive scheme: now that the failure location is known,
        // instrument its success site (a code patch, or dynamic
        // binary rewriting on the deployed binary). Only the O(sites)
        // overlay is touched — the pool drained before we got here,
        // and the next batch picks up the republished plan.
        if (opts.scheme == transform::SuccessSiteScheme::Reactive) {
            obs::TraceSpan reinstr(obs::TraceCategory::Diag,
                                   obs::TraceId::DiagReinstrument,
                                   out.site);
            transform::applySuccessSites(
                *prog, plan, cfg, lbr,
                transform::SuccessSiteScheme::Reactive, out.site,
                faultInstr);
            publishOverlay();
        }
        sinkFailure(*pinRun, attempt - 1);
        pinRun.reset();
    }

    // 2b. Collect the remaining failure profiles with the (possibly
    // re-instrumented) program.
    if (out.pinned && out.failureRunsUsed < opts.failureProfiles &&
        attempt < opts.maxAttempts) {
        obs::TraceSpan collectSpan(obs::TraceCategory::Diag,
                                   obs::TraceId::DiagFailureCollect);
        pool.runOrdered(
            attempt, opts.maxAttempts - attempt, failureRunner,
            [&](std::uint64_t i, RunResult &&run) {
                if (out.failureRunsUsed >= opts.failureProfiles)
                    return false;
                if (shouldGiveUp())
                    return false;
                attempt = i + 1;
                if (!failing.isFailure(run))
                    return true;
                ++failingRunsSeen;
                if (!run.failure && !failing.failureSiteHint)
                    return true;
                if (failureSiteOf(run, failing) != out.site)
                    return true; // a different failure; diagnosed
                                 // separately
                // Crashes are distinguished by faulting location: a
                // crash at a different instruction is a different
                // failure.
                if (out.site == kSegfaultSite && run.failure &&
                    run.failure->instrIndex != faultInstr) {
                    return true;
                }
                sinkFailure(run, i);
                return true;
            });
    }
    out.failureAttempts = attempt;
    if (!out.pinned || out.failureRunsUsed == 0)
        return out;

    // 3. Collect success-run profiles at the same site.
    if (opts.successProfiles > 0) {
        obs::TraceSpan collectSpan(obs::TraceCategory::Diag,
                                   obs::TraceId::DiagSuccessCollect);
        constexpr std::uint64_t kSuccessSeedBase = 1000000;
        auto successRunner = makeRunner(succeeding, kSuccessSeedBase);
        pool.runOrdered(
            0, opts.maxAttempts, successRunner,
            [&](std::uint64_t i, RunResult &&run) {
                if (out.successRunsUsed >= opts.successProfiles)
                    return false;
                out.successAttempts = i + 1;
                if (succeeding.isFailure(run))
                    return true;
                const ProfileRecord *profile =
                    pickProfile(run, kind, out.site, true);
                if (!profile)
                    return true;
                sink(*profile, kSuccessSeedBase + i, succeeding,
                     false);
                ++out.successRunsUsed;
                return true;
            });
    }
    return out;
}

} // namespace stm
