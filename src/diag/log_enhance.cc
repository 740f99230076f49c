#include "diag/log_enhance.hh"

#include "program/transform.hh"
#include "support/logging.hh"
#include "vm/machine.hh"

namespace stm
{

std::size_t
LbrLogReport::positionOfBranch(SourceBranchId branch) const
{
    for (std::size_t i = 0; i < record.size(); ++i) {
        if (record[i].srcBranch == branch)
            return i + 1;
    }
    return 0;
}

std::size_t
LcrLogReport::positionOfEvent(std::uint32_t instr_index,
                              MesiState state, bool store) const
{
    Addr pc = layout::codeAddr(instr_index);
    for (std::size_t i = 0; i < record.size(); ++i) {
        if (record[i].pc == pc && record[i].observed == state &&
            record[i].store == store) {
            return i + 1;
        }
    }
    return 0;
}

namespace
{

/** Attempts to reproduce a failure before LBRLOG/LCRLOG give up. */
constexpr std::uint64_t kMaxFailureAttempts = 20000;

/** Run the workload until a failing run is seen; returns it. */
std::optional<std::pair<RunResult, std::uint64_t>>
firstFailure(const ProgramPtr &prog,
             const std::shared_ptr<const Instrumentation> &plan,
             const Workload &workload, const LogEnhanceOptions &opts)
{
    for (std::uint64_t attempt = 0; attempt < kMaxFailureAttempts;
         ++attempt) {
        MachineOptions machineOpts = workload.forRun(attempt);
        machineOpts.lbrEntries = opts.lbrEntries;
        machineOpts.lcrEntries = opts.lcrEntries;
        Machine machine(prog, machineOpts, plan);
        RunResult result = machine.run();
        if (workload.isFailure(result))
            return std::make_pair(std::move(result), attempt + 1);
    }
    return std::nullopt;
}

} // namespace

LbrLogReport
runLbrLog(ProgramPtr prog, const Workload &workload,
          const LogEnhanceOptions &opts)
{
    transform::LbrLogPlan logPlan;
    logPlan.lbrSelectMask = opts.lbrSelect;
    logPlan.toggling = opts.toggling;
    logPlan.segfaultHandler = true;
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLbrLog(*prog, *plan, logPlan);

    LbrLogReport report;
    auto failing = firstFailure(prog, plan, workload, opts);
    if (!failing)
        return report;
    report.failed = true;
    report.run = std::move(failing->first);
    report.attempts = failing->second;

    // The LBR record at the failure site. Fail-stop failures without
    // a logging site are captured by the segfault handler;
    // wrong-output failures are read at the workload's checkpoint.
    LogSiteId site = kSegfaultSite;
    if (report.run.failure)
        site = report.run.failure->site;
    else if (workload.failureSiteHint)
        site = *workload.failureSiteHint;
    report.site = site;
    if (const ProfileRecord *profile =
            report.run.lastProfile(ProfileKind::Lbr, site)) {
        report.record = profile->lbr;
    } else if (const ProfileRecord *fault = report.run.lastProfile(
                   ProfileKind::Lbr, kSegfaultSite)) {
        // e.g. a hang interrupted at an arbitrary point.
        report.site = kSegfaultSite;
        report.record = fault->lbr;
    }
    return report;
}

LcrLogReport
runLcrLog(ProgramPtr prog, const Workload &workload,
          const LogEnhanceOptions &opts)
{
    transform::LcrLogPlan logPlan;
    logPlan.lcrConfigMask = opts.lcrConfig.pack();
    logPlan.toggling = opts.toggling;
    logPlan.segfaultHandler = true;
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLcrLog(*prog, *plan, logPlan);

    LcrLogReport report;
    auto failing = firstFailure(prog, plan, workload, opts);
    if (!failing)
        return report;
    report.failed = true;
    report.run = std::move(failing->first);
    report.attempts = failing->second;

    LogSiteId site = kSegfaultSite;
    if (report.run.failure)
        site = report.run.failure->site;
    else if (workload.failureSiteHint)
        site = *workload.failureSiteHint;
    report.site = site;
    if (report.run.failure)
        report.failureThread = report.run.failure->thread;
    if (const ProfileRecord *profile =
            report.run.lastProfile(ProfileKind::Lcr, site)) {
        report.record = profile->lcr;
        report.failureThread = profile->thread;
    } else if (const ProfileRecord *fault = report.run.lastProfile(
                   ProfileKind::Lcr, kSegfaultSite)) {
        report.site = kSegfaultSite;
        report.record = fault->lcr;
        report.failureThread = fault->thread;
    }
    return report;
}

} // namespace stm
