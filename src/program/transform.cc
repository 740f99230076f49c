#include "program/transform.hh"

#include <algorithm>

#include "support/logging.hh"

namespace stm::transform
{

namespace
{

/** Add @p hook to @p hooks unless an identical one is present. */
void
addUnique(std::vector<Hook> &hooks, const Hook &hook)
{
    for (const auto &h : hooks) {
        if (h.action == hook.action && h.site == hook.site &&
            h.successSite == hook.successSite) {
            return;
        }
    }
    hooks.push_back(hook);
}

void
profileAtFailureSites(const Program &prog, Instrumentation &out,
                      HookAction action)
{
    for (const auto &site : prog.logSites) {
        if (!site.failureSite)
            continue;
        addUnique(out.before[site.instrIndex],
                  Hook{action, site.id, false});
    }
}

void
attachSuccessSiteForLogSite(const Program &prog, Instrumentation &out,
                            const Cfg &cfg, HookAction action,
                            const LogSiteInfo &site)
{
    std::uint32_t leader = cfg.blockLeader(site.instrIndex);
    bool attached = false;
    for (const auto &edge : cfg.preds(leader)) {
        std::uint32_t pred = edge.to; // predecessor instruction
        Hook hook{action, site.id, true};
        switch (edge.kind) {
          case EdgeKind::JumpTaken:
            // If the entering jump is the fall-through normalization
            // jump of a conditional, hoist the profile onto the Br
            // itself: Figure 8 places the success-site profile
            // *before the condition is decided*, so it must run on
            // every evaluation, not only on the failing outcome.
            if (prog.code[pred].srcBranch != kNoSourceBranch &&
                pred > 0 && prog.code[pred - 1].op == Opcode::Br &&
                prog.code[pred - 1].srcBranch ==
                    prog.code[pred].srcBranch) {
                addUnique(out.before[pred - 1], hook);
            } else {
                addUnique(out.before[pred], hook);
            }
            attached = true;
            break;
          case EdgeKind::CondTaken:
          case EdgeKind::Call:
            addUnique(out.before[pred], hook);
            attached = true;
            break;
          case EdgeKind::Fallthrough:
          case EdgeKind::Return:
            addUnique(out.after[pred], hook);
            attached = true;
            break;
        }
    }
    if (!attached) {
        warn("program '{}': failure site {} has no predecessors; no "
             "success site attached",
             prog.name, site.id);
    }
}

} // namespace

void
applyLbrLog(const Program &prog, Instrumentation &out,
            const LbrLogPlan &plan)
{
    out.enableLbrAtMain = true;
    out.lbrSelectMask = plan.lbrSelectMask;
    out.toggleLbrAroundLibraries = plan.toggling;
    out.segfaultProfilesLbr = plan.segfaultHandler;
    profileAtFailureSites(prog, out, HookAction::ProfileLbr);
}

void
applyLcrLog(const Program &prog, Instrumentation &out,
            const LcrLogPlan &plan)
{
    out.enableLcrAtMain = true;
    out.lcrConfigMask = plan.lcrConfigMask;
    out.toggleLcrAroundLibraries = plan.toggling;
    out.segfaultProfilesLcr = plan.segfaultHandler;
    profileAtFailureSites(prog, out, HookAction::ProfileLcr);
}

void
applySuccessSites(const Program &prog, Instrumentation &out,
                  const Cfg &cfg, bool lbr, SuccessSiteScheme scheme,
                  LogSiteId observedSite,
                  std::optional<std::uint32_t> faultingInstr)
{
    HookAction action =
        lbr ? HookAction::ProfileLbr : HookAction::ProfileLcr;

    if (scheme == SuccessSiteScheme::Proactive) {
        // Instrument every failure-logging site's success site. The
        // proactive scheme cannot cover segfaults: faults manifest at
        // unexpected locations (Section 5.2).
        for (const auto &site : prog.logSites) {
            if (site.failureSite) {
                attachSuccessSiteForLogSite(prog, out, cfg, action,
                                            site);
            }
        }
        return;
    }

    // Reactive: only the observed failure location.
    if (observedSite == kSegfaultSite) {
        if (!faultingInstr)
            fatal("reactive segfault success site needs the faulting "
                  "instruction");
        if (*faultingInstr >= prog.code.size())
            fatal("faulting instruction {} out of range",
                  *faultingInstr);
        // Success site: right after the instruction that faulted in
        // the failing runs.
        addUnique(out.after[*faultingInstr],
                  Hook{action, kSegfaultSite, true});
        return;
    }

    if (observedSite >= prog.logSites.size())
        fatal("reactive success site: unknown log site {}",
              observedSite);
    attachSuccessSiteForLogSite(prog, out, cfg, action,
                                prog.logSites[observedSite]);
}

void
applyCbi(const Program &prog, Instrumentation &out, double mean_period)
{
    out.cbiEnabled = true;
    out.cbiMeanPeriod = mean_period;
    for (std::uint32_t i = 0; i < prog.code.size(); ++i) {
        const Instruction &inst = prog.code[i];
        if (inst.op == Opcode::Br &&
            inst.srcBranch != kNoSourceBranch) {
            addUnique(out.before[i],
                      Hook{HookAction::CbiSample, inst.srcBranch,
                           false});
        }
    }
}

void
applyCci(Instrumentation &out, double mean_period)
{
    out.cciEnabled = true;
    out.cciMeanPeriod = mean_period;
}

void
applyPbi(Instrumentation &out, std::uint8_t load_mask,
         std::uint8_t store_mask, std::uint64_t period)
{
    out.pbiEnabled = true;
    out.pbiLoadMask = load_mask;
    out.pbiStoreMask = store_mask;
    out.pbiPeriod = period;
}

void
applyBts(Instrumentation &out, std::uint64_t select_mask)
{
    out.btsEnabled = true;
    out.btsSelectMask = select_mask;
}

} // namespace stm::transform
