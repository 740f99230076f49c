/**
 * @file
 * Unit tests for the instrumentation transforms: LBRLOG/LCRLOG hook
 * placement, the Figure 8 success-site rules (including hoisting onto
 * the guarding branch), CBI instrumentation, and the copy-on-write
 * contract: a plan is built beside an immutable Program and never
 * leaks into it.
 */

#include <gtest/gtest.h>

#include <memory>

#include "program/builder.hh"
#include "program/cfg.hh"
#include "program/fingerprint.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

struct GuardedProgram
{
    ProgramPtr prog;
    LogSiteId site = 0;
    std::uint32_t guardBr = 0; //!< index of the guarding Br
};

/** if (x == 1) { error(); }  — the Figure 8 shape. */
GuardedProgram
guardedErrorProgram()
{
    GuardedProgram out;
    ProgramBuilder b("guarded");
    b.global("x", 1, {0});
    b.func("main");
    b.loadg(r1, "x");
    b.movi(r2, 1);
    SourceBranchId id = b.beginIf(Cond::Eq, r1, r2, "x == 1");
    out.site = b.logError("guarded failure");
    b.endIf();
    b.halt();
    out.prog = b.build();
    out.guardBr = out.prog->branch(id).brIndex;
    return out;
}

TEST(Transform, LbrLogAttachesProfileAtFailureSites)
{
    GuardedProgram gp = guardedErrorProgram();
    transform::LbrLogPlan plan;
    plan.lbrSelectMask = msr::kPaperLbrSelect;
    Instrumentation instr;
    transform::applyLbrLog(*gp.prog, instr, plan);

    EXPECT_TRUE(instr.enableLbrAtMain);
    EXPECT_TRUE(instr.segfaultProfilesLbr);
    EXPECT_TRUE(instr.toggleLbrAroundLibraries);
    std::uint32_t siteIdx = gp.prog->logSite(gp.site).instrIndex;
    ASSERT_TRUE(instr.before.count(siteIdx));
    EXPECT_EQ(instr.before.at(siteIdx)[0].action,
              HookAction::ProfileLbr);
    EXPECT_FALSE(instr.before.at(siteIdx)[0].successSite);
}

TEST(Transform, SuccessSiteHoistsOntoTheGuardingBranch)
{
    // Figure 8: the success-site profile must execute on every
    // evaluation of the condition, i.e. on the Br itself, not on the
    // conditional normalization jump into the failure block.
    GuardedProgram gp = guardedErrorProgram();
    transform::LbrLogPlan plan;
    plan.lbrSelectMask = msr::kPaperLbrSelect;
    Instrumentation instr;
    transform::applyLbrLog(*gp.prog, instr, plan);
    Cfg cfg(*gp.prog);
    transform::applySuccessSites(
        *gp.prog, instr, cfg, true,
        transform::SuccessSiteScheme::Reactive, gp.site);

    ASSERT_TRUE(instr.before.count(gp.guardBr));
    bool successHook = false;
    for (const auto &hook : instr.before.at(gp.guardBr)) {
        successHook = successHook ||
                      (hook.action == HookAction::ProfileLbr &&
                       hook.successSite);
    }
    EXPECT_TRUE(successHook);
}

TEST(Transform, SuccessSiteProfilesInSuccessfulRuns)
{
    GuardedProgram gp = guardedErrorProgram();
    transform::LbrLogPlan logPlan;
    logPlan.lbrSelectMask = msr::kPaperLbrSelect;
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLbrLog(*gp.prog, *plan, logPlan);
    Cfg cfg(*gp.prog);
    transform::applySuccessSites(
        *gp.prog, *plan, cfg, true,
        transform::SuccessSiteScheme::Reactive, gp.site);

    // x == 0: the branch is evaluated (false), the run succeeds, and
    // a success-site profile exists.
    RunResult ok = Machine(gp.prog, {}, plan).run();
    EXPECT_EQ(ok.outcome, RunOutcome::Completed);
    bool successProfile = false;
    for (const auto &p : ok.profiles)
        successProfile = successProfile || p.successSite;
    EXPECT_TRUE(successProfile);

    // x == 1: both the success-site and the failure-site profiles.
    MachineOptions failOpts;
    failOpts.globalOverrides = {{"x", {1}}};
    RunResult bad = Machine(gp.prog, failOpts, plan).run();
    EXPECT_EQ(bad.outcome, RunOutcome::ErrorLogged);
    bool failureProfile = false;
    for (const auto &p : bad.profiles)
        failureProfile = failureProfile || !p.successSite;
    EXPECT_TRUE(failureProfile);
}

TEST(Transform, ReactiveSegfaultSiteIsAfterTheFaultingInstr)
{
    ProgramBuilder b("segv");
    b.global("p", 1, {0});
    b.func("main");
    b.loadg(r1, "p");
    std::uint32_t faulting = b.load(r2, r1, 0); // NULL deref when p=0
    b.out(r2);
    b.halt();
    ProgramPtr prog = b.build();
    transform::LbrLogPlan logPlan;
    logPlan.lbrSelectMask = msr::kPaperLbrSelect;
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLbrLog(*prog, *plan, logPlan);
    Cfg cfg(*prog);
    transform::applySuccessSites(
        *prog, *plan, cfg, true, transform::SuccessSiteScheme::Reactive,
        kSegfaultSite, faulting);

    ASSERT_TRUE(plan->after.count(faulting));

    // Healthy pointer: the after-hook yields a success profile.
    MachineOptions opts;
    opts.globalOverrides = {{"p", {static_cast<Word>(
                                     layout::kGlobalBase)}}};
    RunResult ok = Machine(prog, opts, plan).run();
    EXPECT_EQ(ok.outcome, RunOutcome::Completed);
    bool successProfile = false;
    for (const auto &p : ok.profiles) {
        successProfile =
            successProfile || (p.successSite &&
                               p.site == kSegfaultSite);
    }
    EXPECT_TRUE(successProfile);

    // NULL pointer: the segfault handler profiles at the crash.
    RunResult bad = Machine(prog, {}, plan).run();
    EXPECT_EQ(bad.outcome, RunOutcome::SegFault);
    bool faultProfile = false;
    for (const auto &p : bad.profiles) {
        faultProfile = faultProfile ||
                       (!p.successSite && p.site == kSegfaultSite);
    }
    EXPECT_TRUE(faultProfile);
}

TEST(Transform, ProactiveCoversAllFailureSites)
{
    ProgramBuilder b("multi");
    b.global("x", 1, {0});
    b.func("main");
    b.loadg(r1, "x");
    b.movi(r2, 1);
    b.beginIf(Cond::Eq, r1, r2);
    b.logError("site 0");
    b.endIf();
    b.movi(r2, 2);
    b.beginIf(Cond::Eq, r1, r2);
    b.logError("site 1");
    b.endIf();
    b.logInfo("not a failure site");
    b.halt();
    ProgramPtr prog = b.build();
    transform::LbrLogPlan logPlan;
    logPlan.lbrSelectMask = msr::kPaperLbrSelect;
    Instrumentation plan;
    transform::applyLbrLog(*prog, plan, logPlan);
    Cfg cfg(*prog);
    transform::applySuccessSites(
        *prog, plan, cfg, true, transform::SuccessSiteScheme::Proactive);

    int successHooks = 0;
    for (const auto &[idx, hooks] : plan.before) {
        for (const auto &hook : hooks)
            successHooks += hook.successSite ? 1 : 0;
    }
    EXPECT_EQ(successHooks, 2); // one per failure site, none for info
}

TEST(Transform, CbiInstrumentsEverySourceConditional)
{
    GuardedProgram gp = guardedErrorProgram();
    Instrumentation instr;
    transform::applyCbi(*gp.prog, instr, 100.0);
    EXPECT_TRUE(instr.cbiEnabled);
    int cbiHooks = 0;
    for (const auto &[idx, hooks] : instr.before) {
        for (const auto &hook : hooks) {
            if (hook.action == HookAction::CbiSample) {
                ++cbiHooks;
                EXPECT_EQ(gp.prog->code[idx].op, Opcode::Br);
            }
        }
    }
    EXPECT_EQ(cbiHooks,
              static_cast<int>(gp.prog->branches.size()));
}

TEST(Transform, HooksAreIdempotent)
{
    GuardedProgram gp = guardedErrorProgram();
    transform::LbrLogPlan logPlan;
    logPlan.lbrSelectMask = msr::kPaperLbrSelect;
    Instrumentation plan;
    transform::applyLbrLog(*gp.prog, plan, logPlan);
    transform::applyLbrLog(*gp.prog, plan, logPlan); // re-apply
    std::uint32_t siteIdx = gp.prog->logSite(gp.site).instrIndex;
    EXPECT_EQ(plan.before.at(siteIdx).size(), 1u);
}

// ---- the copy-on-write plan contract --------------------------------------

TEST(TransformOverlay, OverlayLeavesTheBaseProgramUntouched)
{
    GuardedProgram gp = guardedErrorProgram();
    const std::uint64_t baseFp = fingerprintProgramBase(*gp.prog);
    const std::uint64_t fullFp =
        fingerprintProgram(*gp.prog, Instrumentation{});

    Instrumentation plan;
    transform::LbrLogPlan lbr;
    lbr.lbrSelectMask = msr::kPaperLbrSelect;
    transform::applyLbrLog(*gp.prog, plan, lbr);
    transform::applyCbi(*gp.prog, plan);

    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(fingerprintProgramBase(*gp.prog), baseFp);
    EXPECT_EQ(fingerprintProgram(*gp.prog, Instrumentation{}), fullFp);
    EXPECT_NE(fingerprintProgram(*gp.prog, plan), fullFp);

    // A run without a plan is still uninstrumented.
    MachineOptions failOpts;
    failOpts.globalOverrides = {{"x", {1}}};
    RunResult bare = Machine(gp.prog, failOpts).run();
    EXPECT_EQ(bare.outcome, RunOutcome::ErrorLogged);
    EXPECT_TRUE(bare.profiles.empty());
    EXPECT_TRUE(bare.cbiSiteSamples.empty());
    EXPECT_EQ(bare.stats.instrumentationInstructions, 0u);
}

TEST(TransformOverlay, ClearRestoresTheBaseFingerprint)
{
    GuardedProgram gp = guardedErrorProgram();
    const std::uint64_t emptyFp =
        fingerprintProgram(*gp.prog, Instrumentation{});

    Instrumentation plan;
    transform::LbrLogPlan lbr;
    lbr.lbrSelectMask = msr::kPaperLbrSelect;
    transform::applyLbrLog(*gp.prog, plan, lbr);
    Cfg cfg(*gp.prog);
    transform::applySuccessSites(
        *gp.prog, plan, cfg, true,
        transform::SuccessSiteScheme::Reactive, gp.site);
    EXPECT_NE(fingerprintProgram(*gp.prog, plan), emptyFp);

    plan = Instrumentation{};
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(fingerprintProgram(*gp.prog, plan), emptyFp);
}

TEST(TransformOverlay, TwoOverlaysOnOneBaseAreIndependent)
{
    GuardedProgram gp = guardedErrorProgram();
    auto lbrPlan = std::make_shared<Instrumentation>();
    transform::LbrLogPlan lbr;
    lbr.lbrSelectMask = msr::kPaperLbrSelect;
    transform::applyLbrLog(*gp.prog, *lbrPlan, lbr);

    auto cbiPlan = std::make_shared<Instrumentation>();
    transform::applyCbi(*gp.prog, *cbiPlan, 1.0);

    EXPECT_NE(fingerprintInstrumentation(*lbrPlan),
              fingerprintInstrumentation(*cbiPlan));

    // Each overlay drives a Machine on the same untouched base, and
    // each sees only its own hooks.
    MachineOptions failOpts;
    failOpts.globalOverrides = {{"x", {1}}};
    RunResult lbrRun = Machine(gp.prog, failOpts, lbrPlan).run();
    RunResult cbiRun = Machine(gp.prog, failOpts, cbiPlan).run();
    EXPECT_FALSE(lbrRun.profiles.empty());
    EXPECT_TRUE(lbrRun.cbiSiteSamples.empty());
    EXPECT_FALSE(cbiRun.cbiSiteSamples.empty());
    EXPECT_TRUE(cbiRun.profiles.empty());

    // Neither plan leaked into the base.
    RunResult bare = Machine(gp.prog, failOpts).run();
    EXPECT_TRUE(bare.profiles.empty());
    EXPECT_TRUE(bare.cbiSiteSamples.empty());
    EXPECT_EQ(bare.stats.instrumentationInstructions, 0u);
}

TEST(Transform, CbiSamplingObservesPredicates)
{
    // With a mean period of 1 every branch execution is sampled.
    GuardedProgram gp = guardedErrorProgram();
    auto plan = std::make_shared<Instrumentation>();
    transform::applyCbi(*gp.prog, *plan, 1.0);
    RunResult result = Machine(gp.prog, {}, plan).run();
    EXPECT_FALSE(result.cbiSiteSamples.empty());
    // x == 0: the guard evaluated false.
    bool sawFalse = false;
    for (const auto &[pred, count] : result.cbiCounts) {
        if (!pred.second && count > 0)
            sawFalse = true;
    }
    EXPECT_TRUE(sawFalse);
}

} // namespace
} // namespace stm
