/**
 * @file
 * Unit tests for the simulated kernel driver (Figure 7): the ioctl
 * interface, LBR/LCR enable/disable/profile semantics, the exact
 * pollution model of Section 4.3, and the toggling wrappers.
 */

#include <gtest/gtest.h>

#include "driver/kernel_driver.hh"
#include "program/builder.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

/** Run @p prog once under the LBRLOG plan @p logPlan. */
RunResult
runUnderLbrLog(const ProgramPtr &prog, const transform::LbrLogPlan &logPlan)
{
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLbrLog(*prog, *plan, logPlan);
    return Machine(prog, {}, plan).run();
}

/** Run @p prog once under the LCRLOG plan @p logPlan. */
RunResult
runUnderLcrLog(const ProgramPtr &prog, const transform::LcrLogPlan &logPlan)
{
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLcrLog(*prog, *plan, logPlan);
    return Machine(prog, {}, plan).run();
}

/**
 * A program that drives the Figure 7 interface explicitly: reset,
 * configure, enable, do branchy work, disable, profile.
 */
ProgramPtr
figure7Program(std::uint64_t select_mask)
{
    ProgramBuilder b("fig7");
    b.global("mask", 1,
             {static_cast<Word>(select_mask)});
    b.func("main");
    b.loadg(r1, "mask");
    b.syscall(SyscallNo::CleanLbr);
    b.syscall(SyscallNo::ConfigLbr, r1);
    b.syscall(SyscallNo::EnableLbr);
    // Three conditional-branch retirements (plus their fall-through
    // jumps).
    b.movi(r2, 0);
    b.movi(r3, 3);
    b.beginWhile(Cond::Lt, r2, r3);
    b.addi(r2, r2, 1);
    b.endWhile();
    b.syscall(SyscallNo::DisableLbr);
    b.movi(r4, 0); // profile site id 0
    b.syscall(SyscallNo::ProfileLbr, r4);
    b.halt();
    return b.build();
}

TEST(Driver, Figure7InterfaceProducesAProfile)
{
    RunResult result = Machine(figure7Program(0)).run();
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    ASSERT_EQ(result.profiles.size(), 1u);
    const ProfileRecord &p = result.profiles[0];
    EXPECT_EQ(p.kind, ProfileKind::Lbr);
    EXPECT_FALSE(p.lbr.empty());
}

TEST(Driver, UnfilteredProfileSeesKernelAndFarBranches)
{
    RunResult result = Machine(figure7Program(0)).run();
    bool far = false, kernel = false;
    for (const auto &rec : result.profiles[0].lbr) {
        far = far || rec.kind == BranchKind::FarBranch;
        kernel = kernel || rec.kernel;
    }
    EXPECT_TRUE(far);    // the syscall instructions themselves
    EXPECT_TRUE(kernel); // the driver's ring-0 branches
}

TEST(Driver, PaperMaskHidesDriverActivity)
{
    RunResult result =
        Machine(figure7Program(msr::kPaperLbrSelect)).run();
    ASSERT_FALSE(result.profiles.empty());
    for (const auto &rec : result.profiles[0].lbr) {
        EXPECT_FALSE(rec.kernel);
        EXPECT_TRUE(rec.kind == BranchKind::Conditional ||
                    rec.kind == BranchKind::NearRelativeJump)
            << branchKindName(rec.kind);
    }
    // The three loop iterations are all there.
    int conditionals = 0;
    for (const auto &rec : result.profiles[0].lbr) {
        if (rec.kind == BranchKind::Conditional)
            ++conditionals;
    }
    EXPECT_EQ(conditionals, 3);
}

TEST(Driver, ProfileChargesInstrumentationNotBaseline)
{
    ProgramPtr prog = figure7Program(msr::kPaperLbrSelect);
    RunResult result = Machine(prog).run();
    EXPECT_GT(result.stats.instrumentationInstructions, 0u);
}

// ---- LCR pollution model (Section 4.3) ------------------------------------

/** Run a program that fails at an error site under LCRLOG (Conf2). */
RunResult
runLcrProgram()
{
    ProgramBuilder b("lcr");
    b.global("g", 4, {1, 2, 3, 4});
    b.func("main");
    b.loadg(r1, "g", 0);  // cold: invalid load
    b.loadg(r1, "g", 8);  // same line: exclusive load
    b.logError("fail here");
    b.halt();
    transform::LcrLogPlan plan;
    plan.lcrConfigMask = lcrConfSpaceConsuming().pack();
    plan.toggling = false;
    return runUnderLcrLog(b.build(), plan);
}

TEST(Driver, LcrEnablePollutionIsTwoExclusiveReads)
{
    // At the very start of main, enable injects 2 exclusive reads;
    // under Conf2 both are recorded. They are the oldest entries.
    RunResult result = runLcrProgram();
    ASSERT_FALSE(result.profiles.empty());
    const ProfileRecord &p = result.profiles.back();
    ASSERT_GE(p.lcr.size(), 2u);
    // Oldest two = enable pollution (exclusive loads from driver).
    const LcrRecord &oldest = p.lcr[p.lcr.size() - 1];
    const LcrRecord &second = p.lcr[p.lcr.size() - 2];
    EXPECT_EQ(oldest.observed, MesiState::Exclusive);
    EXPECT_EQ(second.observed, MesiState::Exclusive);
    EXPECT_FALSE(oldest.store);
}

TEST(Driver, LcrDisablePollutionTopsTheProfile)
{
    // The profile ioctl disables LCR first, which injects 2 exclusive
    // reads and 1 shared read; under Conf2 the 2 exclusive reads are
    // the newest records.
    RunResult result = runLcrProgram();
    const ProfileRecord &p = result.profiles.back();
    ASSERT_GE(p.lcr.size(), 3u);
    EXPECT_EQ(p.lcr[0].observed, MesiState::Exclusive);
    EXPECT_EQ(p.lcr[1].observed, MesiState::Exclusive);
    // The application's own events follow.
    EXPECT_EQ(p.lcr[2].observed, MesiState::Exclusive); // g[1]
    EXPECT_EQ(p.lcr[3].observed, MesiState::Invalid);   // g[0] cold
}

TEST(Driver, LcrConf1PollutionIsOneSharedRead)
{
    ProgramBuilder b("lcr1");
    b.global("g", 2, {1, 2});
    b.func("main");
    b.loadg(r1, "g", 0);
    b.logError("fail");
    b.halt();
    transform::LcrLogPlan plan;
    plan.lcrConfigMask = lcrConfSpaceSaving().pack();
    plan.toggling = false;
    RunResult result = runUnderLcrLog(b.build(), plan);
    const ProfileRecord &p = result.profiles.back();
    ASSERT_GE(p.lcr.size(), 2u);
    // Under Conf1 only the shared read of the disable pollution
    // lands on top.
    EXPECT_EQ(p.lcr[0].observed, MesiState::Shared);
    EXPECT_EQ(p.lcr[1].observed, MesiState::Invalid); // g[0] cold
}

TEST(Driver, LbrDisableAddsNoUserBranches)
{
    // "Our LBR-disabling code does not contain any user-level
    // branches": the newest LBR entry at a profile is application
    // code, not driver code.
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 0);
    b.movi(r2, 2);
    b.beginWhile(Cond::Lt, r1, r2);
    b.addi(r1, r1, 1);
    b.endWhile();
    b.logError("fail");
    b.halt();
    transform::LbrLogPlan plan;
    plan.lbrSelectMask = msr::kPaperLbrSelect;
    plan.toggling = false;
    RunResult result = runUnderLbrLog(b.build(), plan);
    const ProfileRecord &p = result.profiles.back();
    ASSERT_FALSE(p.lbr.empty());
    EXPECT_LT(p.lbr[0].fromIp, layout::kLibraryBase);
}

// ---- toggling ---------------------------------------------------------------

TEST(Driver, TogglingSuppressesLibraryBranches)
{
    ProgramBuilder b("tog");
    b.func("main");
    b.movi(r1, 10);
    b.libcall(LibFn::Generic); // 10 internal branches
    b.logError("fail");
    b.halt();
    ProgramPtr prog = b.build();
    transform::LbrLogPlan plan;
    plan.lbrSelectMask = msr::kPaperLbrSelect;
    plan.toggling = true;
    RunResult togResult = runUnderLbrLog(prog, plan);
    plan.toggling = false;
    RunResult rawResult = runUnderLbrLog(prog, plan);

    auto libraryRecords = [](const RunResult &r) {
        int n = 0;
        for (const auto &rec : r.profiles.back().lbr) {
            if (rec.fromIp >= layout::kLibraryBase &&
                rec.fromIp < layout::kGlobalBase) {
                ++n;
            }
        }
        return n;
    };
    EXPECT_EQ(libraryRecords(togResult), 0);
    EXPECT_EQ(libraryRecords(rawResult), 10);
}

TEST(Driver, TogglingCostIsInstrumentation)
{
    ProgramBuilder b("tog");
    b.func("main");
    for (int i = 0; i < 5; ++i) {
        b.movi(r1, 1);
        b.libcall(LibFn::Generic);
    }
    b.halt();
    ProgramPtr prog = b.build();
    transform::LbrLogPlan plan;
    plan.lbrSelectMask = msr::kPaperLbrSelect;
    plan.toggling = true;
    RunResult tog = runUnderLbrLog(prog, plan);
    plan.toggling = false;
    RunResult raw = runUnderLbrLog(prog, plan);

    EXPECT_GT(tog.stats.steadyOverhead(),
              raw.stats.steadyOverhead());
    // Baseline work is identical: instrumentation is accounted
    // separately from the program's own instructions.
    EXPECT_EQ(tog.stats.userInstructions,
              raw.stats.userInstructions);
}

TEST(Driver, TraditionalLoggingCostOrdering)
{
    // Section 5.3: profile << call stack << core dump.
    ProgramBuilder b("t");
    b.func("main");
    b.syscall(SyscallNo::LogCallStack);
    b.syscall(SyscallNo::DumpCore);
    b.halt();
    RunResult result = Machine(b.build()).run();
    driver::TraditionalLoggingCost cost;
    EXPECT_GE(result.stats.kernelInstructions,
              cost.callStackInstructions +
                  cost.coreDumpInstructions);
    EXPECT_GT(cost.coreDumpInstructions,
              100 * cost.callStackInstructions);
}

} // namespace
} // namespace stm
