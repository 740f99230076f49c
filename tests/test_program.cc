/**
 * @file
 * Unit tests for the Program IR accessors, event-key descriptions,
 * the report helpers, and Workload seed derivation.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "diag/event_key.hh"
#include "diag/report.hh"
#include "diag/workload.hh"
#include "program/builder.hh"
#include "support/logging.hh"

namespace stm
{
namespace
{

using namespace regs;

// Programs are shared read-only by every run; plans live beside them.
static_assert(std::is_const_v<ProgramPtr::element_type>);

ProgramPtr
smallProgram()
{
    ProgramBuilder b("small");
    b.file("a.c");
    b.global("g", 2, {1, 2});
    b.line(5);
    b.func("main");
    b.loadg(r1, "g");
    b.movi(r2, 0);
    b.beginIf(Cond::Gt, r1, r2, "g positive");
    b.logError("bad g", "my_log");
    b.endIf();
    b.call("helper");
    b.halt();
    b.file("b.c");
    b.line(9);
    b.func("helper");
    b.logInfo("helper ran");
    b.ret();
    return b.build();
}

TEST(Program, FunctionLookup)
{
    ProgramPtr prog = smallProgram();
    EXPECT_EQ(prog->functionByName("main").entry, prog->entry);
    EXPECT_GT(prog->functionByName("helper").entry, 0u);
    EXPECT_THROW(prog->functionByName("nope"), PanicError);
}

TEST(Program, SymbolLookupAndBounds)
{
    ProgramPtr prog = smallProgram();
    EXPECT_EQ(prog->symbolByName("g").sizeWords, 2u);
    EXPECT_THROW(prog->symbolByName("nope"), PanicError);
    EXPECT_EQ(prog->globalsEnd(),
              prog->symbolAddr("g") + 16);
}

TEST(Program, SiteAndBranchAccessorsValidate)
{
    ProgramPtr prog = smallProgram();
    EXPECT_EQ(prog->logSites.size(), 2u);
    EXPECT_EQ(prog->failureSites().size(), 1u);
    EXPECT_THROW(prog->logSite(99), PanicError);
    EXPECT_THROW(prog->branch(99), PanicError);
}

TEST(Program, FileNamesResolve)
{
    ProgramPtr prog = smallProgram();
    EXPECT_EQ(prog->fileName(0), "a.c");
    EXPECT_EQ(prog->fileName(1), "b.c");
    EXPECT_EQ(prog->fileName(7), "?");
}

TEST(Program, LogSiteMetadata)
{
    ProgramPtr prog = smallProgram();
    const LogSiteInfo &site = *prog->failureSites()[0];
    EXPECT_EQ(site.message, "bad g");
    EXPECT_EQ(site.logFunction, "my_log");
    EXPECT_EQ(prog->code[site.instrIndex].op, Opcode::LogError);
}

// ---- EventKey::describe -----------------------------------------------------

TEST(EventDescribe, SourceBranchShowsNoteAndLocation)
{
    ProgramPtr prog = smallProgram();
    std::string text =
        EventKey::sourceBranch(0, true).describe(*prog);
    EXPECT_NE(text.find("g positive"), std::string::npos);
    EXPECT_NE(text.find("a.c"), std::string::npos);
    EXPECT_NE(text.find("true"), std::string::npos);
}

TEST(EventDescribe, OutOfRangeBranchDegradesGracefully)
{
    ProgramPtr prog = smallProgram();
    std::string text =
        EventKey::sourceBranch(999, false).describe(*prog);
    EXPECT_NE(text.find("branch#999"), std::string::npos);
}

TEST(EventDescribe, RawBranchClassifiesRegions)
{
    ProgramPtr prog = smallProgram();
    EXPECT_NE(EventKey::rawBranch(layout::kLibraryBase + 0x100)
                  .describe(*prog)
                  .find("library branch"),
              std::string::npos);
    EXPECT_NE(EventKey::rawBranch(layout::kKernelText)
                  .describe(*prog)
                  .find("kernel branch"),
              std::string::npos);
}

TEST(EventDescribe, CoherenceMapsPcToSource)
{
    ProgramPtr prog = smallProgram();
    std::string text =
        EventKey::coherence(layout::codeAddr(0),
                            MesiState::Invalid, false)
            .describe(*prog);
    EXPECT_NE(text.find("load observing I"), std::string::npos);
    EXPECT_NE(text.find("a.c:5"), std::string::npos);

    std::string lib =
        EventKey::coherence(layout::kLibraryBase + 8,
                            MesiState::Shared, true)
            .describe(*prog);
    EXPECT_NE(lib.find("store observing S"), std::string::npos);
    EXPECT_NE(lib.find("library/driver"), std::string::npos);
}

// ---- Workload ----------------------------------------------------------------

TEST(Workload, ForRunDerivesDistinctSeeds)
{
    Workload w;
    w.base.sched.seed = 100;
    EXPECT_EQ(w.forRun(0).sched.seed, 100u);
    EXPECT_NE(w.forRun(1).sched.seed, w.forRun(2).sched.seed);
    // Everything else is preserved.
    w.base.maxSteps = 1234;
    w.base.cache.sizeBytes = 4096;
    MachineOptions derived = w.forRun(5);
    EXPECT_EQ(derived.maxSteps, 1234u);
    EXPECT_EQ(derived.cache.sizeBytes, 4096u);
}

TEST(Workload, DefaultLabelIsFailStop)
{
    Workload w;
    RunResult ok;
    ok.outcome = RunOutcome::Completed;
    EXPECT_FALSE(w.isFailure(ok));
    RunResult crash;
    crash.outcome = RunOutcome::SegFault;
    EXPECT_TRUE(w.isFailure(crash));
}

// ---- RunResult helpers ------------------------------------------------------

TEST(RunResult, LastProfilePicksTheNewestMatching)
{
    RunResult run;
    ProfileRecord a;
    a.kind = ProfileKind::Lbr;
    a.site = 3;
    a.step = 1;
    ProfileRecord b;
    b.kind = ProfileKind::Lbr;
    b.site = 3;
    b.step = 2;
    ProfileRecord other;
    other.kind = ProfileKind::Lcr;
    other.site = 3;
    run.profiles = {a, b, other};
    const ProfileRecord *found =
        run.lastProfile(ProfileKind::Lbr, 3);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->step, 2u);
    EXPECT_EQ(run.lastProfile(ProfileKind::Lbr, 9), nullptr);
}

TEST(RunResult, OverheadArithmetic)
{
    RunStats stats;
    stats.userInstructions = 900;
    stats.kernelInstructions = 100;
    stats.instrumentationInstructions = 60;
    stats.setupInstructions = 10;
    EXPECT_DOUBLE_EQ(stats.overhead(), 0.06);
    EXPECT_DOUBLE_EQ(stats.steadyOverhead(), 0.05);
    RunStats empty;
    EXPECT_DOUBLE_EQ(empty.overhead(), 0.0);
}

TEST(RunResult, OutcomeNamesAreStable)
{
    EXPECT_EQ(runOutcomeName(RunOutcome::Completed), "completed");
    EXPECT_EQ(runOutcomeName(RunOutcome::SegFault), "segfault");
    EXPECT_EQ(runOutcomeName(RunOutcome::StepLimit), "hang");
    EXPECT_EQ(runOutcomeName(RunOutcome::Deadlock), "deadlock");
}

} // namespace
} // namespace stm
