/**
 * @file
 * Tests for the kernel-mode MiniVM extensions: privilege levels
 * (Thread::cpl, SysEnter/SysRet/Iret), asynchronous interrupt
 * delivery and its determinism contract, and the driver/kernel bug
 * scenario pack with its filter-direction diagnosis semantics
 * (ring-0-suppressing vs ring-3-suppressing LBR_SELECT, and the LCR's
 * kernel filter).
 */

#include <gtest/gtest.h>

#include <functional>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/event_key.hh"
#include "diag/log_enhance.hh"
#include "hw/msr.hh"
#include "program/builder.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

RunResult
runOnce(ProgramPtr prog, MachineOptions opts = {})
{
    Machine machine(std::move(prog), std::move(opts));
    return machine.run();
}

/** main stores via a ring-0 stub and prints the result. */
ProgramPtr
roundTripProgram()
{
    ProgramBuilder b("cpl-roundtrip");
    b.global("x", 1, {0});
    b.func("main");
    b.movi(r4, 7);
    b.sysEnter("stub");
    b.loadg(r5, "x");
    b.out(r5);
    b.halt();
    b.kernelMode(true);
    b.func("stub");
    b.storeg("x", 0, r4, r6);
    b.sysRet();
    b.kernelMode(false);
    return b.build();
}

/** A branchy single-threaded user program with handler @p body. */
ProgramPtr
interruptedProgram(const std::function<void(ProgramBuilder &)> &body)
{
    ProgramBuilder b("interrupted");
    b.global("acc", 1, {0});
    b.func("main");
    b.movi(r4, 0);
    b.movi(r5, 120);
    b.beginWhile(Cond::Lt, r4, r5, "main loop");
    {
        b.loadg(r6, "acc");
        b.add(r6, r6, r4);
        b.storeg("acc", 0, r6, r7);
        b.movi(r8, 1);
        b.andr(r8, r4, r8);
        b.movi(r9, 0);
        b.beginIf(Cond::Eq, r8, r9, "even round");
        b.addi(r6, r6, 3);
        b.endIf();
        b.addi(r4, r4, 1);
    }
    b.endWhile();
    b.loadg(r6, "acc");
    b.out(r6);
    b.halt();
    b.kernelMode(true);
    b.func("isr");
    body(b);
    b.iret();
    b.kernelMode(false);
    b.setInterruptHandler("isr");
    return b.build();
}

// ---- privilege transitions ----------------------------------------------

TEST(Privilege, SysEnterSysRetRoundTrip)
{
    RunResult r = runOnce(roundTripProgram());
    EXPECT_EQ(r.outcome, RunOutcome::Completed);
    ASSERT_EQ(r.output.size(), 1u);
    // The stub saw main's r4 and its store is visible after sysret.
    EXPECT_EQ(r.output[0], 7);
    EXPECT_GT(r.stats.kernelInstructions, 0u);
}

TEST(Privilege, SysEnterFromRing0Faults)
{
    ProgramBuilder b("nested-sysenter");
    b.func("main");
    b.sysEnter("stub");
    b.halt();
    b.kernelMode(true);
    b.func("stub");
    b.sysEnter("stub2");
    b.sysRet();
    b.func("stub2");
    b.sysRet();
    b.kernelMode(false);
    RunResult r = runOnce(b.build());
    EXPECT_EQ(r.outcome, RunOutcome::SegFault);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("sysenter from ring 0"),
              std::string::npos);
}

TEST(Privilege, SysRetFromRing3Faults)
{
    // A plain near call into ring-0 code does not raise CPL; the
    // stub's sysret then executes at ring 3 and faults.
    ProgramBuilder b("stray-sysret");
    b.func("main");
    b.call("stub");
    b.halt();
    b.kernelMode(true);
    b.func("stub");
    b.sysRet();
    b.kernelMode(false);
    RunResult r = runOnce(b.build());
    EXPECT_EQ(r.outcome, RunOutcome::SegFault);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("sysret from ring 3"),
              std::string::npos);
}

TEST(Privilege, IretOutsideInterruptContextFaults)
{
    ProgramBuilder b("stray-iret");
    b.func("main");
    b.kernelMode(true);
    b.iret();
    b.kernelMode(false);
    b.halt();
    RunResult r = runOnce(b.build());
    EXPECT_EQ(r.outcome, RunOutcome::SegFault);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("iret outside interrupt"),
              std::string::npos);
}

// ---- interrupt handler discipline ---------------------------------------

TEST(Interrupts, HandlerBudgetExhaustionIsAHang)
{
    ProgramPtr prog = interruptedProgram([](ProgramBuilder &b) {
        b.movi(16, 0);
        b.movi(17, 1);
        b.beginWhile(Cond::Lt, 16, 17, "spin forever");
        b.endWhile();
    });
    MachineOptions opts;
    opts.irq.prob = 1.0;
    opts.irq.handlerStepBudget = 64;
    RunResult r = runOnce(prog, opts);
    EXPECT_EQ(r.outcome, RunOutcome::StepLimit);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("step budget"),
              std::string::npos);
}

TEST(Interrupts, DisallowedOpcodeInHandlerFaults)
{
    ProgramPtr prog = interruptedProgram(
        [](ProgramBuilder &b) { b.yield(); });
    MachineOptions opts;
    opts.irq.prob = 1.0;
    RunResult r = runOnce(prog, opts);
    EXPECT_EQ(r.outcome, RunOutcome::SegFault);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(
        r.failure->message.find("not permitted in an interrupt"),
        std::string::npos);
}

TEST(Interrupts, BareRetWithoutFrameInHandlerFaults)
{
    ProgramPtr prog = interruptedProgram(
        [](ProgramBuilder &b) { b.ret(); });
    MachineOptions opts;
    opts.irq.prob = 1.0;
    RunResult r = runOnce(prog, opts);
    EXPECT_EQ(r.outcome, RunOutcome::SegFault);
    ASSERT_TRUE(r.failure.has_value());
    EXPECT_NE(r.failure->message.find("ret without a frame"),
              std::string::npos);
}

TEST(Interrupts, HandlerCallRetWorks)
{
    // Call/ret inside the handler uses the handler-local frame stack.
    ProgramBuilder b("isr-call");
    b.global("acc", 1, {0});
    b.global("ticks", 1, {0});
    b.func("main");
    b.movi(r4, 0);
    b.movi(r5, 40);
    b.beginWhile(Cond::Lt, r4, r5, "main loop");
    b.addi(r4, r4, 1);
    b.endWhile();
    b.halt();
    b.kernelMode(true);
    b.func("isr");
    b.call("isr_helper");
    b.iret();
    b.func("isr_helper");
    b.loadg(16, "ticks");
    b.addi(16, 16, 1);
    b.storeg("ticks", 0, 16, 17);
    b.ret();
    b.kernelMode(false);
    b.setInterruptHandler("isr");
    MachineOptions opts;
    opts.irq.prob = 1.0;
    RunResult r = runOnce(b.build(), opts);
    EXPECT_EQ(r.outcome, RunOutcome::Completed);
}

// ---- delivery semantics ----------------------------------------------------

TEST(Interrupts, DeliveryObservableThroughHandlerEffects)
{
    // Handler emits one output word per activation.
    ProgramPtr noisy = interruptedProgram([](ProgramBuilder &b) {
        b.movi(16, 99);
        b.out(16);
    });
    MachineOptions quietOpts;
    RunResult quiet = runOnce(noisy, quietOpts);
    MachineOptions noisyOpts;
    noisyOpts.irq.prob = 0.2;
    RunResult loud = runOnce(noisy, noisyOpts);
    EXPECT_EQ(quiet.output.size(), 1u);
    EXPECT_GT(loud.output.size(), 10u);
}

TEST(Interrupts, OnlyDeliveredAtUserPrivilege)
{
    // The same loop, run in ring 3 vs inside a ring-0 stub. The
    // handler emits a word per delivery: the ring-0 variant must see
    // drastically fewer activations (only main's few user
    // instructions are delivery points).
    auto build = [](bool in_kernel) {
        ProgramBuilder b(in_kernel ? "k-loop" : "u-loop");
        b.global("acc", 1, {0});
        b.func("main");
        if (in_kernel) {
            b.sysEnter("work");
        } else {
            b.call("work_user");
        }
        b.halt();
        auto emitLoop = [&b]() {
            b.movi(r4, 0);
            b.movi(r5, 200);
            b.beginWhile(Cond::Lt, r4, r5, "work loop");
            {
                b.loadg(r6, "acc");
                b.addi(r6, r6, 1);
                b.storeg("acc", 0, r6, r7);
                b.addi(r4, r4, 1);
            }
            b.endWhile();
        };
        if (in_kernel) {
            b.kernelMode(true);
            b.func("work");
            emitLoop();
            b.sysRet();
            b.kernelMode(false);
        } else {
            b.func("work_user");
            emitLoop();
            b.ret();
        }
        b.kernelMode(true);
        b.func("isr");
        b.movi(16, 1);
        b.out(16);
        b.iret();
        b.kernelMode(false);
        b.setInterruptHandler("isr");
        return b.build();
    };
    MachineOptions opts;
    opts.irq.prob = 0.2;
    RunResult user = runOnce(build(false), opts);
    RunResult kernel = runOnce(build(true), opts);
    EXPECT_EQ(user.outcome, RunOutcome::Completed);
    EXPECT_EQ(kernel.outcome, RunOutcome::Completed);
    EXPECT_GT(user.output.size(), 50u);
    EXPECT_LT(kernel.output.size(), 10u);
}

// ---- the determinism contract -----------------------------------------------

TEST(Interrupts, SameSeedSameResult)
{
    BugSpec bug = corpus::bugById("kirq-race");
    MachineOptions opts = bug.failing.forRun(3);
    RunResult a = runOnce(bug.program, opts);
    RunResult b = runOnce(bug.program, opts);
    EXPECT_EQ(a, b);
}

TEST(Interrupts, FusionInvariant)
{
    BugSpec bug = corpus::bugById("kirq-race");
    MachineOptions opts = bug.failing.forRun(0);
    opts.enableSuperinstructions = false;
    RunResult unfused = runOnce(bug.program, opts);
    opts.enableSuperinstructions = true;
    RunResult fused = runOnce(bug.program, opts);
    EXPECT_EQ(fused, unfused);
    EXPECT_TRUE(unfused.failStop());
}

TEST(Interrupts, NoOpHandlerRunsBitIdenticalToUninterrupted)
{
    // A bare-iret handler must leave the RunResult byte-identical to
    // a run with delivery disabled: no step, quantum, stats, or
    // profile effects — at every quantum.
    ProgramPtr prog =
        interruptedProgram([](ProgramBuilder &) {});
    for (std::uint32_t quantum : {1u, 3u, 50u}) {
        MachineOptions off;
        off.sched.quantum = quantum;
        MachineOptions on = off;
        on.irq.prob = 0.3;
        RunResult quiet = runOnce(prog, off);
        RunResult interrupted = runOnce(prog, on);
        EXPECT_EQ(quiet, interrupted) << "quantum=" << quantum;
    }
}

// ---- the kernel bug pack: workload behavior ---------------------------------

TEST(KernelPack, FailingWorkloadsFailAndSucceedingSucceed)
{
    for (const BugSpec &bug : corpus::kernelBugs()) {
        int failures = 0, successes = 0;
        for (std::uint64_t i = 0; i < 10; ++i) {
            RunResult f = runOnce(bug.program, bug.failing.forRun(i));
            if (bug.failing.isFailure(f))
                ++failures;
            RunResult s =
                runOnce(bug.program, bug.succeeding.forRun(i));
            if (!bug.succeeding.isFailure(s))
                ++successes;
        }
        EXPECT_GE(failures, 4) << bug.id;
        EXPECT_GE(successes, 7) << bug.id;
    }
}

TEST(KernelPack, StormHangsAndPanicCrashes)
{
    BugSpec storm = corpus::bugById("kirq-storm");
    RunResult r = runOnce(storm.program, storm.failing.forRun(0));
    EXPECT_EQ(r.outcome, RunOutcome::StepLimit);

    BugSpec panic = corpus::bugById("kpanic");
    RunResult p = runOnce(panic.program, panic.failing.forRun(0));
    EXPECT_EQ(p.outcome, RunOutcome::ErrorLogged);
    ASSERT_TRUE(p.failure.has_value());
    EXPECT_NE(p.failure->message.find("kernel BUG"),
              std::string::npos);
}

// ---- diagnosis: ring-0 root causes need the kernel-side select --------------

namespace
{

AutoDiagOptions
withSelect(std::uint64_t select)
{
    AutoDiagOptions opts;
    opts.log.lbrSelect = select;
    return opts;
}

std::size_t
lbraRootPosition(const BugSpec &bug, std::uint64_t select)
{
    AutoDiagResult result = runLbra(bug.program, bug.failing,
                                    bug.succeeding,
                                    withSelect(select));
    if (!result.diagnosed)
        return 0;
    return result.positionOf(
        EventKey::sourceBranch(bug.truth.rootCauseBranch,
                               bug.truth.rootCauseOutcome));
}

} // namespace

TEST(KernelDiag, KernelRootCausesRankFirstUnderKernelSelect)
{
    for (const char *id :
         {"kirq-race", "kirq-atomic", "kpanic", "ksys-check",
          "ksysret-leak"}) {
        BugSpec bug = corpus::bugById(id);
        EXPECT_EQ(lbraRootPosition(bug, msr::kKernelLbrSelect), 1u)
            << id;
    }
}

TEST(KernelDiag, KernelRootCausesInvisibleUnderPaperSelect)
{
    // With ring 0 suppressed (the paper's user-space mask) the
    // root-cause branch never reaches any profile: unrankable.
    for (const char *id :
         {"kirq-race", "kirq-atomic", "kpanic", "ksys-check",
          "ksysret-leak"}) {
        BugSpec bug = corpus::bugById(id);
        EXPECT_EQ(lbraRootPosition(bug, msr::kPaperLbrSelect), 0u)
            << id;
    }
}

TEST(KernelDiag, UserRootCausesRankFirstUnderPaperSelect)
{
    for (const char *id : {"kirq-noise", "kirq-storm"}) {
        BugSpec bug = corpus::bugById(id);
        EXPECT_EQ(lbraRootPosition(bug, msr::kPaperLbrSelect), 1u)
            << id;
    }
}

TEST(KernelDiag, RingZeroNoiseDegradesUserRootCauses)
{
    // Let ring-0 branches into the LBR and the handler activity
    // floods the 16-entry window between root cause and failure.
    const std::uint64_t ringsVisible =
        msr::kPaperLbrSelect & ~msr::kLbrFilterRing0;
    BugSpec noise = corpus::bugById("kirq-noise");
    EXPECT_NE(lbraRootPosition(noise, ringsVisible), 1u);
    // The storm's failure profile is nothing but the wedged spin
    // loop: the user root cause is fully evicted.
    BugSpec storm = corpus::bugById("kirq-storm");
    EXPECT_EQ(lbraRootPosition(storm, ringsVisible), 0u);
}

// ---- differential: suppression == structural absence -----------------------

TEST(KernelDiag, RingSuppressionEqualsStructuralAbsence)
{
    // kirq-noise under the ring-0-suppressing paper mask must produce
    // the exact same ranking as its twin program in which the kernel
    // code does not exist at all — same events, same scores, same
    // order.
    BugSpec noisy = corpus::bugById("kirq-noise");
    BugSpec quiet = corpus::bugById("kirq-noise-quiet");
    AutoDiagResult a = runLbra(noisy.program, noisy.failing,
                               noisy.succeeding,
                               withSelect(msr::kPaperLbrSelect));
    AutoDiagResult b = runLbra(quiet.program, quiet.failing,
                               quiet.succeeding,
                               withSelect(msr::kPaperLbrSelect));
    ASSERT_TRUE(a.diagnosed);
    ASSERT_TRUE(b.diagnosed);
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
        EXPECT_EQ(a.ranking[i].event, b.ranking[i].event) << i;
        EXPECT_DOUBLE_EQ(a.ranking[i].score, b.ranking[i].score)
            << i;
    }
}

// ---- LCR: the kernel filter decides TOCTOU visibility -----------------------

TEST(KernelDiag, SyscallUarDiagnosedOnlyWithKernelEventsVisible)
{
    BugSpec bug = corpus::bugById("ksys-uar");
    EventKey fpe = EventKey::coherence(
        layout::codeAddr(bug.truth.fpeInstr), bug.truth.fpeState,
        bug.truth.fpeStore);

    AutoDiagOptions visible;
    visible.log.lcrConfig = lcrConfSpaceConsuming();
    visible.log.lcrConfig.filterKernel = false;
    AutoDiagResult with = runLcra(bug.program, bug.failing,
                                  bug.succeeding, visible);
    ASSERT_TRUE(with.diagnosed);
    EXPECT_EQ(with.positionOf(fpe), 1u);

    // Default LCR configuration suppresses ring-0 events: the
    // failure-predicting access is never recorded.
    AutoDiagOptions filtered;
    filtered.log.lcrConfig = lcrConfSpaceConsuming();
    AutoDiagResult without = runLcra(bug.program, bug.failing,
                                     bug.succeeding, filtered);
    if (without.diagnosed) {
        EXPECT_EQ(without.positionOf(fpe), 0u);
    }
}

} // namespace
} // namespace stm
