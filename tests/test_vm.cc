/**
 * @file
 * Unit tests for the MiniVM machine: instruction semantics, memory
 * protection, threads and synchronization, scheduling determinism,
 * failure detection, and library-call semantics.
 */

#include <gtest/gtest.h>

#include "program/builder.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

/** Build, run, return the result. */
RunResult
runProgram(ProgramPtr prog, MachineOptions opts = {})
{
    Machine machine(std::move(prog), std::move(opts));
    return machine.run();
}

// ---- arithmetic and data flow --------------------------------------------

TEST(Vm, ArithmeticPipeline)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 10);
    b.movi(r2, 3);
    b.add(r3, r1, r2);  // 13
    b.sub(r4, r1, r2);  // 7
    b.mul(r5, r1, r2);  // 30
    b.div(r6, r1, r2);  // 3
    b.mod(r7, r1, r2);  // 1
    b.andr(r8, r1, r2); // 2
    b.orr(r9, r1, r2);  // 11
    b.xorr(r10, r1, r2); // 9
    b.addi(r11, r1, -4); // 6
    for (RegId r : {r3, r4, r5, r6, r7, r8, r9, r10, r11})
        b.out(r);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output,
              (std::vector<Word>{13, 7, 30, 3, 1, 2, 11, 9, 6}));
}

TEST(Vm, ShiftsAndUnary)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 5);
    b.movi(r2, 2);
    b.shl(r3, r1, r2); // 20
    b.shr(r4, r3, r2); // 5
    b.notr(r5, r1);    // ~5
    b.neg(r6, r1);     // -5
    b.out(r3);
    b.out(r4);
    b.out(r5);
    b.out(r6);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{20, 5, ~5, -5}));
}

TEST(Vm, DivisionByZeroIsArithmeticFault)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 1);
    b.movi(r2, 0);
    b.div(r3, r1, r2);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::ArithmeticFault);
    ASSERT_TRUE(result.failure.has_value());
}

// ---- memory -----------------------------------------------------------------

TEST(Vm, GlobalsInitializedAndAddressable)
{
    ProgramBuilder b("t");
    b.global("g", 3, {7, 8, 9});
    b.func("main");
    b.loadg(r1, "g", 0);
    b.loadg(r2, "g", 8);
    b.loadg(r3, "g", 16);
    b.out(r1);
    b.out(r2);
    b.out(r3);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{7, 8, 9}));
}

TEST(Vm, GlobalOverridesAreWorkloadInputs)
{
    ProgramBuilder b("t");
    b.global("g", 2, {1, 2});
    b.func("main");
    b.loadg(r1, "g", 8);
    b.out(r1);
    b.halt();
    MachineOptions opts;
    opts.globalOverrides = {{"g", {10, 20}}};
    RunResult result = runProgram(b.build(), opts);
    EXPECT_EQ(result.output, (std::vector<Word>{20}));
}

TEST(Vm, StoreThenLoadRoundTrips)
{
    ProgramBuilder b("t");
    b.global("g", 1);
    b.func("main");
    b.movi(r2, 77);
    b.storeg("g", 0, r2, r3);
    b.loadg(r4, "g");
    b.out(r4);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{77}));
}

TEST(Vm, NullDereferenceSegfaults)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 0);
    b.load(r2, r1, 0);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::SegFault);
    EXPECT_EQ(result.failure->instrIndex, 1u);
}

TEST(Vm, OutOfSegmentAccessSegfaults)
{
    ProgramBuilder b("t");
    b.global("g", 1);
    b.func("main");
    b.lea(r1, "g", 8 * 100);
    b.load(r2, r1, 0);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).outcome, RunOutcome::SegFault);
}

TEST(Vm, OverflowWithinSegmentCorruptsSilently)
{
    // Adjacent globals are contiguous: writing past the end of one
    // corrupts the next (the sort bug's mechanism), not a fault.
    ProgramBuilder b("t");
    b.global("a", 1, {1});
    b.global("bsym", 1, {2});
    b.func("main");
    b.movi(r2, 99);
    b.lea(r1, "a", 8); // one past 'a' == 'bsym'
    b.store(r1, 0, r2);
    b.loadg(r3, "bsym");
    b.out(r3);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{99}));
}

TEST(Vm, StackAccessViaStackPointer)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 5);
    b.localStore(-8, r1);
    b.localLoad(r2, -8);
    b.out(r2);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{5}));
}

TEST(Vm, HeapAllocationViaSyscall)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 64);
    b.syscall(SyscallNo::Alloc, r1, r2); // r2 = ptr
    b.movi(r3, 11);
    b.store(r2, 0, r3);
    b.load(r4, r2, 0);
    b.out(r4);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{11}));
}

// ---- control flow --------------------------------------------------------

TEST(Vm, IfElseTakesTheRightArm)
{
    for (Word x : {1, 5}) {
        ProgramBuilder b("t");
        b.global("x", 1);
        b.func("main");
        b.loadg(r1, "x");
        b.movi(r2, 3);
        b.beginIf(Cond::Lt, r1, r2);
        b.movi(r3, 100);
        b.beginElse();
        b.movi(r3, 200);
        b.endIf();
        b.out(r3);
        b.halt();
        MachineOptions opts;
        opts.globalOverrides = {{"x", {x}}};
        RunResult result = runProgram(b.build(), opts);
        EXPECT_EQ(result.output[0], x < 3 ? 100 : 200);
    }
}

TEST(Vm, WhileLoopIterates)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 0);
    b.movi(r2, 5);
    b.movi(r3, 0);
    b.beginWhile(Cond::Lt, r1, r2);
    b.add(r3, r3, r1);
    b.addi(r1, r1, 1);
    b.endWhile();
    b.out(r3); // 0+1+2+3+4
    b.halt();
    EXPECT_EQ(runProgram(b.build()).output,
              (std::vector<Word>{10}));
}

TEST(Vm, CallAndReturnPreserveFlow)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 1);
    b.call("inc");
    b.call("inc");
    b.out(r1);
    b.halt();
    b.func("inc");
    b.addi(r1, r1, 1);
    b.ret();
    EXPECT_EQ(runProgram(b.build()).output,
              (std::vector<Word>{3}));
}

TEST(Vm, ReturnFromMainCompletesRun)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 1);
    b.ret();
    EXPECT_EQ(runProgram(b.build()).outcome,
              RunOutcome::Completed);
}

TEST(Vm, StepLimitDetectsHangs)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 0);
    b.movi(r2, 1);
    b.beginWhile(Cond::Ne, r1, r2, "forever");
    b.nop();
    b.endWhile();
    b.halt();
    MachineOptions opts;
    opts.maxSteps = 5000;
    RunResult result = runProgram(b.build(), opts);
    EXPECT_EQ(result.outcome, RunOutcome::StepLimit);
}

TEST(Vm, AssertEqFailureIsFailStop)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 1);
    b.movi(r2, 2);
    b.assertEq(r1, r2);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).outcome,
              RunOutcome::AssertFailed);
}

TEST(Vm, LogErrorEndsTheRunWithItsSite)
{
    ProgramBuilder b("t");
    b.func("main");
    LogSiteId site = b.logError("boom");
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::ErrorLogged);
    EXPECT_EQ(result.failure->site, site);
    EXPECT_EQ(result.failure->message, "boom");
}

TEST(Vm, LogInfoAndCheckpointDoNotStopTheRun)
{
    ProgramBuilder b("t");
    b.func("main");
    b.logInfo("fyi");
    b.logCheckpoint("checkpoint");
    b.movi(r1, 1);
    b.out(r1);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{1}));
}

// ---- threads and synchronization -------------------------------------------

TEST(Vm, SpawnRunsChildAndJoinWaits)
{
    ProgramBuilder b("t");
    b.global("flag", 1, {0}, true);
    b.func("main");
    b.movi(r1, 7);
    b.spawn(r9, "child", r1);
    b.join(r9);
    b.loadg(r2, "flag");
    b.out(r2);
    b.halt();
    b.func("child");
    // The spawn argument arrives in r1.
    b.storeg("flag", 0, r1, r3);
    b.ret();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{7}));
}

TEST(Vm, MutexProvidesMutualExclusion)
{
    // Two threads each do read-modify-write 20 times under a lock;
    // no update may be lost despite aggressive preemption.
    ProgramBuilder b("t");
    b.global("mutex", 1, {0}, true);
    b.global("counter", 1, {0}, true);
    b.func("main");
    b.movi(r1, 0);
    b.spawn(r9, "worker", r1);
    b.call("worker_body");
    b.join(r9);
    b.loadg(r2, "counter");
    b.out(r2);
    b.halt();

    b.func("worker");
    b.call("worker_body");
    b.ret();

    b.func("worker_body");
    b.movi(r10, 0);
    b.movi(r11, 20);
    b.beginWhile(Cond::Lt, r10, r11);
    {
        b.lea(r12, "mutex");
        b.lockAddr(r12);
        b.loadg(r13, "counter");
        b.addi(r13, r13, 1);
        b.storeg("counter", 0, r13, r14);
        b.unlockAddr(r12);
        b.addi(r10, r10, 1);
    }
    b.endWhile();
    b.ret();

    MachineOptions opts;
    opts.sched.preemptSharedProb = 0.5;
    opts.sched.quantum = 7;
    opts.sched.seed = 99;
    RunResult result = runProgram(b.build(), opts);
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{40}));
}

TEST(Vm, UnprotectedCounterLosesUpdates)
{
    // The same workload without the lock drops increments under
    // preemption: the machine really interleaves.
    ProgramBuilder b("t");
    b.global("counter", 1, {0}, true);
    b.func("main");
    b.movi(r1, 0);
    b.spawn(r9, "worker", r1);
    b.call("body");
    b.join(r9);
    b.loadg(r2, "counter");
    b.out(r2);
    b.halt();
    b.func("worker");
    b.call("body");
    b.ret();
    b.func("body");
    b.movi(r10, 0);
    b.movi(r11, 30);
    b.beginWhile(Cond::Lt, r10, r11);
    {
        b.loadg(r13, "counter");
        b.addi(r13, r13, 1);
        b.storeg("counter", 0, r13, r14);
        b.addi(r10, r10, 1);
    }
    b.endWhile();
    b.ret();

    bool lost = false;
    for (std::uint64_t seed = 1; seed <= 20 && !lost; ++seed) {
        MachineOptions opts;
        opts.sched.preemptSharedProb = 0.5;
        opts.sched.quantum = 5;
        opts.sched.seed = seed;
        RunResult result = runProgram(b.build(), opts);
        lost = result.output[0] < 60;
    }
    EXPECT_TRUE(lost);
}

TEST(Vm, LockOnNullIsSegfault)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 0);
    b.lockAddr(r1);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).outcome, RunOutcome::SegFault);
}

TEST(Vm, DeadlockDetected)
{
    // Two threads acquire two locks in opposite order with forced
    // alternation.
    ProgramBuilder b("t");
    b.global("m1", 1, {0}, true);
    b.global("m2", 1, {0}, true);
    b.func("main");
    b.movi(r1, 0);
    b.spawn(r9, "other", r1);
    b.lea(r2, "m1");
    b.lockAddr(r2);
    b.yield(); // let the other thread take m2
    b.lea(r3, "m2");
    b.lockAddr(r3);
    b.join(r9);
    b.halt();
    b.func("other");
    b.lea(r2, "m2");
    b.lockAddr(r2);
    b.yield();
    b.lea(r3, "m1");
    b.lockAddr(r3);
    b.ret();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Deadlock);
}

TEST(Vm, DeterministicGivenSeed)
{
    ProgramBuilder b("t");
    b.global("x", 1, {0}, true);
    b.func("main");
    b.movi(r1, 0);
    b.spawn(r9, "w", r1);
    b.loadg(r2, "x");
    b.out(r2);
    b.join(r9);
    b.halt();
    b.func("w");
    b.movi(r3, 9);
    b.storeg("x", 0, r3, r4);
    b.ret();
    ProgramPtr prog = b.build();

    MachineOptions opts;
    opts.sched.preemptSharedProb = 0.5;
    opts.sched.seed = 4242;
    RunResult first = runProgram(prog, opts);
    for (int i = 0; i < 5; ++i) {
        RunResult again = runProgram(prog, opts);
        EXPECT_EQ(again.output, first.output);
        EXPECT_EQ(again.stats.userInstructions,
                  first.stats.userInstructions);
        EXPECT_EQ(again.stats.contextSwitches,
                  first.stats.contextSwitches);
    }
}

// ---- library calls ------------------------------------------------------------

TEST(Vm, MemmoveCopiesForward)
{
    ProgramBuilder b("t");
    b.global("src", 4, {1, 2, 3, 4});
    b.global("dst", 4, {});
    b.func("main");
    b.lea(r1, "dst");
    b.lea(r2, "src");
    b.movi(r3, 4);
    b.libcall(LibFn::Memmove);
    b.loadg(r4, "dst", 0);
    b.loadg(r5, "dst", 24);
    b.out(r4);
    b.out(r5);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{1, 4}));
}

TEST(Vm, MemmoveHandlesOverlapBackward)
{
    // memmove(&a[1], &a[0], 3): overlapping, must copy backward.
    ProgramBuilder b("t");
    b.global("a", 4, {1, 2, 3, 0});
    b.func("main");
    b.lea(r1, "a", 8);
    b.lea(r2, "a", 0);
    b.movi(r3, 3);
    b.libcall(LibFn::Memmove);
    for (int i = 0; i < 4; ++i) {
        b.loadg(r4, "a", 8 * i);
        b.out(r4);
    }
    b.halt();
    EXPECT_EQ(runProgram(b.build()).output,
              (std::vector<Word>{1, 1, 2, 3}));
}

TEST(Vm, MemsetFills)
{
    ProgramBuilder b("t");
    b.global("a", 3, {9, 9, 9});
    b.func("main");
    b.lea(r1, "a");
    b.movi(r2, 5);
    b.movi(r3, 3);
    b.libcall(LibFn::Memset);
    b.loadg(r4, "a", 16);
    b.out(r4);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).output,
              (std::vector<Word>{5}));
}

TEST(Vm, StrCmpComparesWordStrings)
{
    ProgramBuilder b("t");
    b.global("s1", 4, {104, 105, 0, 0});
    b.global("s2", 4, {104, 106, 0, 0});
    b.func("main");
    b.lea(r1, "s1");
    b.lea(r2, "s2");
    b.libcall(LibFn::StrCmp);
    b.out(r0);
    b.lea(r1, "s1");
    b.lea(r2, "s1");
    b.libcall(LibFn::StrCmp);
    b.out(r0);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).output,
              (std::vector<Word>{-1, 0}));
}

TEST(Vm, TimeIsDeterministicPerSchedule)
{
    ProgramBuilder b("t");
    b.func("main");
    b.libcall(LibFn::Time);
    b.out(r0);
    b.halt();
    ProgramPtr prog = b.build();
    RunResult a = runProgram(prog);
    RunResult c = runProgram(prog);
    EXPECT_EQ(a.output, c.output);
    EXPECT_GT(a.output[0], 0);
}

TEST(Vm, MemmoveOutOfBoundsSegfaultsInsideLibrary)
{
    ProgramBuilder b("t");
    b.global("only", 2, {1, 2});
    b.func("main");
    b.lea(r1, "only");
    b.lea(r2, "only");
    b.movi(r3, 1000); // way past the segment
    b.libcall(LibFn::Memmove);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).outcome, RunOutcome::SegFault);
}

TEST(Vm, IndirectCallThroughFunctionPointer)
{
    // A dispatch table: handler = handlers[kind]; handler().
    ProgramBuilder b("t");
    b.global("kind", 1, {1});
    b.global("handlers", 2, {});
    b.func("main");
    b.leaFunction(r4, "handler_a");
    b.storeg("handlers", 0, r4, r5);
    b.leaFunction(r4, "handler_b");
    b.storeg("handlers", 8, r4, r5);
    b.loadg(r6, "kind");
    b.movi(r7, 8);
    b.mul(r8, r6, r7);
    b.lea(r9, "handlers");
    b.add(r9, r9, r8);
    b.load(r10, r9, 0);
    b.icall(r10);
    b.out(r0);
    b.halt();
    b.func("handler_a");
    b.movi(r0, 100);
    b.ret();
    b.func("handler_b");
    b.movi(r0, 200);
    b.ret();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.output, (std::vector<Word>{200}));
}

TEST(Vm, IndirectJumpToComputedTarget)
{
    ProgramBuilder b("t");
    b.func("main");
    b.leaFunction(r4, "tail");
    b.ijmp(r4);
    b.movi(r0, 1); // skipped
    b.halt();
    b.func("tail");
    b.movi(r0, 7);
    b.out(r0);
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_EQ(result.output, (std::vector<Word>{7}));
}

TEST(Vm, IndirectCallToGarbageSegfaults)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r4, 12345); // not a code address
    b.icall(r4);
    b.halt();
    EXPECT_EQ(runProgram(b.build()).outcome, RunOutcome::SegFault);
}

TEST(Vm, IndirectBranchesAreFilterableLbrClasses)
{
    // Near indirect calls/jumps are suppressed by the paper's mask
    // but recorded without it.
    ProgramBuilder b("t");
    b.func("main");
    b.leaFunction(r4, "callee");
    b.icall(r4);
    b.logError("stop here");
    b.halt();
    b.func("callee");
    b.ret();
    ProgramPtr prog = b.build();
    transform::LbrLogPlan logPlan;
    logPlan.lbrSelectMask = 0; // record everything
    logPlan.toggling = false;
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLbrLog(*prog, *plan, logPlan);
    RunResult all = Machine(prog, {}, plan).run();
    bool sawIndirect = false;
    for (const auto &rec : all.profiles.back().lbr) {
        sawIndirect = sawIndirect ||
                      rec.kind == BranchKind::NearIndirectCall;
    }
    EXPECT_TRUE(sawIndirect);

    logPlan.lbrSelectMask = msr::kPaperLbrSelect;
    auto filteredPlan = std::make_shared<Instrumentation>();
    transform::applyLbrLog(*prog, *filteredPlan, logPlan);
    RunResult filtered = Machine(prog, {}, filteredPlan).run();
    for (const auto &rec : filtered.profiles.back().lbr) {
        EXPECT_NE(rec.kind, BranchKind::NearIndirectCall);
    }
}

// ---- accounting -----------------------------------------------------------

TEST(Vm, InstructionAccountingMonotonic)
{
    ProgramBuilder b("t");
    b.func("main");
    b.movi(r1, 0);
    b.movi(r2, 100);
    b.beginWhile(Cond::Lt, r1, r2);
    b.addi(r1, r1, 1);
    b.endWhile();
    b.halt();
    RunResult result = runProgram(b.build());
    EXPECT_GT(result.stats.userInstructions, 200u);
    EXPECT_GT(result.stats.branchesRetired, 100u);
    EXPECT_EQ(result.stats.instrumentationInstructions, 0u);
    EXPECT_DOUBLE_EQ(result.stats.overhead(), 0.0);
}

} // namespace
} // namespace stm
