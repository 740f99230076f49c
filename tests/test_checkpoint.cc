/**
 * @file
 * Tests for CoW machine checkpointing and O(√T) interval replay:
 *
 *  - the differential guarantee — resuming a run from a checkpoint at
 *    any √T-spaced quantum boundary produces a RunResult bit-identical
 *    to the from-scratch run, across a corpus sample including the
 *    kernel/IRQ pack;
 *  - runToStep() pause/continue semantics and perturbation-free
 *    periodic capture;
 *  - RNG stream save/restore (property): a copied Pcg32 mid-run
 *    reproduces the exact remaining draw sequence, and the irqOn=false
 *    zero-draw contract survives a checkpoint/resume round trip;
 *  - the SnapshotStore: timeline recording, latestAtOrBefore seeks,
 *    replayToStep, byte-budget eviction and oversize rejection,
 *    counter names, and concurrent record/seek under RunPool (the
 *    TSan lane's target);
 *  - run-cache verify-from-checkpoint.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "corpus/registry.hh"
#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "exec/snapshot_store.hh"
#include "program/builder.hh"
#include "program/fingerprint.hh"
#include "program/transform.hh"
#include "support/random.hh"
#include "test_util.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

/** Reset the process-wide snapshot store / run cache after a test. */
struct GlobalStoresGuard
{
    ~GlobalStoresGuard()
    {
        configureSnapshotStore(false);
        configureRunCache(RunCacheMode::Off);
    }
};

/** A looping multi-threaded program with shared-counter races. */
ProgramPtr
contendingProgram(int iters = 40)
{
    ProgramBuilder b("contending");
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
    b.movi(r11, iters);
    b.beginWhile(Cond::Lt, r10, r11);
    {
        b.loadg(r13, "counter");
        b.addi(r13, r13, 1);
        b.storeg("counter", 0, r13, r14);
        b.addi(r10, r10, 1);
    }
    b.endWhile();
    b.ret();
    return b.build();
}

MachineOptions
preemptingOptions(std::uint64_t seed, std::uint32_t quantum = 7)
{
    MachineOptions opts;
    opts.sched.preemptSharedProb = 0.4;
    opts.sched.quantum = quantum;
    opts.sched.seed = seed;
    return opts;
}

/**
 * The tentpole differential: record checkpoints at √T-spaced quantum
 * boundaries, then resume from EVERY one of them and require a
 * RunResult bit-identical to the from-scratch run. Also asserts the
 * recording run itself is unperturbed by capture.
 */
void
expectResumeMatchesScratch(
    const ProgramPtr &prog, const MachineOptions &opts,
    const std::shared_ptr<const Instrumentation> &overlay,
    const std::string &what)
{
    Machine scratchMachine(prog, opts, overlay);
    RunResult scratch = scratchMachine.run();
    std::uint64_t totalSteps = scratchMachine.steps();

    std::uint64_t every =
        defaultCheckpointInterval(totalSteps, opts.sched.quantum);
    std::vector<MachineCheckpointPtr> checkpoints;
    Machine recorder(prog, opts, overlay);
    recorder.enableCheckpoints(every, [&](MachineCheckpointPtr ckpt) {
        checkpoints.push_back(std::move(ckpt));
    });
    RunResult recorded = recorder.run();
    EXPECT_TRUE(recorded == scratch)
        << what << ": periodic capture perturbed the run";
    if (totalSteps > 2 * every) {
        EXPECT_GE(checkpoints.size(), 1u)
            << what << ": T=" << totalSteps << " every=" << every
            << " recorded no checkpoints";
    }

    for (const MachineCheckpointPtr &ckpt : checkpoints) {
        ASSERT_LT(ckpt->step, totalSteps);
        Machine resumed(prog, opts, overlay, ckpt);
        RunResult replay = resumed.run();
        EXPECT_TRUE(replay == scratch)
            << what << ": resume at step " << ckpt->step << " of "
            << totalSteps << " diverged";
    }
}

// ---- differential: resume ≡ scratch --------------------------------------

TEST(CheckpointDifferential, SequentialCorpusSample)
{
    for (const char *id : {"sort", "cp", "mozilla-js3"}) {
        BugSpec bug = corpus::bugById(id);
        expectResumeMatchesScratch(bug.program, bug.failing.forRun(0),
                                   nullptr, id);
    }
}

TEST(CheckpointDifferential, ConcurrencyCorpusSample)
{
    std::vector<BugSpec> bugs = corpus::concurrencyBugs();
    ASSERT_GE(bugs.size(), 2u);
    for (std::size_t i : {std::size_t{0}, bugs.size() - 1}) {
        const BugSpec &bug = bugs[i];
        // A failing seed and a succeeding seed both replay exactly.
        expectResumeMatchesScratch(bug.program, bug.failing.forRun(0),
                                   nullptr, bug.id + "/failing");
        expectResumeMatchesScratch(bug.program,
                                   bug.succeeding.forRun(1), nullptr,
                                   bug.id + "/succeeding");
    }
}

TEST(CheckpointDifferential, KernelCorpusWithInterrupts)
{
    std::vector<BugSpec> bugs = corpus::kernelBugs();
    ASSERT_GE(bugs.size(), 2u);
    for (std::size_t i : {std::size_t{0}, bugs.size() - 1}) {
        const BugSpec &bug = bugs[i];
        expectResumeMatchesScratch(bug.program, bug.failing.forRun(0),
                                   nullptr, bug.id);
    }
}

TEST(CheckpointDifferential, InstrumentedOverlayRun)
{
    // Same-plan resume with live LBR instrumentation: the checkpoint
    // carries the Pmu rings and the resumed hooks keep appending to
    // them.
    BugSpec bug = corpus::bugById("sort");
    Instrumentation plan;
    transform::LbrLogPlan logPlan;
    transform::applyLbrLog(*bug.program, plan, logPlan);
    auto overlay = std::make_shared<const Instrumentation>(plan);
    expectResumeMatchesScratch(bug.program, bug.failing.forRun(0),
                               overlay, "sort+lbrlog");
}

// ---- runToStep -----------------------------------------------------------

TEST(CheckpointPause, RunToStepPausesExactlyAndRunFinishes)
{
    ProgramPtr prog = contendingProgram();
    MachineOptions opts = preemptingOptions(3);

    Machine scratchMachine(prog, opts);
    RunResult scratch = scratchMachine.run();
    std::uint64_t totalSteps = scratchMachine.steps();
    ASSERT_GT(totalSteps, 100u);

    Machine machine(prog, opts);
    MachineCheckpointPtr at = machine.runToStep(totalSteps / 2);
    ASSERT_TRUE(at);
    EXPECT_EQ(at->step, totalSteps / 2);
    // Continuing the SAME machine finishes the identical run.
    RunResult finished = machine.run();
    EXPECT_TRUE(finished == scratch);
}

TEST(CheckpointPause, RepeatedIncreasingSeeksThenResume)
{
    ProgramPtr prog = contendingProgram();
    MachineOptions opts = preemptingOptions(5);

    Machine scratchMachine(prog, opts);
    RunResult scratch = scratchMachine.run();
    std::uint64_t totalSteps = scratchMachine.steps();

    Machine machine(prog, opts);
    MachineCheckpointPtr last;
    for (std::uint64_t frac : {8u, 4u, 2u}) {
        MachineCheckpointPtr ckpt =
            machine.runToStep(totalSteps / frac);
        ASSERT_TRUE(ckpt);
        EXPECT_EQ(ckpt->step, totalSteps / frac);
        last = ckpt;
    }
    // The final pause's checkpoint resumes to the scratch result.
    Machine resumed(prog, opts, nullptr, last);
    RunResult replay = resumed.run();
    EXPECT_TRUE(replay == scratch);

    // Seeking past the end reports the run ended instead.
    Machine beyond(prog, opts);
    EXPECT_EQ(beyond.runToStep(totalSteps + 1), nullptr);
    RunResult completed = beyond.run();
    EXPECT_TRUE(completed == scratch);
}

// ---- RNG save/restore (property) -----------------------------------------

TEST(CheckpointRng, CopiedStreamReproducesRemainingDraws)
{
    Pcg32 driver(test::testSeed());
    for (int trial = 0; trial < 50; ++trial) {
        Pcg32 rng(driver.next(), driver.next() | 1);
        int prefix = static_cast<int>(driver.nextBounded(64));
        for (int i = 0; i < prefix; ++i)
            rng.next();

        Pcg32 restored = rng; // what a checkpoint carries
        for (int i = 0; i < 128; ++i) {
            switch (driver.nextBounded(4)) {
              case 0:
                ASSERT_EQ(rng.next(), restored.next());
                break;
              case 1:
                ASSERT_EQ(rng.nextBounded(17),
                          restored.nextBounded(17));
                break;
              case 2:
                ASSERT_EQ(rng.nextDouble(), restored.nextDouble());
                break;
              default:
                ASSERT_EQ(rng.nextBool(0.3), restored.nextBool(0.3));
                break;
            }
        }
    }
}

TEST(CheckpointRng, IrqOffDrawSequenceSurvivesResume)
{
    // PR 9's contract: with interrupts disarmed there is NO per-step
    // IRQ draw, so the preemption draw sequence — and therefore the
    // interleaving — must be identical whether or not the run took a
    // checkpoint/resume round trip mid-stream. A divergence here
    // would mean restore perturbed the RNG stream position.
    ProgramPtr prog = contendingProgram();
    Pcg32 driver(test::testSeed(0xc4ec4e));
    for (int trial = 0; trial < 8; ++trial) {
        MachineOptions opts =
            preemptingOptions(driver.next() + 1,
                              3 + driver.nextBounded(9));
        ASSERT_EQ(opts.irq.prob, 0.0);

        Machine scratchMachine(prog, opts);
        RunResult scratch = scratchMachine.run();
        std::uint64_t totalSteps = scratchMachine.steps();

        std::uint64_t at = 1 + driver.nextBounded(
            static_cast<std::uint32_t>(totalSteps - 1));
        Machine machine(prog, opts);
        MachineCheckpointPtr ckpt = machine.runToStep(at);
        ASSERT_TRUE(ckpt);
        Machine resumed(prog, opts, nullptr, ckpt);
        RunResult replay = resumed.run();
        ASSERT_TRUE(replay == scratch)
            << "seed " << opts.sched.seed << " resume at " << at;
    }
}

// ---- SnapshotStore -------------------------------------------------------

RunKey
keyFor(const ProgramPtr &prog, const MachineOptions &opts)
{
    return RunKey{fingerprintProgram(*prog, Instrumentation{}),
                  fingerprintMachineOptions(opts), opts.sched.seed};
}

TEST(SnapshotStore, RecordsTimelineAndSeeks)
{
    ProgramPtr prog = contendingProgram();
    MachineOptions opts = preemptingOptions(11);
    RunKey key = keyFor(prog, opts);

    Machine scratchMachine(prog, opts);
    RunResult scratch = scratchMachine.run();
    std::uint64_t totalSteps = scratchMachine.steps();

    SnapshotStore::Options storeOpts;
    storeOpts.everySteps = totalSteps / 6 + 1;
    SnapshotStore store(storeOpts);

    Machine recorder(prog, opts);
    store.arm(recorder, key);
    RunResult recorded = recorder.run();
    EXPECT_TRUE(recorded == scratch);

    std::size_t timeline = store.timelineLength(key);
    EXPECT_GE(timeline, 3u);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_GT(store.bytes(), 0u);

    // latestAtOrBefore: before the first checkpoint there is nothing.
    MachineCheckpointPtr first =
        store.latestAtOrBefore(key, ~std::uint64_t{0});
    ASSERT_TRUE(first);
    EXPECT_EQ(store.latestAtOrBefore(key, 0), nullptr);

    // Seek to an arbitrary mid-run step: the paused state continues
    // to the bit-identical result, and the reached checkpoint is
    // densified back into the timeline.
    std::uint64_t target = totalSteps / 2 + 1;
    MachineCheckpointPtr seek = store.replayToStep(
        prog, nullptr, key, opts, target);
    ASSERT_TRUE(seek);
    EXPECT_EQ(seek->step, target);
    EXPECT_GT(store.timelineLength(key), timeline);
    Machine resumed(prog, opts, nullptr, seek);
    RunResult replay = resumed.run();
    EXPECT_TRUE(replay == scratch);

    // Seeking past the end of the run returns null.
    EXPECT_EQ(store.replayToStep(prog, nullptr, key, opts,
                                 totalSteps + 1000),
              nullptr);

    StatGroup stats = store.statsSnapshot();
    EXPECT_GE(stats.value("saves"), timeline);
    EXPECT_GE(stats.value("restores"), 1u);
    EXPECT_GE(stats.value("hits"), 1u);
    EXPECT_GT(stats.gaugeValue("checkpoint_bytes"), 0.0);
}

TEST(SnapshotStore, SeekOnColdStoreFallsBackToScratch)
{
    ProgramPtr prog = contendingProgram();
    MachineOptions opts = preemptingOptions(13);
    RunKey key = keyFor(prog, opts);

    Machine scratchMachine(prog, opts);
    RunResult scratch = scratchMachine.run();
    std::uint64_t totalSteps = scratchMachine.steps();

    SnapshotStore store;
    MachineCheckpointPtr seek = store.replayToStep(
        prog, nullptr, key, opts, totalSteps / 3);
    ASSERT_TRUE(seek);
    EXPECT_EQ(seek->step, totalSteps / 3);
    EXPECT_EQ(store.statsSnapshot().value("restores"), 0u);

    Machine resumed(prog, opts, nullptr, seek);
    EXPECT_TRUE(resumed.run() == scratch);
}

TEST(SnapshotStore, ByteBudgetEvictsWholeTimelines)
{
    ProgramPtr prog = contendingProgram();

    // One shard and a budget of roughly one timeline: recording many
    // seeds must evict earlier keys whole.
    MachineOptions proto = preemptingOptions(1);
    RunKey protoKey = keyFor(prog, proto);
    SnapshotStore sizing;
    sizing.replayToStep(prog, nullptr, protoKey, proto, 50);
    std::size_t oneTimeline = sizing.bytes();
    ASSERT_GT(oneTimeline, 0u);

    SnapshotStore::Options storeOpts;
    storeOpts.maxBytes = 3 * oneTimeline;
    storeOpts.shards = 1;
    storeOpts.everySteps = 40;
    SnapshotStore store(storeOpts);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        MachineOptions opts = preemptingOptions(seed);
        Machine machine(prog, opts);
        store.arm(machine, keyFor(prog, opts));
        machine.run();
    }
    EXPECT_LE(store.bytes(), storeOpts.maxBytes);
    EXPECT_LT(store.size(), 8u);
    EXPECT_GE(store.statsSnapshot().value("evictions"), 1u);
}

TEST(SnapshotStore, OversizeTimelineKeepsLastFittingPrefix)
{
    ProgramPtr prog = contendingProgram();
    MachineOptions opts = preemptingOptions(17);
    RunKey key = keyFor(prog, opts);

    SnapshotStore::Options storeOpts;
    storeOpts.maxBytes = 1; // nothing fits
    storeOpts.shards = 1;
    storeOpts.everySteps = 40;
    SnapshotStore store(storeOpts);
    Machine machine(prog, opts);
    store.arm(machine, key);
    RunResult recorded = machine.run();
    EXPECT_EQ(recorded.outcome, RunOutcome::Completed);

    EXPECT_EQ(store.size(), 0u);
    EXPECT_GE(store.statsSnapshot().value("oversize"), 1u);
    // Seeks still work — from scratch.
    MachineCheckpointPtr seek =
        store.replayToStep(prog, nullptr, key, opts, 60);
    ASSERT_TRUE(seek);
    EXPECT_EQ(seek->step, 60u);
}

// ---- concurrency (the TSan lane's target) --------------------------------

TEST(SnapshotStore, ConcurrentRecordAndSeekUnderRunPool)
{
    ProgramPtr prog = contendingProgram();
    constexpr std::uint64_t kSeeds = 24;

    // Scratch truth, serially.
    std::vector<RunResult> scratch;
    std::vector<std::uint64_t> steps;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        Machine machine(prog, preemptingOptions(seed));
        scratch.push_back(machine.run());
        steps.push_back(machine.steps());
    }

    SnapshotStore::Options storeOpts;
    storeOpts.everySteps = 64;
    SnapshotStore store(storeOpts);
    RunPool pool(4);

    // Phase 1: workers record timelines concurrently.
    std::uint64_t consumed = pool.runOrdered(
        0, kSeeds,
        [&](std::uint64_t i) {
            MachineOptions opts = preemptingOptions(i + 1);
            Machine machine(prog, opts);
            store.arm(machine, keyFor(prog, opts));
            return machine.run();
        },
        [&](std::uint64_t i, RunResult &&r) {
            EXPECT_TRUE(r == scratch[i]);
            return true;
        });
    EXPECT_EQ(consumed, kSeeds);

    // Phase 2: workers seek concurrently — mixed hits (recorded
    // timelines, LRU refreshes, densifying re-records) while other
    // workers are still recording their own keys.
    consumed = pool.runOrdered(
        0, kSeeds,
        [&](std::uint64_t i) {
            MachineOptions opts = preemptingOptions(i + 1);
            MachineCheckpointPtr seek = store.replayToStep(
                prog, nullptr, keyFor(prog, opts), opts,
                steps[i] / 2);
            EXPECT_TRUE(seek);
            Machine resumed(prog, opts, nullptr, seek);
            return resumed.run();
        },
        [&](std::uint64_t i, RunResult &&r) {
            EXPECT_TRUE(r == scratch[i]);
            return true;
        });
    EXPECT_EQ(consumed, kSeeds);
}

// ---- exec/diag wiring ----------------------------------------------------

TEST(CheckpointWiring, RunCacheVerifiesFromCheckpoint)
{
    GlobalStoresGuard guard;
    configureRunCache(RunCacheMode::Verify);
    configureSnapshotStore(true, /*everySteps=*/64);

    ProgramPtr prog = contendingProgram();
    MachineOptions opts = preemptingOptions(7);
    std::uint64_t progFp = fingerprintProgram(*prog, Instrumentation{});
    std::uint64_t optionsFp = fingerprintMachineOptions(opts);

    // Miss: executes, records a timeline, inserts the result.
    RunResult first =
        memoizedRun(prog, nullptr, progFp, optionsFp, opts);
    SnapshotStore *store = globalSnapshotStore();
    ASSERT_TRUE(store);
    RunKey key{progFp, optionsFp, opts.sched.seed};
    ASSERT_GE(store->timelineLength(key), 1u);

    // Hit in verify mode: the replay resumes from the newest
    // checkpoint and must still bit-match (a fatal otherwise).
    RunResult second =
        memoizedRun(prog, nullptr, progFp, optionsFp, opts);
    EXPECT_TRUE(second == first);
    EXPECT_GE(store->statsSnapshot().value("restores"), 1u);
    EXPECT_EQ(globalRunCache()->statsSnapshot().value("verified"), 1u);
}

} // namespace
} // namespace stm
