/**
 * @file
 * Tests for the predecode cache (vm/decode_cache.hh) and for the
 * transparency of superinstruction fusion: sharing across runs,
 * overlay-keyed invalidation (scalar knobs do NOT invalidate, hook
 * tables DO), byte-budget LRU eviction and oversize rejection, a
 * concurrent RunPool campaign sharing one predecode (the TSan lane's
 * target), and fused ≡ unfused RunResult equality under seeded
 * preemption across quantum sizes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/run_pool.hh"
#include "program/builder.hh"
#include "program/fingerprint.hh"
#include "program/transform.hh"
#include "vm/decode_cache.hh"
#include "vm/decoded_program.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

/**
 * Give every test a private, freshly-zeroed global cache and restore
 * the default configuration on the way out so no state leaks into
 * other suites.
 */
struct FreshCacheGuard
{
    explicit FreshCacheGuard(std::size_t maxBytes = 0,
                             unsigned shards = 0)
    {
        configureDecodeCache(maxBytes, shards);
    }
    ~FreshCacheGuard() { configureDecodeCache(); }
};

/** A small program that exercises fusable pairs and memory traffic. */
ProgramPtr
pairHeavyProgram(const std::string &name = "pairs", int iters = 16)
{
    ProgramBuilder b(name);
    b.global("acc", 1, {0});
    b.func("main");
    b.movi(r1, 0);          // induction
    b.movi(r2, iters);      // limit
    b.beginWhile(Cond::Lt, r1, r2);
    {
        b.movi(r3, 0x7f);   // movi+and pair
        b.andr(r4, r3, r1);
        b.movi(r5, 3);      // movi+mul pair
        b.mul(r6, r5, r4);  // mul+addi pair
        b.addi(r7, r6, 1);
        b.loadg(r8, "acc"); // load, then movi: never fused
        b.movi(r9, 0);
        b.add(r8, r8, r7);
        b.storeg("acc", 0, r8, r10);
        b.addi(r1, r1, 1);
    }
    b.endWhile();
    b.loadg(r11, "acc");
    b.out(r11);
    b.halt();
    return b.build();
}

/** The unprotected-counter race: output depends on interleaving. */
ProgramPtr
racyCounterProgram()
{
    ProgramBuilder b("racy");
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
    b.movi(r11, 25);
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

std::uint64_t
cacheStat(const char *name)
{
    return globalDecodeCache().statsSnapshot().value(name);
}

// ---- sharing and keying --------------------------------------------------

TEST(DecodeCache, SecondRunOfAProgramIsAHit)
{
    FreshCacheGuard guard;
    ProgramPtr prog = pairHeavyProgram();

    RunResult a = Machine(prog).run();
    RunResult b = Machine(prog).run();
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.outcome, RunOutcome::Completed);

    EXPECT_EQ(cacheStat("misses"), 1u);
    EXPECT_GE(cacheStat("hits"), 1u);
    EXPECT_EQ(globalDecodeCache().size(), 1u);
    EXPECT_GT(globalDecodeCache().bytes(), 0u);
}

TEST(DecodeCache, FusedAndUnfusedStreamsAreDistinctEntries)
{
    FreshCacheGuard guard;
    ProgramPtr prog = pairHeavyProgram();

    MachineOptions fused;
    fused.enableSuperinstructions = true;
    MachineOptions plain;
    plain.enableSuperinstructions = false;

    RunResult a = Machine(prog, fused).run();
    RunResult b = Machine(prog, plain).run();
    EXPECT_TRUE(a == b); // fusion is result-transparent

    // Same program, different fusion flag: two cache entries.
    EXPECT_EQ(cacheStat("misses"), 2u);
    EXPECT_EQ(globalDecodeCache().size(), 2u);
}

TEST(DecodeCache, ScalarKnobFlipsDoNotInvalidate)
{
    FreshCacheGuard guard;
    ProgramPtr prog = pairHeavyProgram();

    // Two overlays with identical (empty) hook tables but different
    // scalar knobs: the knobs are read per-run and do not enter the
    // predecode output, so the second run must hit.
    auto planA = std::make_shared<Instrumentation>();
    auto planB = std::make_shared<Instrumentation>();
    planB->toggleLbrAroundLibraries = true;
    planB->lbrSelectMask = 0x1ff;
    ASSERT_EQ(fingerprintHookTables(*planA),
              fingerprintHookTables(*planB));

    Machine(prog, {}, planA).run();
    Machine(prog, {}, planB).run();
    EXPECT_EQ(cacheStat("misses"), 1u);
    EXPECT_GE(cacheStat("hits"), 1u);
}

TEST(DecodeCache, HookTableChangesInvalidate)
{
    FreshCacheGuard guard;
    ProgramPtr prog = pairHeavyProgram();

    auto bare = std::make_shared<Instrumentation>();
    auto cbi = std::make_shared<Instrumentation>();
    transform::applyCbi(*prog, *cbi, 1.0);
    ASSERT_NE(fingerprintHookTables(*bare),
              fingerprintHookTables(*cbi));

    Machine(prog, {}, bare).run();
    Machine(prog, {}, cbi).run();
    // Different hook side tables → different streams → two misses.
    EXPECT_EQ(cacheStat("misses"), 2u);
    EXPECT_EQ(globalDecodeCache().size(), 2u);
}

// ---- bounds --------------------------------------------------------------

TEST(DecodeCache, ByteBudgetEvictsOldEntries)
{
    // A budget sized to hold only a couple of decoded streams; one
    // shard so the LRU order is global.
    FreshCacheGuard guard(6 * 1024, 1);

    for (int i = 0; i < 8; ++i) {
        ProgramPtr prog =
            pairHeavyProgram("evict" + std::to_string(i), 4 + i);
        RunResult r = Machine(prog).run();
        EXPECT_EQ(r.outcome, RunOutcome::Completed);
    }
    EXPECT_LE(globalDecodeCache().bytes(), 6u * 1024);
    EXPECT_GE(cacheStat("evictions"), 1u);
    EXPECT_LT(globalDecodeCache().size(), 8u);
}

TEST(DecodeCache, OversizeStreamsRunUncached)
{
    // A budget smaller than any decoded stream: every acquire builds
    // and returns an uncached stream, and execution still works.
    FreshCacheGuard guard(64, 1);

    ProgramPtr prog = pairHeavyProgram();
    RunResult a = Machine(prog).run();
    RunResult b = Machine(prog).run();
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.outcome, RunOutcome::Completed);
    EXPECT_EQ(globalDecodeCache().size(), 0u);
    EXPECT_GE(cacheStat("oversize"), 2u);
    EXPECT_EQ(cacheStat("hits"), 0u);
}

// ---- concurrency (the TSan lane's target) --------------------------------

TEST(DecodeCache, ConcurrentCampaignPredecodesExactlyOnce)
{
    FreshCacheGuard guard;
    ProgramPtr prog = racyCounterProgram();

    RunPool pool(4);
    std::uint64_t consumed = pool.runOrdered(
        0, 64,
        [&](std::uint64_t seed) {
            MachineOptions opts;
            opts.sched.preemptSharedProb = 0.5;
            opts.sched.quantum = 5;
            opts.sched.seed = seed + 1;
            return Machine(prog, opts).run();
        },
        [&](std::uint64_t, RunResult &&r) {
            EXPECT_EQ(r.outcome, RunOutcome::Completed);
            return true;
        });
    EXPECT_EQ(consumed, 64u);

    // Every concurrent Machine shared one immutable stream: exactly
    // one build (the first acquire wins; racers block on the shard
    // lock and then hit).
    EXPECT_EQ(cacheStat("misses"), 1u);
    EXPECT_EQ(cacheStat("hits"), 63u);
    EXPECT_EQ(globalDecodeCache().size(), 1u);
}

// ---- fusion transparency under preemption --------------------------------

TEST(DecodeCache, NoFusedPairTouchesMemory)
{
    // The fused handlers draw no preemption probe between their two
    // halves. That is exact only while no fused pair loads or stores:
    // predecode a program holding every adjacent opcode pair and
    // check every record it fused.
    Program prog;
    for (std::size_t a = 0; a < kOpcodeCount; ++a) {
        for (std::size_t b = 0; b < kOpcodeCount; ++b) {
            Instruction first;
            first.op = static_cast<Opcode>(a);
            Instruction second;
            second.op = static_cast<Opcode>(b);
            prog.code.push_back(first);
            prog.code.push_back(second);
        }
    }
    prog.rebuildDispatchFlags();

    DecodedProgramPtr dp = predecode(prog, Instrumentation{}, true);
    std::vector<bool> seen(kExecTokenCount, false);
    for (std::size_t pc = 0; pc + 1 < dp->ops.size(); ++pc) {
        const DecodedOp &d = dp->ops[pc];
        if (d.token < kFirstFusedToken)
            continue;
        seen[static_cast<std::size_t>(d.token)] = true;
        EXPECT_FALSE(prog.code[pc].accessesMemory())
            << "fused token " << static_cast<int>(d.token)
            << " loads or stores in its first half";
        EXPECT_FALSE(prog.instrFlags[pc + 1] & dispatch::kAccessesMemory)
            << "fused token " << static_cast<int>(d.token)
            << " loads or stores in its second half";
    }
    // Every superinstruction is reachable, so the check covers each
    // fused handler.
    const auto first = static_cast<std::size_t>(kFirstFusedToken);
    EXPECT_EQ(kExecTokenCount - first, 8u);
    for (std::size_t tok = first; tok < kExecTokenCount; ++tok)
        EXPECT_TRUE(seen[tok]) << "fused token " << tok << " never fused";
}

TEST(DecodeCache, FusedMatchesUnfusedUnderSeededPreemption)
{
    FreshCacheGuard guard;
    ProgramPtr prog = racyCounterProgram();

    // The fused handlers replicate the per-instruction preemption
    // probe and quantum accounting, so for ANY seed and quantum the
    // fused run must be bit-identical to the unfused one — including
    // quantum 1, where every fused pair is split by quantum expiry
    // after its first half.
    for (std::uint32_t quantum : {1u, 3u, 50u}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            MachineOptions opts;
            opts.sched.preemptSharedProb = 0.5;
            opts.sched.quantum = quantum;
            opts.sched.seed = seed;

            MachineOptions fused = opts;
            fused.enableSuperinstructions = true;
            MachineOptions plain = opts;
            plain.enableSuperinstructions = false;

            RunResult a = Machine(prog, fused).run();
            RunResult b = Machine(prog, plain).run();
            EXPECT_TRUE(a == b)
                << "fused/unfused divergence at quantum=" << quantum
                << " seed=" << seed;
        }
    }
}

} // namespace
} // namespace stm
