/**
 * @file
 * Unit and concurrency tests for the content-addressed run cache
 * (exec/run_cache.hh): LRU eviction under a byte budget, shard
 * routing, bit-identical hit copies, oversize rejection, verify-mode
 * replay checking (including a deliberately poisoned entry), and
 * concurrent hits/inserts/evictions under the RunPool — the last is
 * the TSan lane's target.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "program/builder.hh"
#include "program/fingerprint.hh"
#include "program/transform.hh"
#include "support/logging.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

/** Ensure the process-wide cache never leaks into other tests. */
struct GlobalCacheGuard
{
    ~GlobalCacheGuard() { configureRunCache(RunCacheMode::Off); }
};

/** A RunResult whose retained size is dominated by @p outputWords. */
RunResult
sizedResult(std::size_t outputWords, Word fill = 7)
{
    RunResult r;
    r.output.assign(outputWords, fill);
    return r;
}

RunKey
key(std::uint64_t seed)
{
    return RunKey{0x1234, 0x5678, seed};
}

/** A tiny program whose output depends on the scheduler seed. */
ProgramPtr
seededProgram()
{
    ProgramBuilder b("seeded");
    b.global("x", 1, {3});
    b.func("main");
    b.loadg(r1, "x");
    b.out(r1);
    b.halt();
    return b.build();
}

TEST(RunCache, HitReturnsABitIdenticalCopy)
{
    RunCache cache;
    RunResult in = sizedResult(16, 42);
    in.outcome = RunOutcome::ErrorLogged;
    in.failure = FailureInfo{RunOutcome::ErrorLogged, 1, 2, 3, "boom"};
    in.stats.userInstructions = 99;
    cache.insert(key(1), in);

    RunResult out;
    ASSERT_TRUE(cache.lookup(key(1), out));
    EXPECT_TRUE(out == in);
    EXPECT_FALSE(cache.lookup(key(2), out));

    StatGroup stats = cache.statsSnapshot();
    EXPECT_EQ(stats.value("hits"), 1u);
    EXPECT_EQ(stats.value("misses"), 1u);
    EXPECT_EQ(stats.value("inserts"), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(RunCache, ByteBudgetEvictsLeastRecentlyUsed)
{
    // One shard so the LRU order is global; a budget that holds
    // roughly three of the four entries we insert.
    RunCache::Options opts;
    opts.shards = 1;
    opts.maxBytes = 3 * approxRunResultBytes(sizedResult(256)) + 64;
    RunCache cache(opts);

    for (std::uint64_t s = 0; s < 3; ++s)
        cache.insert(key(s), sizedResult(256));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_LE(cache.bytes(), opts.maxBytes);

    // Touch entry 0 so entry 1 is the least recently used...
    RunResult out;
    ASSERT_TRUE(cache.lookup(key(0), out));
    // ...then overflow the budget: 1 must go, 0 and 2 must stay.
    cache.insert(key(3), sizedResult(256));
    EXPECT_LE(cache.bytes(), opts.maxBytes);
    EXPECT_TRUE(cache.lookup(key(0), out));
    EXPECT_FALSE(cache.lookup(key(1), out));
    EXPECT_TRUE(cache.lookup(key(2), out));
    EXPECT_TRUE(cache.lookup(key(3), out));
    EXPECT_GE(cache.statsSnapshot().value("evictions"), 1u);
}

TEST(RunCache, OversizeResultsAreNeverInserted)
{
    RunCache::Options opts;
    opts.shards = 2;
    opts.maxBytes = 1024; // 512 per shard
    RunCache cache(opts);
    cache.insert(key(1), sizedResult(4096));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.statsSnapshot().value("oversize"), 1u);
}

TEST(RunCache, ShardsPartitionTheKeySpace)
{
    RunCache::Options opts;
    opts.shards = 4;
    RunCache cache(opts);
    for (std::uint64_t s = 0; s < 64; ++s)
        cache.insert(key(s), sizedResult(4, static_cast<Word>(s)));
    EXPECT_EQ(cache.size(), 64u);
    for (std::uint64_t s = 0; s < 64; ++s) {
        RunResult out;
        ASSERT_TRUE(cache.lookup(key(s), out)) << s;
        EXPECT_EQ(out.output[0], static_cast<Word>(s));
    }
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
}

TEST(RunCache, MemoizedRunMatchesDirectExecutionWithCacheOff)
{
    GlobalCacheGuard guard;
    configureRunCache(RunCacheMode::Off);
    EXPECT_EQ(globalRunCache(), nullptr);

    ProgramPtr prog = seededProgram();
    MachineOptions opts;
    RunResult direct = Machine(prog, opts).run();
    RunResult memo = memoizedRun(
        prog, nullptr, fingerprintProgram(*prog, Instrumentation{}),
        fingerprintMachineOptions(opts), opts);
    EXPECT_TRUE(direct == memo);
}

TEST(RunCache, MemoizedRunServesHitsAndCountsThem)
{
    GlobalCacheGuard guard;
    configureRunCache(RunCacheMode::On);
    RunCache *cache = globalRunCache();
    ASSERT_NE(cache, nullptr);

    ProgramPtr prog = seededProgram();
    MachineOptions opts;
    const std::uint64_t progFp = fingerprintProgram(*prog, Instrumentation{});
    const std::uint64_t optsFp = fingerprintMachineOptions(opts);
    RunResult first = memoizedRun(prog, nullptr, progFp, optsFp, opts);
    RunResult second =
        memoizedRun(prog, nullptr, progFp, optsFp, opts);
    EXPECT_TRUE(first == second);
    StatGroup stats = cache->statsSnapshot();
    EXPECT_EQ(stats.value("hits"), 1u);
    EXPECT_EQ(stats.value("misses"), 1u);
}

TEST(RunCache, VerifyModeReplaysHitsAndAcceptsHonestEntries)
{
    GlobalCacheGuard guard;
    configureRunCache(RunCacheMode::Verify);
    RunCache *cache = globalRunCache();
    ASSERT_NE(cache, nullptr);
    ASSERT_TRUE(cache->verifyMode());

    ProgramPtr prog = seededProgram();
    MachineOptions opts;
    const std::uint64_t progFp = fingerprintProgram(*prog, Instrumentation{});
    const std::uint64_t optsFp = fingerprintMachineOptions(opts);
    RunResult first = memoizedRun(prog, nullptr, progFp, optsFp, opts);
    RunResult second =
        memoizedRun(prog, nullptr, progFp, optsFp, opts);
    EXPECT_TRUE(first == second);
    EXPECT_EQ(cache->statsSnapshot().value("verified"), 1u);
}

TEST(RunCache, VerifyModeDetectsAPoisonedEntry)
{
    GlobalCacheGuard guard;
    configureRunCache(RunCacheMode::Verify);
    RunCache *cache = globalRunCache();
    ASSERT_NE(cache, nullptr);

    ProgramPtr prog = seededProgram();
    MachineOptions opts;
    const std::uint64_t progFp = fingerprintProgram(*prog, Instrumentation{});
    const std::uint64_t optsFp = fingerprintMachineOptions(opts);

    // Plant a wrong result under the exact key memoizedRun will
    // compute — a stand-in for a fingerprint collision or memory
    // corruption. The verify replay must catch it.
    RunResult poisoned = sizedResult(3, 0xBAD);
    cache->insert(RunKey{progFp, optsFp, opts.sched.seed}, poisoned);
    EXPECT_THROW(memoizedRun(prog, nullptr, progFp, optsFp, opts),
                 FatalError);
}

TEST(RunCache, ConcurrentHitsInsertsAndEvictionsAreRaceFree)
{
    // The TSan lane's target: many workers hammering one small global
    // cache through memoizedRun, with repeated seeds (hits racing
    // inserts) and a budget tight enough to force evictions.
    GlobalCacheGuard guard;
    configureRunCache(RunCacheMode::On, 64 * 1024);
    RunCache *cache = globalRunCache();
    ASSERT_NE(cache, nullptr);

    ProgramPtr prog = seededProgram();
    const std::uint64_t progFp = fingerprintProgram(*prog, Instrumentation{});
    auto makeOpts = [](std::uint64_t i) {
        MachineOptions opts;
        opts.sched.seed = i % 16; // repeated keys: hits race inserts
        return opts;
    };
    const std::uint64_t optsFp =
        fingerprintMachineOptions(makeOpts(0));

    RunPool pool(4);
    std::vector<RunResult> results;
    pool.runOrdered(
        0, 256,
        [&](std::uint64_t i) {
            return memoizedRun(prog, nullptr, progFp, optsFp,
                               makeOpts(i));
        },
        [&](std::uint64_t, RunResult &&run) {
            results.push_back(std::move(run));
            return true;
        });

    ASSERT_EQ(results.size(), 256u);
    // Same seed => bit-identical result, cached or not.
    for (std::size_t i = 16; i < results.size(); ++i)
        EXPECT_TRUE(results[i] == results[i % 16]) << i;
    StatGroup stats = cache->statsSnapshot();
    EXPECT_EQ(stats.value("hits") + stats.value("misses"), 256u);
    EXPECT_GE(stats.value("hits"), 1u);
}

} // namespace
} // namespace stm
