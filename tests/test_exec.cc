/**
 * @file
 * Tests for the RunPool execution engine: ordered result delivery,
 * bit-identical behavior across worker counts, quota cancellation,
 * and the end-to-end determinism contract of the diagnosis pipelines
 * (LBRA/LCRA and the CBI/PBI/CCI baselines produce identical rankings
 * and attempt counts with jobs=1 and jobs=8).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "baseline/cbi.hh"
#include "baseline/cci.hh"
#include "baseline/pbi.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_pool.hh"

namespace stm
{
namespace
{

/**
 * A synthetic runner whose result encodes its index and whose
 * duration varies pseudo-randomly, so that with many workers results
 * complete out of index order and the pool has to reorder them.
 */
RunResult
syntheticRun(std::uint64_t i)
{
    std::this_thread::sleep_for(
        std::chrono::microseconds((i * 7919) % 7 * 40));
    RunResult r;
    r.output.push_back(static_cast<Word>(i * 3 + 1));
    return r;
}

// ---- RunPool ------------------------------------------------------------

TEST(RunPool, BatchResultsAreIndexOrdered)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        RunPool pool(jobs);
        EXPECT_EQ(pool.jobs(), jobs);
        std::vector<RunResult> results =
            pool.runBatch(10, 50, syntheticRun);
        ASSERT_EQ(results.size(), 50u);
        for (std::uint64_t k = 0; k < 50; ++k) {
            ASSERT_EQ(results[k].output.size(), 1u);
            EXPECT_EQ(results[k].output[0],
                      static_cast<Word>((10 + k) * 3 + 1));
        }
    }
}

TEST(RunPool, ConsumerSeesStrictIndexOrder)
{
    RunPool pool(8);
    std::vector<std::uint64_t> seen;
    std::uint64_t consumed = pool.runOrdered(
        0, 100, syntheticRun, [&](std::uint64_t i, RunResult &&r) {
            EXPECT_EQ(r.output[0], static_cast<Word>(i * 3 + 1));
            seen.push_back(i);
            return true;
        });
    EXPECT_EQ(consumed, 100u);
    ASSERT_EQ(seen.size(), 100u);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(seen[k], k);
}

TEST(RunPool, DeterministicAcrossWorkerCounts)
{
    auto collect = [&](unsigned jobs) {
        RunPool pool(jobs);
        std::vector<Word> values;
        pool.runOrdered(0, 64, syntheticRun,
                        [&](std::uint64_t, RunResult &&r) {
                            values.push_back(r.output[0]);
                            // A data-dependent early stop: exercise
                            // cancellation the same way at any width.
                            return values.size() < 40;
                        });
        return values;
    };
    std::vector<Word> serial = collect(1);
    EXPECT_EQ(collect(2), serial);
    EXPECT_EQ(collect(8), serial);
}

TEST(RunPool, QuotaCancellationStopsEarly)
{
    RunPool pool(8);
    std::atomic<std::uint64_t> launched{0};
    std::uint64_t consumed = pool.runOrdered(
        0, 100000,
        [&](std::uint64_t i) {
            ++launched;
            return syntheticRun(i);
        },
        [&](std::uint64_t i, RunResult &&) { return i < 9; });
    // Attempts 0..9 consumed the quota; attempt 9's refusal stops
    // the batch (it is offered but not consumed).
    EXPECT_EQ(consumed, 9u);
    // Speculation is bounded by the look-ahead window, not the full
    // 100000-run budget.
    EXPECT_LE(launched.load(), 9u + 4u * 8u + 8u);
}

TEST(RunPool, PoolIsReusableAfterCancellation)
{
    RunPool pool(4);
    pool.runOrdered(0, 1000, syntheticRun,
                    [&](std::uint64_t i, RunResult &&) {
                        return i < 3;
                    });
    std::vector<RunResult> results = pool.runBatch(0, 20, syntheticRun);
    ASSERT_EQ(results.size(), 20u);
    for (std::uint64_t k = 0; k < 20; ++k)
        EXPECT_EQ(results[k].output[0], static_cast<Word>(k * 3 + 1));
}

TEST(RunPool, ZeroRunsIsANoOp)
{
    RunPool pool(4);
    bool called = false;
    std::uint64_t consumed = pool.runOrdered(
        0, 0, syntheticRun, [&](std::uint64_t, RunResult &&) {
            called = true;
            return true;
        });
    EXPECT_EQ(consumed, 0u);
    EXPECT_FALSE(called);
}

TEST(RunPool, JobsResolution)
{
    setDefaultJobs(5);
    EXPECT_EQ(defaultJobs(), 5u);
    EXPECT_EQ(RunPool(0).jobs(), 5u);
    EXPECT_EQ(RunPool(3).jobs(), 3u);
    setDefaultJobs(0); // clear the override
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(RunPool, ThroughputStatsAccumulate)
{
    resetExecStats();
    RunPool pool(2);
    pool.runBatch(0, 32, syntheticRun);
    EXPECT_EQ(execStats().value("runs"), 32u);
    EXPECT_EQ(execStats().value("batches"), 1u);
    EXPECT_GT(execRunsPerSecond(), 0.0);
    EXPECT_GE(execUtilization(), 0.0);
    EXPECT_LE(execUtilization(), 1.0);
}

// ---- End-to-end determinism of the diagnosis pipelines ------------------

void
expectSameRanking(const std::vector<RankedEvent> &a,
                  const std::vector<RankedEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].event, b[k].event) << "rank " << k;
        EXPECT_EQ(a[k].absence, b[k].absence) << "rank " << k;
        EXPECT_EQ(a[k].failureRuns, b[k].failureRuns) << "rank " << k;
        EXPECT_EQ(a[k].successRuns, b[k].successRuns) << "rank " << k;
        EXPECT_EQ(a[k].precision, b[k].precision) << "rank " << k;
        EXPECT_EQ(a[k].recall, b[k].recall) << "rank " << k;
        EXPECT_EQ(a[k].score, b[k].score) << "rank " << k;
    }
}

void
expectSameDiag(const AutoDiagResult &a, const AutoDiagResult &b)
{
    EXPECT_EQ(a.diagnosed, b.diagnosed);
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.failureRunsUsed, b.failureRunsUsed);
    EXPECT_EQ(a.failureAttempts, b.failureAttempts);
    EXPECT_EQ(a.successRunsUsed, b.successRunsUsed);
    EXPECT_EQ(a.successAttempts, b.successAttempts);
    expectSameRanking(a.ranking, b.ranking);
}

TEST(ExecDeterminism, LbraIdenticalAtOneAndEightJobs)
{
    for (const char *id : {"sort", "rm"}) {
        BugSpec bug = corpus::bugById(id);
        AutoDiagOptions opts;
        opts.jobs = 1;
        AutoDiagResult serial =
            runLbra(bug.program, bug.failing, bug.succeeding, opts);
        opts.jobs = 8;
        AutoDiagResult parallel =
            runLbra(bug.program, bug.failing, bug.succeeding, opts);
        ASSERT_TRUE(serial.diagnosed) << id;
        expectSameDiag(serial, parallel);
    }
}

TEST(ExecDeterminism, LbraProactiveIdenticalAtOneAndEightJobs)
{
    BugSpec bug = corpus::bugById("rm");
    AutoDiagOptions opts;
    opts.scheme = transform::SuccessSiteScheme::Proactive;
    opts.jobs = 1;
    AutoDiagResult serial =
        runLbra(bug.program, bug.failing, bug.succeeding, opts);
    opts.jobs = 8;
    AutoDiagResult parallel =
        runLbra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(serial.diagnosed);
    expectSameDiag(serial, parallel);
}

TEST(ExecDeterminism, LcraIdenticalAtOneAndEightJobs)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    AutoDiagOptions opts;
    opts.absencePredicates = true;
    opts.jobs = 1;
    AutoDiagResult serial =
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    opts.jobs = 8;
    AutoDiagResult parallel =
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(serial.diagnosed);
    expectSameDiag(serial, parallel);
}

/**
 * Run one Liblit-baseline campaign at jobs 1 and 8 and expect the
 * same run counts, attempts and full ranking: predicate, all four
 * tallies and importance, rank by rank.
 */
template <typename Options, typename Run, typename SameKey>
void
expectSameLiblitCampaign(const BugSpec &bug, Options opts, Run run,
                         SameKey same_key)
{
    opts.jobs = 1;
    auto serial = run(bug.program, bug.failing, bug.succeeding, opts);
    opts.jobs = 8;
    auto parallel = run(bug.program, bug.failing, bug.succeeding, opts);

    ASSERT_TRUE(serial.completed);
    EXPECT_EQ(serial.completed, parallel.completed);
    EXPECT_EQ(serial.failureRunsUsed, parallel.failureRunsUsed);
    EXPECT_EQ(serial.successRunsUsed, parallel.successRunsUsed);
    EXPECT_EQ(serial.failureAttempts, parallel.failureAttempts);
    ASSERT_EQ(serial.ranking.size(), parallel.ranking.size());
    for (std::size_t k = 0; k < serial.ranking.size(); ++k) {
        const auto &x = serial.ranking[k];
        const auto &y = parallel.ranking[k];
        EXPECT_TRUE(same_key(x, y)) << "rank " << k;
        EXPECT_EQ(x.tally.trueInFailing, y.tally.trueInFailing);
        EXPECT_EQ(x.tally.trueInSucceeding, y.tally.trueInSucceeding);
        EXPECT_EQ(x.tally.obsInFailing, y.tally.obsInFailing);
        EXPECT_EQ(x.tally.obsInSucceeding, y.tally.obsInSucceeding);
        EXPECT_EQ(x.score.importance, y.score.importance);
    }
}

TEST(ExecDeterminism, CbiIdenticalAtOneAndEightJobs)
{
    CbiOptions opts;
    opts.failureRuns = 60;
    opts.successRuns = 60;
    expectSameLiblitCampaign(
        corpus::bugById("cp"), opts, runCbi,
        [](const CbiPredicateScore &x, const CbiPredicateScore &y) {
            return x.branch == y.branch && x.outcome == y.outcome;
        });
}

TEST(ExecDeterminism, PbiIdenticalAtOneAndEightJobs)
{
    PbiOptions opts;
    opts.period = 3;
    opts.failureRuns = 60;
    opts.successRuns = 60;
    expectSameLiblitCampaign(
        corpus::bugById("mozilla-js3"), opts, runPbi,
        [](const PbiPredicateScore &x, const PbiPredicateScore &y) {
            return x.pc == y.pc && x.state == y.state &&
                   x.store == y.store;
        });
}

TEST(ExecDeterminism, CciIdenticalAtOneAndEightJobs)
{
    CciOptions opts;
    opts.meanPeriod = 5.0;
    opts.failureRuns = 60;
    opts.successRuns = 60;
    expectSameLiblitCampaign(
        corpus::bugById("mozilla-js3"), opts, runCci,
        [](const CciPredicateScore &x, const CciPredicateScore &y) {
            return x.pc == y.pc && x.remote == y.remote;
        });
}

} // namespace
} // namespace stm
