/**
 * @file
 * Unit tests for the baselines: the Liblit statistical-debugging
 * scores and shared ranking, CBI sampling behavior and end-to-end
 * diagnosis, and the PBI/CCI concurrency baselines.
 */

#include <gtest/gtest.h>

#include <map>

#include "baseline/cbi.hh"
#include "baseline/cci.hh"
#include "baseline/liblit.hh"
#include "baseline/pbi.hh"
#include "corpus/registry.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

// ---- Liblit scores ---------------------------------------------------------

TEST(Liblit, PerfectPredictorHasHighImportance)
{
    LiblitTally tally;
    tally.trueInFailing = 100;
    tally.trueInSucceeding = 0;
    tally.obsInFailing = 100;
    tally.obsInSucceeding = 100;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.failure, 1.0);
    EXPECT_DOUBLE_EQ(score.context, 0.5);
    EXPECT_DOUBLE_EQ(score.increase, 0.5);
    EXPECT_GT(score.importance, 0.6);
}

TEST(Liblit, NonDiscriminatingPredicateIsPruned)
{
    // True in half the failing and half the succeeding runs where
    // observed: Failure == Context == 0.5 => Increase 0 => pruned.
    LiblitTally tally;
    tally.trueInFailing = 50;
    tally.trueInSucceeding = 50;
    tally.obsInFailing = 100;
    tally.obsInSucceeding = 100;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.increase, 0.0);
    EXPECT_DOUBLE_EQ(score.importance, 0.0);
}

TEST(Liblit, FailingOnlyObservationIsContextPruned)
{
    // A predicate whose site only executes in failing runs:
    // Context = 1 = Failure, so CBI prunes it (the sort case in
    // EXPERIMENTS.md).
    LiblitTally tally;
    tally.trueInFailing = 20;
    tally.obsInFailing = 20;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.importance, 0.0);
}

TEST(Liblit, UnobservedPredicateScoresZero)
{
    LiblitTally tally;
    LiblitScore score = liblitScore(tally, 100);
    EXPECT_DOUBLE_EQ(score.importance, 0.0);
}

TEST(Liblit, MoreFailingObservationsRankHigher)
{
    LiblitTally few;
    few.trueInFailing = 2;
    few.obsInFailing = 2;
    few.obsInSucceeding = 100;
    LiblitTally many = few;
    many.trueInFailing = 50;
    many.obsInFailing = 50;
    LiblitScore a = liblitScore(few, 100);
    LiblitScore b = liblitScore(many, 100);
    EXPECT_GT(b.importance, a.importance);
}

TEST(Liblit, RankingOrdersTiesByKeyAndSharesTheirRank)
{
    // Equal tallies score equal Importance; the shared ranking must
    // order them by key, which for PBI is (pc, store, state), so two
    // predicates differing only in MESI state have a fixed order.
    LiblitTally tied;
    tied.trueInFailing = 8;
    tied.obsInFailing = 10;
    tied.obsInSucceeding = 10;
    LiblitTally strong = tied;
    strong.trueInFailing = 10;
    LiblitTally pruned = tied;
    pruned.trueInSucceeding = 8;
    const Addr lo = layout::codeAddr(4);
    const Addr hi = layout::codeAddr(9);
    std::map<PbiKey, LiblitTally> tallies;
    tallies[{lo, true, MesiState::Invalid}] = tied;
    tallies[{lo, false, MesiState::Shared}] = tied;
    tallies[{lo, false, MesiState::Invalid}] = tied;
    tallies[{hi, false, MesiState::Modified}] = strong;
    tallies[{layout::codeAddr(1), false, MesiState::Invalid}] = pruned;

    PbiResult result;
    result.ranking = liblitRanking(tallies, 10);
    ASSERT_EQ(result.ranking.size(), 4u);
    const PbiKey want[] = {{hi, false, MesiState::Modified},
                           {lo, false, MesiState::Invalid},
                           {lo, false, MesiState::Shared},
                           {lo, true, MesiState::Invalid}};
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_TRUE(static_cast<const PbiKey &>(result.ranking[k]) ==
                    want[k])
            << "rank " << k;
    }
    EXPECT_GT(result.ranking[0].score.importance,
              result.ranking[1].score.importance);

    // Competition rank: the three tied entries share position 2.
    EXPECT_EQ(result.positionOf(9, MesiState::Modified, false), 1u);
    EXPECT_EQ(result.positionOf(4, MesiState::Shared, false), 2u);
    EXPECT_EQ(result.positionOf(4, MesiState::Invalid, true), 2u);
    EXPECT_EQ(result.positionOf(1, MesiState::Invalid, false), 0u);
}

// ---- CBI ---------------------------------------------------------------------

TEST(Cbi, DiagnosesCpWithManyRuns)
{
    BugSpec bug = corpus::bugById("cp");
    CbiOptions opts;
    opts.failureRuns = 800;
    opts.successRuns = 800;
    CbiResult result =
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    std::size_t rank =
        result.positionOfBranch(bug.truth.rootCauseBranch);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 3u);
}

TEST(Cbi, FailsWithFewRuns)
{
    // The diagnosis-latency story: at 1/100 sampling, a handful of
    // runs almost never samples the root-cause site.
    BugSpec bug = corpus::bugById("cp");
    CbiOptions opts;
    opts.failureRuns = 5;
    opts.successRuns = 5;
    CbiResult result =
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    std::size_t rank =
        result.completed
            ? result.positionOfBranch(bug.truth.rootCauseBranch)
            : 0;
    EXPECT_EQ(rank, 0u);
}

TEST(Cbi, SamplingRateControlsObservationCount)
{
    BugSpec bug = corpus::bugById("rm");
    CbiOptions sparse;
    sparse.meanPeriod = 10000.0;
    sparse.failureRuns = 20;
    sparse.successRuns = 20;
    CbiResult sparseResult =
        runCbi(bug.program, bug.failing, bug.succeeding, sparse);

    CbiOptions dense;
    dense.meanPeriod = 2.0;
    dense.failureRuns = 20;
    dense.successRuns = 20;
    CbiResult denseResult =
        runCbi(bug.program, bug.failing, bug.succeeding, dense);
    // Denser sampling observes far more predicates.
    EXPECT_GT(denseResult.ranking.size(),
              sparseResult.ranking.size());
}

TEST(Cbi, RankingSortedByImportance)
{
    BugSpec bug = corpus::bugById("rm");
    CbiOptions opts;
    opts.failureRuns = 100;
    opts.successRuns = 100;
    CbiResult result =
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    for (std::size_t i = 1; i < result.ranking.size(); ++i) {
        EXPECT_GE(result.ranking[i - 1].score.importance,
                  result.ranking[i].score.importance);
    }
}

// ---- PBI / CCI -------------------------------------------------------------

TEST(Pbi, SamplesTheFpeWithEnoughRuns)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    PbiOptions opts;
    opts.period = 3;
    opts.failureRuns = 300;
    opts.successRuns = 300;
    PbiResult result =
        runPbi(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    std::size_t rank = result.positionOf(
        bug.truth.fpeInstr, bug.truth.fpeState, bug.truth.fpeStore);
    // PBI finds the FPE with enough runs, though error-path noise
    // events (sampled more often than the once-per-run FPE) can
    // outrank it — unlike LCRA's deterministic rank 1.
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 10u);
}

TEST(Pbi, HardwareCountingIsNearlyFree)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    auto plan = std::make_shared<Instrumentation>();
    transform::applyPbi(*plan, 0x05, 0x01, 50);
    Machine machine(bug.program, bug.succeeding.forRun(0), plan);
    RunResult run = machine.run();
    // Counting itself charges nothing; only rare overflow interrupts.
    EXPECT_LT(run.stats.steadyOverhead(), 0.05);
}

TEST(Cci, SoftwareSamplingIsExpensive)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    auto plan = std::make_shared<Instrumentation>();
    transform::applyCci(*plan, 100.0);
    Machine machine(bug.program, bug.succeeding.forRun(0), plan);
    RunResult run = machine.run();
    // Per-access fast-path instrumentation: an order of magnitude
    // above anything LBR/LCR-based (CCI's published 10x worst case).
    EXPECT_GT(run.stats.steadyOverhead(), 0.10);
}

TEST(Cci, CampaignCompletesAndRanks)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    CciOptions opts;
    opts.meanPeriod = 5.0; // dense sampling to keep the test fast
    opts.failureRuns = 100;
    opts.successRuns = 100;
    CciResult result =
        runCci(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.completed);
    EXPECT_FALSE(result.ranking.empty());
    std::size_t rank = result.positionOf(bug.truth.fpeInstr, true);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 5u);
}

} // namespace
} // namespace stm
