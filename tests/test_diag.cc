/**
 * @file
 * Unit tests for the diagnosis core: event keys, the statistical
 * ranker of Section 5.2 (precision / recall / harmonic mean, absence
 * predicates, competition ranking), LBRLOG/LCRLOG, LBRA/LCRA, and
 * the patch-distance metric.
 */

#include <gtest/gtest.h>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/event_key.hh"
#include "diag/log_enhance.hh"
#include "diag/ranker.hh"
#include "diag/report.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

// ---- EventKey -----------------------------------------------------------

TEST(EventKey, FactoriesDistinguishTypes)
{
    EventKey b = EventKey::sourceBranch(3, true);
    EventKey r = EventKey::rawBranch(0x500000);
    EventKey c =
        EventKey::coherence(0x400100, MesiState::Invalid, false);
    EXPECT_NE(b, r);
    EXPECT_NE(b, c);
    EXPECT_NE(r, c);
    EXPECT_EQ(b, EventKey::sourceBranch(3, true));
    EXPECT_NE(b, EventKey::sourceBranch(3, false));
}

TEST(EventKey, CoherencePacksStateAndAccessType)
{
    EventKey loadI =
        EventKey::coherence(1, MesiState::Invalid, false);
    EventKey storeI =
        EventKey::coherence(1, MesiState::Invalid, true);
    EventKey loadE =
        EventKey::coherence(1, MesiState::Exclusive, false);
    EXPECT_NE(loadI, storeI);
    EXPECT_NE(loadI, loadE);
}

TEST(EventKey, LbrRecordsMapToSourceBranchOrRawIp)
{
    BranchRecord mapped;
    mapped.srcBranch = 7;
    mapped.outcome = true;
    EXPECT_EQ(eventOfBranchRecord(mapped),
              EventKey::sourceBranch(7, true));

    BranchRecord raw;
    raw.fromIp = 0x500123;
    raw.srcBranch = kNoSourceBranch;
    EXPECT_EQ(eventOfBranchRecord(raw),
              EventKey::rawBranch(0x500123));
}

TEST(EventKey, EventSetsDeduplicate)
{
    std::vector<BranchRecord> records(5);
    for (auto &r : records) {
        r.srcBranch = 1;
        r.outcome = false;
    }
    EXPECT_EQ(eventsOfLbr(records).size(), 1u);
}

// ---- Ranker ----------------------------------------------------------------

TEST(Ranker, PerfectPredictorScoresOne)
{
    Ranker ranker;
    EventKey e = EventKey::sourceBranch(0, true);
    EventKey noise = EventKey::sourceBranch(1, true);
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(true, {e, noise});
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(false, {noise});
    auto ranking = ranker.rank();
    ASSERT_FALSE(ranking.empty());
    EXPECT_EQ(ranking[0].event, e);
    EXPECT_DOUBLE_EQ(ranking[0].precision, 1.0);
    EXPECT_DOUBLE_EQ(ranking[0].recall, 1.0);
    EXPECT_DOUBLE_EQ(ranking[0].score, 1.0);
    EXPECT_EQ(scoring::positionOf(ranking, e), 1u);
}

TEST(Ranker, HarmonicMeanFormula)
{
    // e in 5/10 failures and 0 successes: P=1, R=0.5, F1=2/3.
    Ranker ranker;
    EventKey e = EventKey::sourceBranch(0, true);
    for (int i = 0; i < 5; ++i)
        ranker.addProfile(true, {e});
    for (int i = 0; i < 5; ++i)
        ranker.addProfile(true, {});
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(false, {});
    auto ranking = ranker.rank();
    ASSERT_EQ(ranking.size(), 1u);
    EXPECT_DOUBLE_EQ(ranking[0].precision, 1.0);
    EXPECT_DOUBLE_EQ(ranking[0].recall, 0.5);
    EXPECT_NEAR(ranking[0].score, 2.0 / 3.0, 1e-12);
}

TEST(Ranker, PrecisionPenalizesSuccessOccurrences)
{
    // e in all 10 failures and all 10 successes: P=0.5, R=1.
    Ranker ranker;
    EventKey e = EventKey::sourceBranch(0, true);
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(true, {e});
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(false, {e});
    auto ranking = ranker.rank();
    EXPECT_DOUBLE_EQ(ranking[0].precision, 0.5);
    EXPECT_DOUBLE_EQ(ranking[0].recall, 1.0);
    EXPECT_NEAR(ranking[0].score, 2.0 / 3.0, 1e-12);
}

TEST(Ranker, BestPredictorWins)
{
    Ranker ranker;
    EventKey good = EventKey::sourceBranch(0, true);
    EventKey meh = EventKey::sourceBranch(1, true);
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(true, {good, meh});
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(false, i < 5 ? std::set<EventKey>{meh}
                                        : std::set<EventKey>{});
    auto ranking = ranker.rank();
    EXPECT_EQ(ranking[0].event, good);
    EXPECT_GT(ranking[0].score, ranking[1].score);
}

TEST(Ranker, AbsencePredicates)
{
    // e appears in every success and never in failures: the absence
    // of e predicts failure perfectly (Section 4.2.2's Conf1 case).
    Ranker ranker;
    EventKey e = EventKey::coherence(1, MesiState::Shared, false);
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(true, {});
    for (int i = 0; i < 10; ++i)
        ranker.addProfile(false, {e});
    auto ranking = ranker.rank(/*include_absence=*/true);
    ASSERT_EQ(ranking.size(), 2u);
    EXPECT_TRUE(ranking[0].absence);
    EXPECT_DOUBLE_EQ(ranking[0].score, 1.0);
    EXPECT_EQ(
        scoring::positionOf(ranking, e, /*absence=*/true),
        1u);
    EXPECT_GT(
        scoring::positionOf(ranking, e, /*absence=*/false),
        1u);
}

TEST(Ranker, CompetitionRankingSharesTies)
{
    Ranker ranker;
    EventKey a = EventKey::sourceBranch(0, true);
    EventKey b = EventKey::sourceBranch(1, true);
    EventKey c = EventKey::sourceBranch(2, true);
    for (int i = 0; i < 4; ++i)
        ranker.addProfile(true, {a, b, c});
    for (int i = 0; i < 4; ++i)
        ranker.addProfile(false, {c});
    auto ranking = ranker.rank();
    // a and b are perfectly correlated: both rank 1.
    EXPECT_EQ(scoring::positionOf(ranking, a), 1u);
    EXPECT_EQ(scoring::positionOf(ranking, b), 1u);
    EXPECT_EQ(scoring::positionOf(ranking, c), 3u);
}

TEST(Ranker, UnknownEventHasPositionZero)
{
    Ranker ranker;
    ranker.addProfile(true, {EventKey::sourceBranch(0, true)});
    auto ranking = ranker.rank();
    EXPECT_EQ(scoring::positionOf(
                  ranking, EventKey::sourceBranch(9, true)),
              0u);
}

// ---- patch distance --------------------------------------------------------

TEST(Report, PatchDistanceWithinFile)
{
    EXPECT_EQ(patchDistance(SourceLoc{0, 93}, SourceLoc{0, 97}), 4);
    EXPECT_EQ(patchDistance(SourceLoc{0, 97}, SourceLoc{0, 93}), 4);
    EXPECT_EQ(patchDistance(SourceLoc{0, 5}, SourceLoc{0, 5}), 0);
}

TEST(Report, PatchDistanceAcrossFilesIsInfinite)
{
    EXPECT_EQ(patchDistance(SourceLoc{0, 1}, SourceLoc{1, 1}), -1);
    EXPECT_EQ(patchDistanceString(-1), "inf");
    EXPECT_EQ(patchDistanceString(12), "12");
}

// ---- LBRLOG / LBRA on the flagship bugs ------------------------------------

TEST(LbrLog, CapturesSortRootCauseBranch)
{
    BugSpec bug = corpus::bugById("sort");
    LbrLogReport report = runLbrLog(bug.program, bug.failing);
    ASSERT_TRUE(report.failed);
    EXPECT_EQ(report.run.outcome, RunOutcome::SegFault);
    std::size_t pos =
        report.positionOfBranch(bug.truth.rootCauseBranch);
    EXPECT_GE(pos, 1u);
    EXPECT_LE(pos, 8u);
}

TEST(LbrLog, SmallerLbrMayMissDeepRootCauses)
{
    BugSpec bug = corpus::bugById("ln"); // root needs > 16 entries
    LogEnhanceOptions opts;
    opts.lbrEntries = 4;
    LbrLogReport report = runLbrLog(bug.program, bug.failing, opts);
    ASSERT_TRUE(report.failed);
    EXPECT_EQ(report.positionOfBranch(bug.truth.relatedBranch), 0u);
}

TEST(Lbra, RanksSortRootCauseFirst)
{
    BugSpec bug = corpus::bugById("sort");
    AutoDiagResult result =
        runLbra(bug.program, bug.failing, bug.succeeding);
    ASSERT_TRUE(result.diagnosed);
    EXPECT_EQ(result.positionOf(EventKey::sourceBranch(
                  bug.truth.rootCauseBranch,
                  bug.truth.rootCauseOutcome)),
              1u);
    EXPECT_EQ(result.failureRunsUsed, 10u);
    EXPECT_EQ(result.successRunsUsed, 10u);
}

TEST(Lbra, ProactiveSchemeAlsoDiagnosesLoggedFailures)
{
    BugSpec bug = corpus::bugById("rm"); // error-message symptom
    AutoDiagOptions opts;
    opts.scheme = transform::SuccessSiteScheme::Proactive;
    AutoDiagResult result =
        runLbra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.diagnosed);
    EXPECT_EQ(result.positionOf(EventKey::sourceBranch(
                  bug.truth.rootCauseBranch,
                  bug.truth.rootCauseOutcome)),
              1u);
}

TEST(Lbra, FewerProfilesStillDiagnoseCleanBugs)
{
    BugSpec bug = corpus::bugById("rm");
    AutoDiagOptions opts;
    opts.failureProfiles = 2;
    opts.successProfiles = 2;
    AutoDiagResult result =
        runLbra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.diagnosed);
    EXPECT_EQ(result.positionOf(EventKey::sourceBranch(
                  bug.truth.rootCauseBranch,
                  bug.truth.rootCauseOutcome)),
              1u);
}

// ---- LCRLOG / LCRA on the flagship concurrency bug --------------------------

TEST(LcrLog, CapturesMozillaJs3Fpe)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    LcrLogReport report = runLcrLog(bug.program, bug.failing);
    ASSERT_TRUE(report.failed);
    std::size_t pos = report.positionOfEvent(
        bug.truth.fpeInstr, bug.truth.fpeState, bug.truth.fpeStore);
    EXPECT_GE(pos, 1u);
    EXPECT_LE(pos, 16u);
    // The failure thread is where the invalid read happened.
    EXPECT_EQ(report.failureThread, 0u);
}

TEST(LcrLog, Conf1IsMoreSpaceSavingThanConf2)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    LogEnhanceOptions conf1;
    conf1.lcrConfig = lcrConfSpaceSaving();
    LcrLogReport r1 = runLcrLog(bug.program, bug.failing, conf1);
    LogEnhanceOptions conf2;
    conf2.lcrConfig = lcrConfSpaceConsuming();
    LcrLogReport r2 = runLcrLog(bug.program, bug.failing, conf2);
    ASSERT_TRUE(r1.failed);
    ASSERT_TRUE(r2.failed);
    std::size_t p1 = r1.positionOfEvent(bug.truth.conf1Instr,
                                        bug.truth.conf1State,
                                        bug.truth.conf1Store);
    std::size_t p2 = r2.positionOfEvent(
        bug.truth.fpeInstr, bug.truth.fpeState, bug.truth.fpeStore);
    ASSERT_GE(p1, 1u);
    ASSERT_GE(p2, 1u);
    EXPECT_LT(p1, p2);
}

TEST(LogEnhance, LeavesTheProgramUninstrumented)
{
    // LBRLOG and LCRLOG run under their own plans: the caller's
    // shared program still runs bare afterwards.
    BugSpec bug = corpus::bugById("sort");
    LbrLogReport lbr = runLbrLog(bug.program, bug.failing);
    ASSERT_TRUE(lbr.failed);
    LcrLogReport report = runLcrLog(bug.program, bug.failing);
    ASSERT_TRUE(report.failed);

    RunResult run =
        Machine(bug.program, bug.failing.forRun(report.attempts - 1))
            .run();
    EXPECT_TRUE(bug.failing.isFailure(run));
    EXPECT_TRUE(run.profiles.empty());
    EXPECT_EQ(run.stats.instrumentationInstructions, 0u);
}

TEST(Lcra, RanksMozillaJs3FpeFirst)
{
    BugSpec bug = corpus::bugById("mozilla-js3");
    AutoDiagOptions opts;
    opts.absencePredicates = true;
    AutoDiagResult result =
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.diagnosed);
    EventKey fpe = EventKey::coherence(
        layout::codeAddr(bug.truth.fpeInstr), bug.truth.fpeState,
        bug.truth.fpeStore);
    EXPECT_EQ(result.positionOf(fpe), 1u);
}

TEST(Lcra, SilentCorruptionIsNotDiagnosed)
{
    BugSpec bug = corpus::bugById("mozilla-js2");
    AutoDiagOptions opts;
    opts.maxAttempts = 2000;
    AutoDiagResult result =
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    EXPECT_FALSE(result.diagnosed);
}

TEST(Lcra, WrongOutputBugDiagnosedViaCheckpoint)
{
    BugSpec bug = corpus::bugById("mysql2");
    AutoDiagOptions opts;
    opts.absencePredicates = true;
    AutoDiagResult result =
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.diagnosed);
    EventKey fpe = EventKey::coherence(
        layout::codeAddr(bug.truth.fpeInstr), bug.truth.fpeState,
        bug.truth.fpeStore);
    EXPECT_EQ(result.positionOf(fpe), 1u);
}

TEST(Diag, ReportsRenderWithoutCrashing)
{
    BugSpec bug = corpus::bugById("sort");
    LbrLogReport log = runLbrLog(bug.program, bug.failing);
    std::ostringstream os;
    printLbrLogReport(os, *bug.program, log);
    EXPECT_NE(os.str().find("LBRLOG"), std::string::npos);
    EXPECT_NE(os.str().find("sort.c"), std::string::npos);

    AutoDiagResult lbra =
        runLbra(bug.program, bug.failing, bug.succeeding);
    std::ostringstream os2;
    printRanking(os2, *bug.program, lbra);
    EXPECT_NE(os2.str().find("#1"), std::string::npos);
}

} // namespace
} // namespace stm
