/**
 * @file
 * End-to-end integration tests: whole diagnosis pipelines over the
 * corpus, cross-cutting properties (determinism of full campaigns,
 * LBR-depth effects, multiple failure sites), and the headline
 * claims of the paper as executable assertions.
 */

#include <gtest/gtest.h>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/log_enhance.hh"
#include "program/builder.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

using namespace regs;

TEST(Integration, LbrlogCapturesAScoredBranchForAll20)
{
    int captured = 0;
    for (BugSpec &bug : corpus::sequentialBugs()) {
        LbrLogReport report = runLbrLog(bug.program, bug.failing);
        ASSERT_TRUE(report.failed) << bug.id;
        std::size_t p = 0;
        if (bug.truth.rootCauseBranch != kNoSourceBranch)
            p = report.positionOfBranch(bug.truth.rootCauseBranch);
        if (p == 0 && bug.truth.relatedBranch != kNoSourceBranch)
            p = report.positionOfBranch(bug.truth.relatedBranch);
        captured += p != 0 ? 1 : 0;
    }
    EXPECT_EQ(captured, 20);
}

TEST(Integration, LbraRanksTheScoredBranchFirstForAll20)
{
    for (BugSpec &bug : corpus::sequentialBugs()) {
        AutoDiagResult result =
            runLbra(bug.program, bug.failing, bug.succeeding);
        ASSERT_TRUE(result.diagnosed) << bug.id;
        std::size_t p = 0;
        if (bug.truth.rootCauseBranch != kNoSourceBranch) {
            p = result.positionOf(EventKey::sourceBranch(
                bug.truth.rootCauseBranch,
                bug.truth.rootCauseOutcome));
        }
        if (p == 0 && bug.truth.relatedBranch != kNoSourceBranch) {
            p = result.positionOf(EventKey::sourceBranch(
                bug.truth.relatedBranch, bug.truth.relatedOutcome));
        }
        EXPECT_GE(p, 1u) << bug.id;
        EXPECT_LE(p, 2u) << bug.id;
    }
}

TEST(Integration, LcraDiagnosesSevenOfElevenAsInThePaper)
{
    int diagnosed = 0;
    for (BugSpec &bug : corpus::concurrencyBugs()) {
        AutoDiagOptions opts;
        opts.absencePredicates = true;
        if (bug.truth.fpeUnreachable)
            opts.maxAttempts = 1500; // expected misses: bound work
        AutoDiagResult result =
            runLcra(bug.program, bug.failing, bug.succeeding, opts);
        if (!result.diagnosed || bug.truth.fpeUnreachable)
            continue;
        EventKey fpe = EventKey::coherence(
            layout::codeAddr(bug.truth.fpeInstr),
            bug.truth.fpeState, bug.truth.fpeStore);
        if (result.positionOf(fpe) == 1)
            ++diagnosed;
    }
    EXPECT_EQ(diagnosed, 7);
}

TEST(Integration, WholeDiagnosisCampaignIsDeterministic)
{
    BugSpec bug1 = corpus::bugById("mozilla-js3");
    AutoDiagOptions opts;
    opts.absencePredicates = true;
    AutoDiagResult a =
        runLcra(bug1.program, bug1.failing, bug1.succeeding, opts);
    BugSpec bug2 = corpus::bugById("mozilla-js3");
    AutoDiagResult b =
        runLcra(bug2.program, bug2.failing, bug2.succeeding, opts);
    ASSERT_TRUE(a.diagnosed);
    ASSERT_TRUE(b.diagnosed);
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
        EXPECT_EQ(a.ranking[i].event, b.ranking[i].event);
        EXPECT_DOUBLE_EQ(a.ranking[i].score, b.ranking[i].score);
    }
    EXPECT_EQ(a.failureAttempts, b.failureAttempts);
}

TEST(Integration, DeeperLbrCapturesMore)
{
    // The ln root cause needs more than 16 entries (the paper's
    // Figure 9b discussion: captured with ~4 more entries).
    BugSpec bug = corpus::bugById("ln");
    LogEnhanceOptions deep;
    deep.lbrEntries = 32;
    LbrLogReport report = runLbrLog(bug.program, bug.failing, deep);
    ASSERT_TRUE(report.failed);
    EXPECT_GT(report.positionOfBranch(bug.truth.rootCauseBranch),
              0u);

    LogEnhanceOptions narrow;
    narrow.lbrEntries = 16;
    LbrLogReport report16 =
        runLbrLog(bug.program, bug.failing, narrow);
    EXPECT_EQ(report16.positionOfBranch(bug.truth.rootCauseBranch),
              0u);
}

TEST(Integration, MultipleFailureSitesAreSeparated)
{
    // Two different inputs fail at two different sites; LBRA pins
    // one site per campaign and ignores the other failures
    // (Section 5.3, "Multiple failures").
    ProgramBuilder b("multi");
    b.global("x", 1, {0});
    b.func("main");
    b.loadg(r1, "x");
    b.movi(r2, 1);
    SourceBranchId brA = b.beginIf(Cond::Eq, r1, r2, "x == 1");
    b.logError("failure A");
    b.endIf();
    b.movi(r2, 2);
    SourceBranchId brB = b.beginIf(Cond::Eq, r1, r2, "x == 2");
    b.logError("failure B");
    b.endIf();
    b.halt();
    ProgramPtr prog = b.build();

    // A failing workload that alternates between the two bugs: the
    // first observed failure (x == 1) pins the site.
    Workload failing;
    failing.base.globalOverrides = {{"x", {1}}};
    Workload succeeding;
    succeeding.base.globalOverrides = {{"x", {0}}};

    AutoDiagResult result = runLbra(prog, failing, succeeding);
    ASSERT_TRUE(result.diagnosed);
    EXPECT_EQ(result.positionOf(EventKey::sourceBranch(brA, true)),
              1u);
    EXPECT_EQ(result.positionOf(EventKey::sourceBranch(brB, true)),
              0u); // never observed in any profile... or ranked low
}

TEST(Integration, HangDiagnosisCapturesTheLoop)
{
    BugSpec bug = corpus::bugById("paste");
    LbrLogReport report = runLbrLog(bug.program, bug.failing);
    ASSERT_TRUE(report.failed);
    EXPECT_EQ(report.run.outcome, RunOutcome::StepLimit);
    EXPECT_GT(report.positionOfBranch(bug.truth.rootCauseBranch),
              0u);
}

TEST(Integration, TogglingTradeoffAcrossTheCorpus)
{
    // Without toggling, at least 4 of the 20 sequential failures
    // lose their scored branch (paper: 5), and none gains one.
    int lost = 0;
    for (BugSpec &bug : corpus::sequentialBugs()) {
        LogEnhanceOptions tog;
        LbrLogReport with =
            runLbrLog(bug.program, bug.failing, tog);
        LogEnhanceOptions noTog;
        noTog.toggling = false;
        LbrLogReport without =
            runLbrLog(bug.program, bug.failing, noTog);
        auto captured = [&](const LbrLogReport &r) {
            std::size_t p = 0;
            if (bug.truth.rootCauseBranch != kNoSourceBranch)
                p = r.positionOfBranch(bug.truth.rootCauseBranch);
            if (p == 0 &&
                bug.truth.relatedBranch != kNoSourceBranch)
                p = r.positionOfBranch(bug.truth.relatedBranch);
            return p != 0;
        };
        if (captured(with) && !captured(without))
            ++lost;
        EXPECT_FALSE(!captured(with) && captured(without))
            << bug.id;
    }
    EXPECT_GE(lost, 4);
}

TEST(Integration, ProfilesNeverContainDataAddresses)
{
    // Privacy: LBR holds instruction addresses, LCR holds pcs and
    // states — no data addresses or values anywhere in a profile.
    BugSpec bug = corpus::bugById("mozilla-js3");
    LcrLogReport lcr = runLcrLog(bug.program, bug.failing);
    ASSERT_TRUE(lcr.failed);
    for (const auto &rec : lcr.record) {
        EXPECT_LT(rec.pc, layout::kGlobalBase)
            << "LCR pc must be a code address";
    }
    LbrLogReport lbr = runLbrLog(bug.program, bug.failing);
    for (const auto &rec : lbr.record) {
        EXPECT_LT(rec.fromIp, layout::kGlobalBase);
    }
}

TEST(Integration, BtsAlwaysCapturesButCostsTooMuch)
{
    // Section 2.1: BTS holds the whole history (so even ln's deep
    // root cause is present) but its per-branch memory writes cost
    // production-scale overhead.
    BugSpec bug = corpus::bugById("ln");
    auto plan = std::make_shared<Instrumentation>();
    transform::applyBts(*plan, msr::kPaperLbrSelect);

    Machine failing(bug.program, bug.failing.forRun(0), plan);
    RunResult failRun = failing.run();
    ASSERT_TRUE(bug.failing.isFailure(failRun));
    bool found = false;
    for (const auto &entry : failRun.btsTrace) {
        found = found ||
                entry.record.srcBranch == bug.truth.rootCauseBranch;
    }
    EXPECT_TRUE(found); // beyond LBR's 16-entry horizon

    Machine production(bug.program, bug.succeeding.forRun(0), plan);
    RunResult prodRun = production.run();
    EXPECT_GT(prodRun.stats.steadyOverhead(), 0.20);
}

TEST(Integration, NoiseRobustRankingUnderTinyCache)
{
    // Section 5.3: eviction-induced invalid states appear in success
    // and failure runs alike; the ranking filters them. A 512-byte
    // L1 forces evictions and LCRA still ranks the FPE first.
    BugSpec bug = corpus::bugById("mysql2");
    CacheGeometry geo;
    geo.sizeBytes = 512;
    geo.assoc = 2;
    geo.blockBytes = 64;
    bug.failing.base.cache = geo;
    bug.succeeding.base.cache = geo;
    AutoDiagOptions opts;
    opts.absencePredicates = true;
    AutoDiagResult result =
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    ASSERT_TRUE(result.diagnosed);
    EXPECT_EQ(result.positionOf(EventKey::coherence(
                  layout::codeAddr(bug.truth.fpeInstr),
                  bug.truth.fpeState, bug.truth.fpeStore)),
              1u);
}

} // namespace
} // namespace stm
