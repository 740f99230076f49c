/**
 * @file
 * Parameterized validation of the whole bug corpus: every
 * reproduction builds a well-formed, normalized program; its failing
 * workload actually fails the way Table 4 says; its succeeding
 * workload actually succeeds; and the recorded ground truth is
 * internally consistent.
 */

#include <gtest/gtest.h>

#include "corpus/registry.hh"
#include "support/logging.hh"
#include "program/transform.hh"
#include "vm/machine.hh"

namespace stm
{
namespace
{

std::vector<std::string>
allBugIds()
{
    std::vector<std::string> ids;
    for (const BugSpec &bug : corpus::allBugs())
        ids.push_back(bug.id);
    return ids;
}

std::vector<std::string>
sequentialIds()
{
    std::vector<std::string> ids;
    for (const BugSpec &bug : corpus::sequentialBugs())
        ids.push_back(bug.id);
    return ids;
}

std::vector<std::string>
concurrencyIds()
{
    std::vector<std::string> ids;
    for (const BugSpec &bug : corpus::concurrencyBugs())
        ids.push_back(bug.id);
    return ids;
}

/** Run the workload up to @p budget times; count failures. */
int
failuresIn(const BugSpec &bug, const Workload &workload, int budget)
{
    int failures = 0;
    for (int i = 0; i < budget; ++i) {
        Machine machine(bug.program, workload.forRun(i));
        RunResult run = machine.run();
        if (workload.isFailure(run))
            ++failures;
    }
    return failures;
}

class CorpusEntry : public ::testing::TestWithParam<std::string>
{
  protected:
    BugSpec bug_ = corpus::bugById(GetParam());
};

TEST_P(CorpusEntry, ProgramIsWellFormed)
{
    ASSERT_NE(bug_.program, nullptr);
    EXPECT_FALSE(bug_.program->code.empty());
    EXPECT_TRUE(bug_.program->isNormalized());
    EXPECT_FALSE(bug_.program->functions.empty());
    // Every instruction's file id resolves.
    for (const auto &inst : bug_.program->code)
        EXPECT_LT(inst.loc.file, bug_.program->files.size());
}

TEST_P(CorpusEntry, GroundTruthIsConsistent)
{
    const GroundTruth &truth = bug_.truth;
    if (truth.rootCauseBranch != kNoSourceBranch) {
        EXPECT_LT(truth.rootCauseBranch,
                  bug_.program->branches.size());
    }
    if (truth.relatedBranch != kNoSourceBranch) {
        EXPECT_LT(truth.relatedBranch,
                  bug_.program->branches.size());
    }
    if (bug_.isConcurrent && !truth.fpeUnreachable) {
        EXPECT_LT(truth.fpeInstr, bug_.program->code.size());
    }
    // Sequential entries must name a root-cause or related branch.
    if (!bug_.isConcurrent) {
        EXPECT_TRUE(truth.rootCauseBranch != kNoSourceBranch ||
                    truth.relatedBranch != kNoSourceBranch);
    }
}

TEST_P(CorpusEntry, FailingWorkloadFails)
{
    int budget = bug_.isConcurrent ? 60 : 1;
    EXPECT_GT(failuresIn(bug_, bug_.failing, budget), 0);
}

TEST_P(CorpusEntry, SucceedingWorkloadSucceeds)
{
    int budget = bug_.isConcurrent ? 40 : 1;
    int failures = failuresIn(bug_, bug_.succeeding, budget);
    // Concurrency bugs may rarely manifest even under the benign
    // schedule; sequential ones must be clean.
    if (bug_.isConcurrent)
        EXPECT_LT(failures, budget / 2);
    else
        EXPECT_EQ(failures, 0);
}

TEST_P(CorpusEntry, RunsAreDeterministicPerSeed)
{
    Machine a(bug_.program, bug_.failing.forRun(7));
    Machine b(bug_.program, bug_.failing.forRun(7));
    RunResult ra = a.run();
    RunResult rb = b.run();
    EXPECT_EQ(ra.outcome, rb.outcome);
    EXPECT_EQ(ra.output, rb.output);
    EXPECT_EQ(ra.stats.userInstructions, rb.stats.userInstructions);
}

INSTANTIATE_TEST_SUITE_P(AllBugs, CorpusEntry,
                         ::testing::ValuesIn(allBugIds()),
                         [](const auto &paramInfo) {
                             std::string name = paramInfo.param;
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

// ---- sequential-specific checks -------------------------------------------

class SequentialEntry : public ::testing::TestWithParam<std::string>
{
  protected:
    BugSpec bug_ = corpus::bugById(GetParam());
};

TEST_P(SequentialEntry, SymptomMatchesTable4)
{
    Machine machine(bug_.program, bug_.failing.forRun(0));
    RunResult run = machine.run();
    ASSERT_TRUE(bug_.failing.isFailure(run));
    switch (bug_.symptom) {
      case SymptomKind::ErrorMessage:
        EXPECT_EQ(run.outcome, RunOutcome::ErrorLogged);
        break;
      case SymptomKind::Crash:
        EXPECT_EQ(run.outcome, RunOutcome::SegFault);
        break;
      case SymptomKind::Hang:
        EXPECT_EQ(run.outcome, RunOutcome::StepLimit);
        break;
      default:
        break;
    }
}

TEST_P(SequentialEntry, FailureIsInputDeterministic)
{
    // Sequential failures depend on the input, not on scheduling:
    // every seed of the failing workload fails.
    for (int i = 0; i < 3; ++i) {
        Machine machine(bug_.program, bug_.failing.forRun(i));
        EXPECT_TRUE(bug_.failing.isFailure(machine.run()));
    }
}

INSTANTIATE_TEST_SUITE_P(Sequential, SequentialEntry,
                         ::testing::ValuesIn(sequentialIds()),
                         [](const auto &paramInfo) {
                             std::string name = paramInfo.param;
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

// ---- concurrency-specific checks -------------------------------------------

class ConcurrencyEntry
    : public ::testing::TestWithParam<std::string>
{
  protected:
    BugSpec bug_ = corpus::bugById(GetParam());
};

TEST_P(ConcurrencyEntry, ManifestationIsScheduleDependent)
{
    // Some seeds fail and some succeed under the racy workload: the
    // bug is an interleaving bug, not an input bug.
    int failures = failuresIn(bug_, bug_.failing, 80);
    EXPECT_GT(failures, 0);
    EXPECT_LT(failures, 80);
}

TEST_P(ConcurrencyEntry, DiagnosableBugsExposeTheFpe)
{
    if (bug_.truth.fpeUnreachable)
        GTEST_SKIP() << "paper-expected miss";
    // In at least one failing run, the FPE appears in the failure
    // thread's LCR under Conf2.
    transform::LcrLogPlan logPlan;
    logPlan.lcrConfigMask = lcrConfSpaceConsuming().pack();
    auto plan = std::make_shared<Instrumentation>();
    transform::applyLcrLog(*bug_.program, *plan, logPlan);

    bool seen = false;
    for (int i = 0; i < 300 && !seen; ++i) {
        Machine machine(bug_.program, bug_.failing.forRun(i), plan);
        RunResult run = machine.run();
        if (!bug_.failing.isFailure(run))
            continue;
        LogSiteId site = kSegfaultSite;
        if (run.failure)
            site = run.failure->site;
        else if (bug_.failing.failureSiteHint)
            site = *bug_.failing.failureSiteHint;
        const ProfileRecord *profile =
            run.lastProfile(ProfileKind::Lcr, site);
        if (!profile)
            continue;
        Addr pc = layout::codeAddr(bug_.truth.fpeInstr);
        for (const auto &rec : profile->lcr) {
            seen = seen || (rec.pc == pc &&
                            rec.observed == bug_.truth.fpeState &&
                            rec.store == bug_.truth.fpeStore);
        }
    }
    EXPECT_TRUE(seen);
}

INSTANTIATE_TEST_SUITE_P(Concurrency, ConcurrencyEntry,
                         ::testing::ValuesIn(concurrencyIds()),
                         [](const auto &paramInfo) {
                             std::string name = paramInfo.param;
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

// ---- registry ---------------------------------------------------------------

TEST(Registry, MatchesTable4Counts)
{
    EXPECT_EQ(corpus::sequentialBugs().size(), 20u);
    EXPECT_EQ(corpus::concurrencyBugs().size(), 11u);
    EXPECT_EQ(corpus::allBugs().size(), 31u);
    EXPECT_EQ(corpus::microBugs().size(), 6u);
}

TEST(Registry, IdsAreUnique)
{
    std::set<std::string> ids;
    for (const BugSpec &bug : corpus::allBugs())
        EXPECT_TRUE(ids.insert(bug.id).second) << bug.id;
}

TEST(Registry, UnknownIdIsFatal)
{
    EXPECT_THROW(corpus::bugById("no-such-bug"), FatalError);
}

TEST(Registry, CppBugsMarkedForCbiNa)
{
    int cpp = 0;
    for (const BugSpec &bug : corpus::sequentialBugs())
        cpp += bug.isCpp ? 1 : 0;
    EXPECT_EQ(cpp, 5); // cppcheck x3 + pbzip x2
}

TEST(Registry, MicroBugsCoverAllSixClasses)
{
    std::set<InterleavingKind> kinds;
    for (const BugSpec &bug : corpus::microBugs())
        kinds.insert(bug.interleaving);
    EXPECT_EQ(kinds.size(), 6u);
}

TEST(Registry, FreshProgramsPerCall)
{
    // Factories must return fresh programs so instrumentation never
    // leaks across experiments.
    BugSpec a = corpus::bugById("sort");
    BugSpec b = corpus::bugById("sort");
    EXPECT_NE(a.program.get(), b.program.get());
}

} // namespace
} // namespace stm
