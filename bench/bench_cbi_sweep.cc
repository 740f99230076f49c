/**
 * @file
 * Reproduces the Section 7.2 CBI run-budget study across the whole
 * C-program corpus: with 1000 + 1000 runs CBI identifies root-cause
 * branches for most programs, but at 500 failing runs it "failed to
 * identify any useful failure predictors for 10 out of 15 C-program
 * failures" — the observation behind LBRA's diagnosis-latency
 * advantage (LBRA uses 10).
 *
 * "Diagnosed" here means the root-cause (or related) branch ranks in
 * the top 3 predictors.
 */

#include <iostream>

#include "baseline/cbi.hh"
#include "corpus/registry.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

std::size_t
scoredRank(const BugSpec &bug, const CbiResult &result)
{
    if (!result.completed)
        return 0;
    std::size_t rank = 0;
    if (bug.truth.rootCauseBranch != kNoSourceBranch)
        rank = result.positionOfBranch(bug.truth.rootCauseBranch);
    if (rank == 0 && bug.truth.relatedBranch != kNoSourceBranch)
        rank = result.positionOfBranch(bug.truth.relatedBranch);
    return rank;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "CBI run-budget sweep over the 15 C-program "
                 "failures (Section 7.2)\n\n"
              << cell("App", 11) << cell("@10", 7) << cell("@100", 7)
              << cell("@500", 7) << cell("@1000", 7) << '\n';

    const std::uint32_t budgets[] = {10, 100, 500, 1000};
    int diagnosedAt[4] = {0, 0, 0, 0};
    int cPrograms = 0;
    for (BugSpec &bug : corpus::sequentialBugs()) {
        if (bug.isCpp)
            continue;
        ++cPrograms;
        std::cout << cell(bug.app, 11);
        for (int i = 0; i < 4; ++i) {
            CbiOptions opts;
            opts.failureRuns = budgets[i];
            opts.successRuns = budgets[i];
            CbiResult result =
                runCbi(bug.program, bug.failing, bug.succeeding,
                       opts);
            std::size_t rank = scoredRank(bug, result);
            bool diagnosed = rank >= 1 && rank <= 3;
            diagnosedAt[i] += diagnosed ? 1 : 0;
            std::cout << cell(position(static_cast<long>(rank)), 7);
        }
        std::cout << '\n';
    }

    std::cout << "\ndiagnosed (rank <= 3): ";
    for (int i = 0; i < 4; ++i) {
        std::cout << diagnosedAt[i] << '/' << cPrograms << " @"
                  << budgets[i] << "  ";
    }
    std::cout << "\n(paper: 11/15 at 1000; at 500 CBI produced no "
                 "useful predictors for 10 of 15; LBRA needs ~10 "
                 "failures)\n";
    return 0;
}
