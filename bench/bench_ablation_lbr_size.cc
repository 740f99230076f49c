/**
 * @file
 * LBR-depth ablation (Section 7.1.2): the paper observes that most
 * root-cause branches sit within the top 8 LBR entries, so even older
 * processors with 4- or 8-entry LBRs would help. This bench runs
 * LBRLOG (with toggling) on all 20 sequential failures with LBR
 * depths 4 / 8 / 16 / 32 and counts how many root-cause (or related)
 * branches are captured at each depth.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "diag/log_enhance.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "LBR-depth ablation: sequential failures whose "
                 "root-cause/related branch is captured by LBRLOG\n\n"
              << cell("depth", 8) << cell("captured", 10)
              << cell("within top 8", 14) << '\n';

    for (std::size_t depth : {4u, 8u, 16u, 32u}) {
        int captured = 0;
        int withinEight = 0;
        for (BugSpec &bug : corpus::sequentialBugs()) {
            LogEnhanceOptions opts;
            opts.lbrEntries = depth;
            LbrLogReport report =
                runLbrLog(bug.program, bug.failing, opts);
            if (!report.failed)
                continue;
            std::size_t p = 0;
            if (bug.truth.rootCauseBranch != kNoSourceBranch)
                p = report.positionOfBranch(
                    bug.truth.rootCauseBranch);
            if (p == 0 && bug.truth.relatedBranch != kNoSourceBranch)
                p = report.positionOfBranch(bug.truth.relatedBranch);
            if (p != 0)
                ++captured;
            if (p != 0 && p <= 8)
                ++withinEight;
        }
        std::cout << cell(std::to_string(depth), 8)
                  << cell(std::to_string(captured) + "/20", 10)
                  << cell(std::to_string(withinEight) + "/20", 14)
                  << '\n';
    }
    std::cout << "\n(paper: most root-cause branches are within the "
                 "top 8 entries; 16 entries capture branches for all "
                 "20 failures)\n";
    return 0;
}
