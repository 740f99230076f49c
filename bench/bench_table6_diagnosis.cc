/**
 * @file
 * Reproduces the diagnosis half of Table 6: for each of the 20
 * sequential-bug failures —
 *   - the LBR position of the root-cause branch reported by LBRLOG,
 *     with and without library toggling,
 *   - the rank LBRA assigns it from 10 failure + 10 success profiles,
 *   - the rank CBI assigns it from 1000 + 1000 sampled runs
 *     (N/A for the C++ applications), and
 *   - the patch distances from the failure site and from the captured
 *     LBR branches.
 * Paper values are printed alongside for comparison. Positions match
 * the paper in shape (who is captured, roughly how deep, which cases
 * degrade without toggling), not cell-for-cell.
 */

#include <algorithm>
#include <iostream>

#include "baseline/cbi.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/log_enhance.hh"
#include "diag/report.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

/** Position of the scored branch in an LBRLOG record ("" markers). */
std::string
lbrlogCell(const BugSpec &bug, const LbrLogReport &report)
{
    if (!report.failed)
        return "no-fail";
    if (bug.truth.rootCauseBranch != kNoSourceBranch) {
        std::size_t p =
            report.positionOfBranch(bug.truth.rootCauseBranch);
        if (p != 0)
            return position(static_cast<long>(p));
    }
    if (bug.truth.relatedBranch != kNoSourceBranch) {
        std::size_t p =
            report.positionOfBranch(bug.truth.relatedBranch);
        if (p != 0)
            return position(static_cast<long>(p), true);
    }
    return "-";
}

/** Minimum patch distance over the branches captured in the LBR. */
int
lbrPatchDistance(const BugSpec &bug,
                 const LbrLogReport &report)
{
    int best = -1;
    for (const auto &record : report.record) {
        if (record.srcBranch == kNoSourceBranch)
            continue;
        const SourceBranchInfo &info =
            bug.program->branch(record.srcBranch);
        int d = patchDistance(info.loc, bug.truth.patchLoc);
        if (d >= 0 && (best < 0 || d < best))
            best = d;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout
        << "Table 6 (diagnosis): LBRLOG / LBRA / CBI on the 20 "
           "sequential-bug failures\n"
        << "(measured | paper)  '*' = root-cause-related branch, "
           "'-' = not captured, N/A = CBI cannot run (C++)\n\n";
    std::cout << cell("App", 11) << cell("LOG w/tog", 12)
              << cell("LOG w/o tog", 13) << cell("LBRA", 10)
              << cell("CBI", 10) << cell("dist(fail)", 12)
              << cell("dist(LBR)", 12) << '\n';

    int veryHelpful = 0, helpful = 0;
    for (BugSpec &bug : corpus::sequentialBugs()) {
        // LBRLOG with toggling.
        LogEnhanceOptions withTog;
        LbrLogReport logTog =
            runLbrLog(bug.program, bug.failing, withTog);
        std::string cTog = lbrlogCell(bug, logTog);

        // LBRLOG without toggling.
        LogEnhanceOptions noTog;
        noTog.toggling = false;
        LbrLogReport logNoTog =
            runLbrLog(bug.program, bug.failing, noTog);
        std::string cNoTog = lbrlogCell(bug, logNoTog);

        // LBRA (reactive scheme, 10 + 10 profiles).
        AutoDiagResult lbra =
            runLbra(bug.program, bug.failing, bug.succeeding);
        std::string cLbra = "-";
        bool lbraRelated = false;
        if (lbra.diagnosed) {
            std::size_t p = 0;
            if (bug.truth.rootCauseBranch != kNoSourceBranch) {
                p = lbra.positionOf(EventKey::sourceBranch(
                    bug.truth.rootCauseBranch,
                    bug.truth.rootCauseOutcome));
            }
            if (p == 0 &&
                bug.truth.relatedBranch != kNoSourceBranch) {
                p = lbra.positionOf(EventKey::sourceBranch(
                    bug.truth.relatedBranch,
                    bug.truth.relatedOutcome));
                lbraRelated = p != 0;
            }
            cLbra = position(static_cast<long>(p), lbraRelated);
        }

        // CBI (1000 + 1000 runs at 1/100 sampling).
        std::string cCbi = "N/A";
        if (!bug.isCpp) {
            CbiResult cbi =
                runCbi(bug.program, bug.failing, bug.succeeding);
            std::size_t p = 0;
            bool rel = false;
            if (cbi.completed) {
                if (bug.truth.rootCauseBranch != kNoSourceBranch) {
                    p = cbi.positionOfBranch(
                        bug.truth.rootCauseBranch);
                }
                if (p == 0 &&
                    bug.truth.relatedBranch != kNoSourceBranch) {
                    p = cbi.positionOfBranch(bug.truth.relatedBranch);
                    rel = p != 0;
                }
            }
            cCbi = position(static_cast<long>(p), rel);
        }

        int distFail =
            patchDistance(bug.truth.failureLoc, bug.truth.patchLoc);
        int distLbr = lbrPatchDistance(bug, logTog);

        if (cTog != "-" && cTog != "no-fail" &&
            cTog.back() != '*') {
            ++veryHelpful;
        } else if (cTog != "-" && cTog != "no-fail") {
            ++helpful;
        }

        std::cout << cell(bug.app, 11)
                  << cell(cTog + " | " +
                              position(bug.paper.lbrlogTog,
                                       bug.truth.rootCauseBranch ==
                                           kNoSourceBranch),
                          12)
                  << cell(cNoTog + " | " +
                              position(bug.paper.lbrlogNoTog),
                          13)
                  << cell(cLbra + " | " + position(bug.paper.lbra),
                          10)
                  << cell(cCbi + " | " + position(bug.paper.cbi), 10)
                  << cell(distance(distFail) + " | " +
                              distance(
                                  bug.paper.patchDistFailureSite),
                          12)
                  << cell(distance(distLbr) + " | " +
                              distance(bug.paper.patchDistLbr),
                          12)
                  << '\n';
    }
    std::cout << "\nLBRLOG captured the scored branch for "
              << veryHelpful + helpful << "/20 failures ("
              << veryHelpful
              << " root-cause, paper: 20/20 with 16 root-cause)\n";
    return 0;
}
