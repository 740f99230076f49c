/**
 * @file
 * Reproduces Table 5: the useful-branch ratio — the fraction of LBR
 * entries whose taken-ness cannot be inferred from the logging site
 * by static control-flow analysis — averaged over every
 * failure-logging site of the 13 C applications (Section 7.1.1).
 *
 * The paper's analyzer explores backward along all paths from each
 * logging site until each path holds 16 branch records; ours does the
 * same over the MiniVM CFG (interprocedurally, with exploration
 * budgets). Expected shape: every application in the 0.7-1.0 band.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "program/cfg.hh"
#include "program/static_analysis.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

struct AppRow
{
    const char *bugId;
    const char *app;
    double paperRatio;
    int paperLogSites;
    const char *logFn;
};

constexpr AppRow kApps[] = {
    {"apache1", "Apache", 0.86, 2515, "ap_log_error"},
    {"cp", "cp", 0.77, 108, "error"},
    {"cppcheck1", "cppcheck", 0.98, 304, "reportError"},
    {"lighttpd", "lighttpd", 0.84, 857, "log_error_write"},
    {"ln", "ln", 0.81, 29, "error"},
    {"mv", "mv", 0.74, 46, "error"},
    {"paste", "paste", 0.86, 23, "error"},
    {"pbzip1", "pbzip", 0.81, 305, "fprintf"},
    {"rm", "rm", 0.79, 31, "error"},
    {"sort", "sort", 0.91, 36, "error"},
    {"squid1", "Squid", 0.88, 2427, "debug"},
    {"tac", "tac", 0.89, 21, "error"},
    {"tar1", "tar", 0.84, 243, "open_fatal"},
};

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout
        << "Table 5: useful-branch ratio per application "
           "(static CFG analysis over every logging site)\n\n"
        << cell("Application", 13) << cell("ratio", 8)
        << cell("paper", 8) << cell("#sites", 8)
        << cell("(paper)", 9) << cell("main log fn", 16) << '\n';

    double sum = 0;
    int count = 0;
    for (const AppRow &row : kApps) {
        BugSpec bug = corpus::bugById(row.bugId);
        Cfg cfg(*bug.program);
        UsefulBranchAnalyzer analyzer(*bug.program, cfg);
        UsefulBranchStats stats = analyzer.analyzeAllSites();

        std::ostringstream ratio;
        ratio.precision(2);
        ratio << std::fixed << stats.ratio;
        std::ostringstream paper;
        paper.precision(2);
        paper << std::fixed << row.paperRatio;

        std::cout << cell(row.app, 13) << cell(ratio.str(), 8)
                  << cell(paper.str(), 8)
                  << cell(std::to_string(bug.program->logSites.size()),
                          8)
                  << cell(std::to_string(row.paperLogSites), 9)
                  << cell(row.logFn, 16) << '\n';
        sum += stats.ratio;
        ++count;
    }
    std::cout << "\nmean useful-branch ratio: " << sum / count
              << " (paper range: 0.74-0.98 over 6945 sites)\n";
    return 0;
}
