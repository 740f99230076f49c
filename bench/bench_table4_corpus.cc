/**
 * @file
 * Reproduces Table 4: the features of the evaluated real-world
 * failures, alongside the size of each reproduction (instructions,
 * logging points) in this corpus.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

void
printRows(const std::vector<BugSpec> &bugs)
{
    for (const BugSpec &bug : bugs) {
        std::ostringstream kloc;
        kloc.precision(1);
        kloc << std::fixed << bug.kloc;
        std::cout << cell(bug.app, 13) << cell(bug.version, 9)
                  << cell(kloc.str(), 7)
                  << cell(bugClassName(bug.bugClass), 10)
                  << cell(symptomName(bug.symptom), 15)
                  << cell(std::to_string(bug.paperLogPoints), 8)
                  << cell(std::to_string(bug.program->logSites.size()),
                          8)
                  << cell(std::to_string(bug.program->code.size()), 8)
                  << '\n';
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "Table 4: features of the real-world failures "
                 "evaluated (and of their reproductions)\n\n"
              << cell("Program", 13) << cell("Version", 9)
              << cell("KLOC", 7) << cell("Cause", 10)
              << cell("Symptom", 15) << cell("LogPts", 8)
              << cell("(ours)", 8) << cell("instrs", 8) << '\n';

    std::cout << "--- sequential-bug failures ---\n";
    printRows(corpus::sequentialBugs());
    std::cout << "--- concurrency-bug failures ---\n";
    printRows(corpus::concurrencyBugs());
    return 0;
}
