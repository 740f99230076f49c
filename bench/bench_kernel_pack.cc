/**
 * @file
 * The kernel-mode scenario pack (a Table 4 extension): driver/kernel
 * bug shapes diagnosed end-to-end, demonstrating that Table 1's ring
 * filter bits are diagnosis *policy*, not just noise control.
 *
 * For each bug the root cause lives in exactly one ring, and the
 * LBR_SELECT that suppresses the other ring is what makes diagnosis
 * work:
 *   - ring-0 root causes (interrupt handlers, syscall stubs) rank
 *     first under msr::kKernelLbrSelect and are unrankable under the
 *     paper's user-space mask (the records never retire);
 *   - user root causes under heavy handler noise rank first under
 *     msr::kPaperLbrSelect and degrade when ring-0 branches are let
 *     into the 16-entry window;
 *   - the TOCTOU bug's failure-predicting event is a ring-0 coherence
 *     access: LCRA finds it only with LcrConfig::filterKernel off.
 *
 * Prints rank + precision/recall of the ground-truth event under the
 * correct ring mask, and its rank under the opposite mask.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/event_key.hh"
#include "hw/msr.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

/** Ring of the instruction carrying the root-cause source branch. */
bool
rootIsKernel(const BugSpec &bug)
{
    for (const auto &inst : bug.program->code)
        if (inst.srcBranch == bug.truth.rootCauseBranch)
            return inst.kernel;
    return false;
}

const RankedEvent *
entryFor(const AutoDiagResult &r, const EventKey &key)
{
    for (const auto &e : r.ranking)
        if (e.event == key && !e.absence)
            return &e;
    return nullptr;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << v;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);

    std::cout << "Kernel-mode pack: ring-aware diagnosis "
                 "(rank / precision / recall under the matching ring "
                 "mask; rank under the opposite mask)\n\n"
              << cell("ID", 15) << cell("root ring", 11)
              << cell("tool", 6) << cell("rank", 6) << cell("prec", 7)
              << cell("recall", 8) << cell("opp.rank", 10)
              << cell("attempts", 10) << '\n';

    int rankedFirst = 0;
    std::vector<BugSpec> bugs = corpus::kernelBugs();
    for (BugSpec &bug : bugs) {
        std::string ring, tool, rank = "-", prec = "-", rec = "-",
                          wrongRank = "-";
        std::uint64_t attempts = 0;

        if (bug.isConcurrent) {
            // LCRA: the ring axis is LcrConfig::filterKernel.
            ring = "ring 0";
            tool = "LCRA";
            EventKey key = EventKey::coherence(
                layout::codeAddr(bug.truth.fpeInstr),
                bug.truth.fpeState, bug.truth.fpeStore);

            AutoDiagOptions visible;
            visible.log.lcrConfig = lcrConfSpaceConsuming();
            visible.log.lcrConfig.filterKernel = false;
            AutoDiagResult right = runLcra(bug.program, bug.failing,
                                           bug.succeeding, visible);
            attempts = right.failureAttempts + right.successAttempts;
            if (right.diagnosed) {
                rank = position(
                    static_cast<long>(right.positionOf(key)));
                if (const RankedEvent *e = entryFor(right, key)) {
                    prec = fmt(e->precision);
                    rec = fmt(e->recall);
                }
                if (right.positionOf(key) == 1)
                    ++rankedFirst;
            }

            AutoDiagOptions filtered;
            filtered.log.lcrConfig = lcrConfSpaceConsuming();
            AutoDiagResult wrong = runLcra(bug.program, bug.failing,
                                           bug.succeeding, filtered);
            if (wrong.diagnosed)
                wrongRank = position(
                    static_cast<long>(wrong.positionOf(key)));
        } else {
            bool kernelRoot = rootIsKernel(bug);
            ring = kernelRoot ? "ring 0" : "ring 3";
            tool = "LBRA";
            EventKey key = EventKey::sourceBranch(
                bug.truth.rootCauseBranch, bug.truth.rootCauseOutcome);

            AutoDiagOptions rightOpts;
            rightOpts.log.lbrSelect = kernelRoot
                                          ? msr::kKernelLbrSelect
                                          : msr::kPaperLbrSelect;
            AutoDiagResult right = runLbra(bug.program, bug.failing,
                                           bug.succeeding, rightOpts);
            attempts = right.failureAttempts + right.successAttempts;
            if (right.diagnosed) {
                rank = position(
                    static_cast<long>(right.positionOf(key)));
                if (const RankedEvent *e = entryFor(right, key)) {
                    prec = fmt(e->precision);
                    rec = fmt(e->recall);
                }
                if (right.positionOf(key) == 1)
                    ++rankedFirst;
            }

            AutoDiagOptions wrongOpts;
            wrongOpts.log.lbrSelect =
                kernelRoot ? msr::kPaperLbrSelect
                           : (msr::kPaperLbrSelect &
                              ~msr::kLbrFilterRing0);
            AutoDiagResult wrong = runLbra(bug.program, bug.failing,
                                           bug.succeeding, wrongOpts);
            if (wrong.diagnosed)
                wrongRank = position(
                    static_cast<long>(wrong.positionOf(key)));
        }

        std::cout << cell(bug.id, 15) << cell(ring, 11)
                  << cell(tool, 6) << cell(rank, 6) << cell(prec, 7)
                  << cell(rec, 8) << cell(wrongRank, 10)
                  << cell(std::to_string(attempts), 10) << '\n';
    }

    std::cout << "\nranked first under the matching ring mask: "
              << rankedFirst << "/" << bugs.size() << '\n';
    return rankedFirst == static_cast<int>(bugs.size()) ? 0 : 1;
}
