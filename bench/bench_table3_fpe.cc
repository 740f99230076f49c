/**
 * @file
 * Reproduces Table 3: for each of the six concurrency-bug
 * interleaving classes, what the failure-predicting coherence event
 * (FPE) is and how often it lands in the *failure thread's* LCR —
 * the paper's "Almost Always" / "Often" / "Sometimes" column,
 * measured here over hundreds of seeded failing runs of one
 * micro-bug per class.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "diag/log_enhance.hh"
#include "hw/lcr.hh"
#include "program/transform.hh"
#include "table_util.hh"
#include "vm/machine.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

std::string
classify(double fraction)
{
    if (fraction >= 0.9)
        return "Almost Always";
    if (fraction >= 0.5)
        return "Often";
    if (fraction > 0.0)
        return "Sometimes";
    return "Never";
}

const char *
paperExpectation(InterleavingKind kind)
{
    switch (kind) {
      case InterleavingKind::RWR: return "Almost Always";
      case InterleavingKind::RWW: return "Often";
      case InterleavingKind::WWR: return "Almost Always";
      case InterleavingKind::WRW: return "Sometimes";
      case InterleavingKind::ReadTooEarly: return "Often";
      case InterleavingKind::ReadTooLate: return "Often";
      default: return "-";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "Table 3: failure-predicting events (FPE) per "
                 "concurrency-bug class,\nand how often the FPE "
                 "appears in the failure thread's LCR (Conf2, 16 "
                 "entries)\n\n"
              << cell("class", 16) << cell("FPE", 24)
              << cell("in failure thread", 20) << cell("paper", 16)
              << '\n';

    for (BugSpec &bug : corpus::microBugs()) {
        transform::LcrLogPlan logPlan;
        logPlan.lcrConfigMask = lcrConfSpaceConsuming().pack();
        auto plan = std::make_shared<Instrumentation>();
        transform::applyLcrLog(*bug.program, *plan, logPlan);

        int failures = 0;
        int fpeSeen = 0;
        for (std::uint64_t i = 0; i < 400 && failures < 120; ++i) {
            MachineOptions opts = bug.failing.forRun(i);
            Machine machine(bug.program, opts, plan);
            RunResult run = machine.run();
            if (!bug.failing.isFailure(run))
                continue;
            ++failures;
            // The profile captured in the failure thread.
            LogSiteId site = kSegfaultSite;
            if (run.failure)
                site = run.failure->site;
            else if (bug.failing.failureSiteHint)
                site = *bug.failing.failureSiteHint;
            const ProfileRecord *profile =
                run.lastProfile(ProfileKind::Lcr, site);
            if (!profile)
                continue;
            Addr fpePc = layout::codeAddr(bug.truth.fpeInstr);
            for (const auto &rec : profile->lcr) {
                if (rec.pc == fpePc &&
                    rec.observed == bug.truth.fpeState &&
                    rec.store == bug.truth.fpeStore) {
                    ++fpeSeen;
                    break;
                }
            }
        }
        double fraction =
            failures ? static_cast<double>(fpeSeen) / failures : 0.0;

        std::string fpe =
            std::string(bug.truth.fpeStore ? "store" : "load") +
            " observing " + mesiName(bug.truth.fpeState) +
            (bug.truth.fpeUnreachable ? " (other thread)" : "");
        std::ostringstream measured;
        measured.precision(0);
        measured << classify(fraction) << " (" << std::fixed
                 << fraction * 100 << "% of " << failures << ")";
        std::cout << cell(interleavingName(bug.interleaving), 16)
                  << cell(fpe, 24) << cell(measured.str(), 20)
                  << cell(paperExpectation(bug.interleaving), 16)
                  << '\n';
    }
    return 0;
}
