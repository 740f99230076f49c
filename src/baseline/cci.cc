#include "baseline/cci.hh"

#include "program/transform.hh"

namespace stm
{

CciResult
runCci(ProgramPtr prog, const Workload &failing,
       const Workload &succeeding, const CciOptions &opts)
{
    auto plan = std::make_shared<Instrumentation>();
    transform::applyCci(*plan, opts.meanPeriod);

    CciResult result;
    std::map<CciKey, LiblitTally> tallies;
    gatherLiblitRuns(prog, plan, failing, succeeding, opts, result,
                     [&](const RunResult &run, bool failed) {
                         tallySitePolarity(tallies, run.cciSiteSamples,
                                           run.cciCounts, failed);
                     });
    if (result.completed)
        result.ranking = liblitRanking(tallies, result.failureRunsUsed);
    return result;
}

} // namespace stm
