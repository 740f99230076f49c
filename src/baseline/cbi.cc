#include "baseline/cbi.hh"

#include "program/transform.hh"

namespace stm
{

CbiResult
runCbi(ProgramPtr prog, const Workload &failing,
       const Workload &succeeding, const CbiOptions &opts)
{
    auto plan = std::make_shared<Instrumentation>();
    transform::applyCbi(*prog, *plan, opts.meanPeriod);

    CbiResult result;
    std::map<CbiKey, LiblitTally> tallies;
    gatherLiblitRuns(prog, plan, failing, succeeding, opts, result,
                     [&](const RunResult &run, bool failed) {
                         tallySitePolarity(tallies, run.cbiSiteSamples,
                                           run.cbiCounts, failed);
                     });
    if (result.completed)
        result.ranking = liblitRanking(tallies, result.failureRunsUsed);
    return result;
}

} // namespace stm
