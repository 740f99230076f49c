#include "baseline/pbi.hh"

#include "program/transform.hh"

namespace stm
{

PbiResult
runPbi(ProgramPtr prog, const Workload &failing,
       const Workload &succeeding, const PbiOptions &opts)
{
    auto plan = std::make_shared<Instrumentation>();
    transform::applyPbi(*plan, opts.loadMask, opts.storeMask, opts.period);

    PbiResult result;
    std::map<PbiKey, LiblitTally> tallies;
    gatherLiblitRuns(
        prog, plan, failing, succeeding, opts, result,
        [&](const RunResult &run, bool failed) {
            // The VM keys samples (pc, (state << 1) | store). A run
            // only records which predicates sampled true here.
            for (const auto &[key, samples] : run.pbiSamples) {
                if (samples == 0)
                    continue;
                LiblitTally &tally = tallies[PbiKey{
                    key.first, (key.second & 1) != 0,
                    static_cast<MesiState>(key.second >> 1)}];
                ++(failed ? tally.trueInFailing : tally.trueInSucceeding);
            }
        });
    if (!result.completed)
        return result;
    // The counters are armed in every run, so every predicate is
    // observed in every used run.
    for (auto &[key, tally] : tallies) {
        tally.obsInFailing = result.failureRunsUsed;
        tally.obsInSucceeding = result.successRunsUsed;
    }
    result.ranking = liblitRanking(tallies, result.failureRunsUsed);
    return result;
}

} // namespace stm
