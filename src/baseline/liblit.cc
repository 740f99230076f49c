#include "baseline/liblit.hh"

#include <cmath>

#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "program/fingerprint.hh"

namespace stm
{

LiblitScore
liblitScore(const LiblitTally &tally, std::uint64_t num_failing)
{
    LiblitScore score;
    std::uint64_t trueRuns =
        tally.trueInFailing + tally.trueInSucceeding;
    std::uint64_t obsRuns =
        tally.obsInFailing + tally.obsInSucceeding;
    if (trueRuns == 0 || obsRuns == 0 || num_failing == 0)
        return score;

    score.failure = static_cast<double>(tally.trueInFailing) /
                    static_cast<double>(trueRuns);
    score.context = static_cast<double>(tally.obsInFailing) /
                    static_cast<double>(obsRuns);
    score.increase = score.failure - score.context;
    if (score.increase <= 0.0 || tally.trueInFailing == 0)
        return score; // pruned: importance stays 0

    // log F(P) / log NumF, clamped to [0, 1].
    double recallish;
    if (num_failing <= 1) {
        recallish = 1.0;
    } else if (tally.trueInFailing <= 1) {
        // log(1) = 0 would zero the harmonic mean; use a small
        // positive floor so single-observation predicates still rank.
        recallish = 0.1 / std::log2(static_cast<double>(num_failing));
    } else {
        recallish = std::log2(static_cast<double>(tally.trueInFailing)) /
                    std::log2(static_cast<double>(num_failing));
    }
    if (recallish > 1.0)
        recallish = 1.0;

    score.importance =
        2.0 / (1.0 / score.increase + 1.0 / recallish);
    return score;
}

void
gatherLiblitRuns(
    const ProgramPtr &prog, std::shared_ptr<const Instrumentation> plan,
    const Workload &failing, const Workload &succeeding,
    const LiblitOptions &opts, LiblitRuns &runs,
    const std::function<void(const RunResult &, bool failed)> &accept)
{
    // The instrumentation rides a copy-on-write overlay: the program
    // stays untouched and the whole gather is content-addressable in
    // the run cache.
    const std::uint64_t progFp = combineFingerprints(
        fingerprintProgramBase(*prog), fingerprintInstrumentation(*plan));

    // The gathers are embarrassingly parallel: the plan is complete
    // before fan-out, each run is seeded by its attempt index, and
    // results are consumed in attempt order, so the set of used runs
    // (and hence the tallies and attempt counts) is bit-identical to
    // the serial loop (see exec/run_pool.hh).
    RunPool pool(opts.jobs);

    // Consume runs seeded from @p seed_base until @p quota of them
    // have @p failed as their outcome; returns the attempts consumed.
    auto gather = [&](const Workload &workload, std::uint64_t seed_base,
                      bool failed, std::uint32_t quota,
                      std::uint64_t &used) {
        std::uint64_t attempts = 0;
        if (quota == 0)
            return attempts;
        const std::uint64_t optionsFp =
            fingerprintMachineOptions(workload.forRun(0));
        pool.runOrdered(
            0, opts.maxAttempts,
            [&](std::uint64_t i) {
                return memoizedRun(prog, plan, progFp, optionsFp,
                                   workload.forRun(seed_base + i));
            },
            [&](std::uint64_t i, RunResult &&run) {
                if (used >= quota)
                    return false;
                attempts = i + 1;
                if (workload.isFailure(run) != failed)
                    return true;
                accept(run, failed);
                ++used;
                return true;
            });
        return attempts;
    };
    runs.failureAttempts = gather(failing, 0, true, opts.failureRuns,
                                  runs.failureRunsUsed);
    gather(succeeding, 5000000, false, opts.successRuns,
           runs.successRunsUsed);
    runs.completed = runs.failureRunsUsed != 0 && runs.successRunsUsed != 0;
}

} // namespace stm
