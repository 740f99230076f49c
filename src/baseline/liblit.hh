/**
 * @file
 * The statistical-debugging recipe of the CBI line of work (Liblit et
 * al., PLDI'03/'05), shared by the CBI, CCI, and PBI baselines: sample
 * predicates over many failing and successful runs, then rank them by
 *
 *   Failure(P)  = F(P) / (F(P) + S(P))
 *   Context(P)  = F(P observed) / (F(P observed) + S(P observed))
 *   Increase(P) = Failure(P) - Context(P)
 *   Importance(P) = harmonic mean of Increase(P) and
 *                   log F(P) / log NumF
 *
 * where F(P)/S(P) count failing/successful runs in which P was
 * observed to be true, and "P observed" means the sampled
 * instrumentation actually looked at P's site in that run.
 *
 * A baseline supplies only its instrumentation plan, its predicate
 * key type and its projection of one run into per-key tallies; the
 * run gather, the Importance ranking and the competition rank are
 * shared here.
 */

#ifndef STM_BASELINE_LIBLIT_HH
#define STM_BASELINE_LIBLIT_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "diag/workload.hh"
#include "program/program.hh"

namespace stm
{

/** Per-predicate observation tallies across all runs. */
struct LiblitTally
{
    std::uint64_t trueInFailing = 0;    //!< F(P)
    std::uint64_t trueInSucceeding = 0; //!< S(P)
    std::uint64_t obsInFailing = 0;     //!< F(P observed)
    std::uint64_t obsInSucceeding = 0;  //!< S(P observed)
};

/** The derived scores. */
struct LiblitScore
{
    double failure = 0.0;
    double context = 0.0;
    double increase = 0.0;
    double importance = 0.0; //!< 0 when pruned (Increase <= 0)
};

/** Score @p tally given @p num_failing failing runs in total. */
LiblitScore liblitScore(const LiblitTally &tally,
                        std::uint64_t num_failing);

/** The run budget every Liblit campaign takes (paper defaults). */
struct LiblitOptions
{
    /** Failing runs to aggregate (the paper uses 1000). */
    std::uint32_t failureRuns = 1000;
    /** Successful runs to aggregate (the paper uses 1000). */
    std::uint32_t successRuns = 1000;
    /** Budget of total run attempts. */
    std::uint64_t maxAttempts = 2000000;
    /**
     * Worker threads for run execution (0 = defaultJobs()); results
     * are bit-identical for any value.
     */
    unsigned jobs = 0;
};

/** The run accounting of one Liblit campaign. */
struct LiblitRuns
{
    bool completed = false; //!< both gathers found runs
    std::uint64_t failureRunsUsed = 0;
    std::uint64_t successRunsUsed = 0;
    std::uint64_t failureAttempts = 0;
};

/** One scored predicate: its key's fields plus tallies and scores. */
template <typename Key>
struct LiblitRanked : Key
{
    LiblitTally tally;
    LiblitScore score;
};

/** Result of one Liblit campaign over predicates of type @p Key. */
template <typename Key>
struct LiblitResult : LiblitRuns
{
    /** Importance-descending; equal importance in key order. */
    std::vector<LiblitRanked<Key>> ranking;

    /**
     * 1-based competition rank (ties share the best position) of the
     * first entry satisfying @p matches; 0 if none does.
     */
    template <typename Match>
    std::size_t
    positionWhere(Match matches) const
    {
        auto found = std::find_if(ranking.begin(), ranking.end(), matches);
        if (found == ranking.end())
            return 0;
        return 1 + std::count_if(ranking.begin(), ranking.end(),
                                 [&](const LiblitRanked<Key> &r) {
                                     return r.score.importance >
                                            found->score.importance;
                                 });
    }

    /** 1-based competition rank of @p key; 0 if unranked. */
    std::size_t
    positionOfKey(const Key &key) const
    {
        return positionWhere([&](const LiblitRanked<Key> &r) {
            return static_cast<const Key &>(r) == key;
        });
    }
};

/**
 * Run the campaign's two gathers on one RunPool under @p plan: failing
 * runs seeded from 0 until opts.failureRuns of them fail, then
 * successful runs seeded from 5000000 until opts.successRuns of them
 * succeed, each within opts.maxAttempts attempts. @p accept sees every
 * used run, with whether it failed, in attempt order, so what it
 * tallies is identical for any worker count. Fills @p runs.
 */
void gatherLiblitRuns(
    const ProgramPtr &prog, std::shared_ptr<const Instrumentation> plan,
    const Workload &failing, const Workload &succeeding,
    const LiblitOptions &opts, LiblitRuns &runs,
    const std::function<void(const RunResult &, bool failed)> &accept);

/**
 * Score every tally against @p num_failing failing runs, prune those
 * with Importance <= 0, and order the rest by Importance descending,
 * then key ascending.
 */
template <typename Key>
std::vector<LiblitRanked<Key>>
liblitRanking(const std::map<Key, LiblitTally> &tallies,
              std::uint64_t num_failing)
{
    std::vector<LiblitRanked<Key>> ranking;
    for (const auto &[key, tally] : tallies) {
        LiblitScore score = liblitScore(tally, num_failing);
        if (score.importance <= 0.0)
            continue;
        ranking.push_back({key, tally, score});
    }
    // The map yields keys in ascending order; a stable sort keeps it
    // among equal importances.
    std::stable_sort(ranking.begin(), ranking.end(),
                     [](const LiblitRanked<Key> &x,
                        const LiblitRanked<Key> &y) {
                         return x.score.importance > y.score.importance;
                     });
    return ranking;
}

/**
 * Project one run's sampled sites into site x polarity tallies, for
 * baselines whose predicate is "site S saw polarity b": a sampled
 * site observes both of its predicates, and one is true in the run if
 * @p counts holds it at least once.
 */
template <typename Key, typename Site>
void
tallySitePolarity(
    std::map<Key, LiblitTally> &tallies,
    const std::map<Site, std::uint32_t> &site_samples,
    const std::map<std::pair<Site, bool>, std::uint32_t> &counts,
    bool failed)
{
    for (const auto &[site, samples] : site_samples) {
        if (samples == 0)
            continue;
        for (bool polarity : {false, true}) {
            LiblitTally &tally = tallies[Key{site, polarity}];
            ++(failed ? tally.obsInFailing : tally.obsInSucceeding);
            auto it = counts.find({site, polarity});
            if (it != counts.end() && it->second > 0)
                ++(failed ? tally.trueInFailing : tally.trueInSucceeding);
        }
    }
}

} // namespace stm

#endif // STM_BASELINE_LIBLIT_HH
