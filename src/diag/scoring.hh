/**
 * @file
 * The statistical scoring math of Section 5.2, used by the Ranker
 * (diag/ranker.hh) and by merged durable snapshots
 * (fleet/durable/snapshot.hh).
 *
 * Both reduce their inputs to the same sufficient statistics —
 * per-event tallies |F&e| and |S&e| plus the profile counts |F| and
 * |S| — and this header turns those statistics into scored, ordered
 * predictors. Keeping the formulas (precision |F&e|/|e|, recall
 * |F&e|/|F|, harmonic-mean score) and the deterministic tie-break in
 * exactly one place is what makes a live ranking and a merged
 * snapshot's ranking equal by construction rather than by test.
 */

#ifndef STM_DIAG_SCORING_HH
#define STM_DIAG_SCORING_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "diag/event_key.hh"

namespace stm
{

/** One scored predictor. */
struct RankedEvent
{
    EventKey event;
    /** Predicate is "event absent from the profile". */
    bool absence = false;
    std::uint64_t failureRuns = 0; //!< |F & e|
    std::uint64_t successRuns = 0; //!< |S & e|
    double precision = 0.0;        //!< |F&e| / |e|
    double recall = 0.0;           //!< |F&e| / |F|
    double score = 0.0;            //!< harmonic mean
};

namespace scoring
{

/** Per-event sufficient statistics: profiles containing the event. */
struct PredictorTally
{
    std::uint64_t inFailures = 0;  //!< |F & e|
    std::uint64_t inSuccesses = 0; //!< |S & e|

    bool operator==(const PredictorTally &) const = default;
};

/** The per-event tallies a Ranker maintains. */
using TallyMap = std::map<EventKey, PredictorTally>;

/**
 * The complete sufficient statistics of one ranker: everything
 * rank() consumes, and therefore everything a checkpoint must carry
 * for a restarted or remote ranker to produce the identical ranking.
 * The Ranker exports this shape, and a durable fleet snapshot
 * derives it from its report store.
 */
struct SufficientStats
{
    TallyMap tallies;
    std::uint64_t failures = 0;  //!< |F|
    std::uint64_t successes = 0; //!< |S|

    bool operator==(const SufficientStats &) const = default;
};

/**
 * Score one predictor: precision |F&e| / |e|, recall |F&e| / |F|,
 * harmonic mean. The event/absence fields are left for the caller.
 */
inline RankedEvent
scorePredictor(std::uint64_t fail_with, std::uint64_t succ_with,
               std::uint64_t failures)
{
    RankedEvent r;
    r.failureRuns = fail_with;
    r.successRuns = succ_with;
    std::uint64_t with = fail_with + succ_with;
    r.precision = with == 0 ? 0.0
                            : static_cast<double>(fail_with) /
                                  static_cast<double>(with);
    r.recall = failures == 0 ? 0.0
                             : static_cast<double>(fail_with) /
                                   static_cast<double>(failures);
    r.score = (r.precision + r.recall) == 0.0
                  ? 0.0
                  : 2.0 * r.precision * r.recall /
                        (r.precision + r.recall);
    return r;
}

/**
 * The deterministic ranking order: score descending, then failure
 * support descending, then presence before absence, then event id.
 */
inline bool
rankedBefore(const RankedEvent &x, const RankedEvent &y)
{
    if (x.score != y.score)
        return x.score > y.score;
    if (x.failureRuns != y.failureRuns)
        return x.failureRuns > y.failureRuns;
    if (x.absence != y.absence)
        return !x.absence; // presence first
    return x.event < y.event;
}

/**
 * Score every tallied event (and optionally its absence predicate)
 * and sort with the deterministic tie-break. Because the tallies are
 * commutative counts, the result depends only on the multiset of
 * ingested profiles — never on ingest order or sharding.
 */
inline std::vector<RankedEvent>
rankTallies(const TallyMap &tallies, std::uint64_t failures,
            std::uint64_t successes, bool include_absence)
{
    std::vector<RankedEvent> ranking;
    ranking.reserve(tallies.size() * (include_absence ? 2 : 1));
    for (const auto &[event, tally] : tallies) {
        RankedEvent presence =
            scorePredictor(tally.inFailures, tally.inSuccesses,
                           failures);
        presence.event = event;
        presence.absence = false;
        ranking.push_back(presence);

        if (include_absence) {
            RankedEvent absence =
                scorePredictor(failures - tally.inFailures,
                               successes - tally.inSuccesses,
                               failures);
            absence.event = event;
            absence.absence = true;
            ranking.push_back(absence);
        }
    }
    std::sort(ranking.begin(), ranking.end(), rankedBefore);
    return ranking;
}

/**
 * 1-based competition rank of the predictor for @p event in
 * @p ranking; 0 if it does not appear. Events tied on score share the
 * same rank (perfectly-correlated co-predictors are unavoidable —
 * e.g. the true outcome of the root-cause branch and the guard that
 * only the failing path reaches all predict with precision = recall
 * = 1).
 */
inline std::size_t
positionOf(const std::vector<RankedEvent> &ranking,
           const EventKey &event, bool absence = false)
{
    const RankedEvent *found = nullptr;
    for (const auto &r : ranking) {
        if (r.event == event && r.absence == absence) {
            found = &r;
            break;
        }
    }
    if (!found)
        return 0;
    std::size_t better = 0;
    for (const auto &r : ranking) {
        if (r.score > found->score)
            ++better;
    }
    return better + 1;
}

} // namespace scoring

} // namespace stm

#endif // STM_DIAG_SCORING_HH
