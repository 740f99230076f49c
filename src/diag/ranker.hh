/**
 * @file
 * The statistical fault-localization model of Section 5.2.
 *
 * Given failure-run profiles and success-run profiles (each a set of
 * events), every candidate event e is scored by the harmonic mean of
 * its expected prediction precision |F&e| / |e| and recall
 * |F&e| / |F|; the highest-ranked event is the best failure
 * predictor.
 *
 * For order-violation concurrency bugs under the space-saving LCR
 * configuration, the discriminating observation can be the *absence*
 * of an event (Section 4.2.2: "failures are highly correlated with B2
 * not encountering a shared state"); the ranker therefore optionally
 * scores absence predicates over the same event universe.
 *
 * One Ranker serves the in-process LBRA/LCRA campaign and the
 * fleet's streaming intake (fleet/fleet_sim.hh holds the wire-report
 * ingest functions); the durable collector ranks its report store
 * through the same scoring::rankTallies. Per
 * profile it updates the sufficient statistics — the per-event
 * tallies |F&e| and |S&e| plus the profile counts |F| and |S| — in
 * O(|profile events|); scoring is deferred to rank(), because a new
 * profile changes a denominator and therefore every event's score at
 * once. The tallies are commutative counts, so the ranking depends
 * only on the multiset of profiles, never on their order.
 */

#ifndef STM_DIAG_RANKER_HH
#define STM_DIAG_RANKER_HH

#include <cstdint>
#include <set>
#include <vector>

#include "diag/event_key.hh"
#include "diag/scoring.hh"

namespace stm
{

/** Accumulates profiles and ranks candidate failure predictors. */
class Ranker
{
  public:
    /**
     * Fold one failure (@p failure) or success profile's event set.
     * @p events iterates distinct keys: a std::set (the default, so
     * a braced list works), or a sorted unique vector such as a
     * durable ReportDigest's.
     */
    template <typename Events = std::set<EventKey>>
    void
    addProfile(bool failure, const Events &events)
    {
        ++(failure ? failures_ : successes_);
        for (const EventKey &e : events) {
            scoring::PredictorTally &tally = tallies_[e];
            ++(failure ? tally.inFailures : tally.inSuccesses);
        }
    }

    std::uint64_t failureProfiles() const { return failures_; }
    std::uint64_t successProfiles() const { return successes_; }

    /**
     * Rank all events (and, optionally, absence predicates) by
     * score, descending, with deterministic tie-breaking.
     */
    std::vector<RankedEvent> rank(bool include_absence = false) const;

    /**
     * The complete sufficient statistics: everything rank() consumes
     * (a RankerSnapshot's sufficientStats() over the same reports is
     * equal).
     */
    scoring::SufficientStats
    exportStats() const
    {
        return {tallies_, failures_, successes_};
    }

  private:
    scoring::TallyMap tallies_;
    std::uint64_t failures_ = 0;
    std::uint64_t successes_ = 0;
};

} // namespace stm

#endif // STM_DIAG_RANKER_HH
