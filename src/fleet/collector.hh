/**
 * @file
 * The fleet collection service's intake: where every machine's
 * wire-format report lands.
 *
 * The intake is in order and runs on the caller's thread. One
 * ingest() call, before it returns:
 *
 *   1. validates the frame as untrusted bytes (header, CRC, payload
 *      structure, enum ranges: decodeFrameView);
 *   2. fingerprints the payload once (fingerprintPayload: FNV over
 *      the canonical encoding, which a valid frame already is);
 *   3. hands the decoded view and the print to its owner's fold.
 *
 * Dedup belongs to the owner's state: the fold returns false when it
 * already holds the print, and the call reports Duplicate. A durable
 * collector's fold dedups on its report store, so recovery needs no
 * second set; an in-memory pipeline keeps a set of prints next to its
 * ranker. submit() encodes a profile into one reused buffer and takes
 * the same path, so both doors share one fingerprint space.
 *
 * Accounting is a StatGroup ("fleet.collector") of plain counters:
 * received, accepted, duplicates, decode_errors and
 * decode_error.<status>. Because the ranker is order-independent
 * (diag/scoring.hh), the arrival order never changes the final
 * ranking; tests/test_fleet.cc asserts it for the whole corpus.
 */

#ifndef STM_FLEET_COLLECTOR_HH
#define STM_FLEET_COLLECTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "fleet/wire_format.hh"
#include "support/stats.hh"

namespace stm::fleet
{

/** Outcome of one ingest call. */
enum class IngestStatus : std::uint8_t {
    Accepted,    //!< decoded, novel, folded
    Duplicate,   //!< the owner already holds this fingerprint
    DecodeError, //!< frame failed wire validation
};

/** In-order validating intake in front of its owner's fold. */
class Collector
{
  public:
    /**
     * Folds one validated report, keyed by its canonical fingerprint
     * @p print. Returns false, folding nothing, when the owner
     * already holds @p print. The view aliases the ingested bytes and
     * must not escape the call.
     */
    using Fold =
        std::function<bool(const RunProfileView &, std::uint64_t print)>;

    explicit Collector(Fold fold);

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Validate, fingerprint, dedup and fold one wire frame. */
    IngestStatus ingest(const std::uint8_t *data, std::size_t size);

    IngestStatus
    ingest(const std::vector<std::uint8_t> &wire)
    {
        return ingest(wire.data(), wire.size());
    }

    /**
     * Encode @p profile into the collector's reused frame buffer and
     * ingest it. A payload over kWireMaxPayload is refused as
     * Malformed before it is encoded.
     */
    IngestStatus submit(const RunProfile &profile);

    /**
     * Ingest metrics: counters received, accepted, duplicates,
     * decode_errors and decode_error.<status> (only for statuses
     * seen).
     */
    const StatGroup &stats() const { return stats_; }

  private:
    /** Count a frame refused with @p status; returns DecodeError. */
    IngestStatus refuse(FrameStatus status);

    Fold fold_;
    std::vector<std::uint8_t> frame_; //!< submit()'s encoding buffer
    StatGroup stats_;
    Counter &received_;
    Counter &accepted_;
    Counter &duplicates_;
    Counter &decodeErrors_;
};

} // namespace stm::fleet

#endif // STM_FLEET_COLLECTOR_HH
