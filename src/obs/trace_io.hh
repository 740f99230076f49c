/**
 * @file
 * The trace dump format and its exporters.
 *
 * Binary dumps use the same framing discipline as the fleet wire
 * format (fleet/wire_format.hh) — a trace file may be shipped off a
 * production machine just like a profile frame, so it gets the same
 * hostile-byte treatment:
 *
 *   [magic u32 "STMT"][version u16][flags u16][payloadLen u32]
 *   [crc32 u32][payload: payloadLen bytes]
 *
 * The CRC (IEEE 802.3, stm::crc32 from support/checksum.hh) covers
 * version, flags, and payload. The payload is a count-prefixed array of fixed 24-byte
 * little-endian event records:
 *
 *   [count u32] then per event:
 *   [tsc u64][tid u32][category u8][phase u8][id u16][arg u64]
 *
 * Decoding is strict: unknown versions are rejected before the CRC
 * (a future version may change the CRC domain), truncated or oversized
 * buffers fail with distinct statuses, counts must exactly match the
 * payload length, and every enum byte must hold a defined value.
 * A decoder must never crash or misread on hostile bytes.
 *
 * The Chrome exporter emits the trace_event JSON format
 * (chrome://tracing, Perfetto): Begin/End spans become "B"/"E" pairs
 * and instants become "i". The export is lossless — tsc, tid, and arg
 * ride along in "args" — so binary -> JSON keeps every field of every
 * event.
 */

#ifndef STM_OBS_TRACE_IO_HH
#define STM_OBS_TRACE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace stm::obs
{

/** Dump magic: "STMT" (STM Trace). */
constexpr std::uint32_t kTraceMagic = 0x544D5453u;

/** Current dump version; bump on any payload layout change. */
constexpr std::uint16_t kTraceVersion = 1;

/** Fixed frame header size in bytes (same shape as the wire). */
constexpr std::size_t kTraceHeaderSize = 16;

/** Encoded size of one event record in the payload. */
constexpr std::size_t kTraceEventSize = 24;

/** Why a dump failed to decode. */
enum class TraceIoStatus : std::uint8_t {
    Ok,
    Truncated,  //!< fewer bytes than the header + payload claim
    BadMagic,   //!< not an STMT dump
    BadVersion, //!< version != kTraceVersion
    BadCrc,     //!< checksum mismatch (bit rot / tampering)
    Malformed,  //!< payload inconsistent with its length or enums
    IoError,    //!< file could not be read/written
};

/** Human-readable status name. */
std::string traceIoStatusName(TraceIoStatus status);

/** Encode @p events into a self-contained binary dump. */
std::vector<std::uint8_t>
encodeTrace(const std::vector<TraceEvent> &events);

/**
 * Decode one dump. On success fills @p out and returns Ok; on any
 * failure @p out is untouched and the status says why. Trailing bytes
 * past the frame are Malformed, never misread.
 */
TraceIoStatus decodeTrace(const std::uint8_t *data, std::size_t size,
                          std::vector<TraceEvent> *out);

/** Convenience overload. */
inline TraceIoStatus
decodeTrace(const std::vector<std::uint8_t> &dump,
            std::vector<TraceEvent> *out)
{
    return decodeTrace(dump.data(), dump.size(), out);
}

/** Write a binary dump to @p path (IoError on failure). */
TraceIoStatus writeTraceFile(const std::string &path,
                             const std::vector<TraceEvent> &events);

/** Read and decode a binary dump from @p path. */
TraceIoStatus readTraceFile(const std::string &path,
                            std::vector<TraceEvent> *out);

/**
 * Export to the Chrome trace_event JSON format. Load the result in
 * chrome://tracing or ui.perfetto.dev. Lossless: every event emits
 * one record carrying its exact tsc/tid/arg.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events);

/** Per-id aggregate of one trace (the `stm_trace stats` table). */
struct TraceIdStats
{
    TraceCategory category = TraceCategory::Vm;
    TraceId id = TraceId::VmRun;
    std::uint64_t count = 0;     //!< events (spans count once)
    std::uint64_t instants = 0;  //!< Instant events
    std::uint64_t spans = 0;     //!< matched Begin/End pairs
    std::uint64_t unmatched = 0; //!< Begins evicted from under Ends
    std::uint64_t totalNanos = 0; //!< summed matched-span duration
};

/**
 * Aggregate a trace per event id: counts, matched-span wall time
 * (Begin/End matched per thread, innermost-first), and unmatched
 * phase events (ring eviction can orphan either end of a span).
 */
std::vector<TraceIdStats>
summarizeTrace(const std::vector<TraceEvent> &events);

/** Render summarizeTrace as an aligned text table. */
std::string traceStatsTable(const std::vector<TraceEvent> &events);

} // namespace stm::obs

#endif // STM_OBS_TRACE_IO_HH
