/**
 * @file
 * The trace dump format and its exporters.
 *
 * A binary dump is one support/frame_codec frame (magic "STMT"): a
 * trace file may be shipped off a production machine just like a
 * profile frame, so it gets the same hostile-byte treatment. The
 * payload is a count-prefixed array of fixed 24-byte records:
 *
 *   [count u32] then per event:
 *   [tsc u64][tid u32][category u8][phase u8][id u16][arg u64]
 *
 * The count must match the payload length exactly and every enum
 * byte must hold a defined value, else the dump is Malformed. There
 * is no payload cap: a full recorder ring can exceed the wire's.
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
#include "support/frame_codec.hh"

namespace stm::obs
{

/** Magic "STMT" (STM Trace); bump the version on any layout change. */
constexpr FrameSpec kTraceFrame{0x544D5453u, 1};

/** Encoded size of one event record in the payload. */
constexpr std::size_t kTraceEventSize = 24;

/** Encode @p events into a self-contained binary dump. */
std::vector<std::uint8_t>
encodeTrace(const std::vector<TraceEvent> &events);

/**
 * Decode one dump. On success fills @p out and returns Ok; on any
 * failure @p out is untouched and the status says why. Trailing bytes
 * past the frame are Malformed, never misread.
 */
FrameStatus decodeTrace(const std::uint8_t *data, std::size_t size,
                        std::vector<TraceEvent> *out);

/** Convenience overload. */
inline FrameStatus
decodeTrace(const std::vector<std::uint8_t> &dump,
            std::vector<TraceEvent> *out)
{
    return decodeTrace(dump.data(), dump.size(), out);
}

/** Write a binary dump to @p path (IoError on failure). */
FrameStatus writeTraceFile(const std::string &path,
                           const std::vector<TraceEvent> &events);

/** Read and decode a binary dump from @p path (IoError if unreadable). */
FrameStatus readTraceFile(const std::string &path,
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
