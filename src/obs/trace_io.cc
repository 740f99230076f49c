#include "obs/trace_io.hh"

#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "support/file_io.hh"

namespace stm::obs
{

std::vector<std::uint8_t>
encodeTrace(const std::vector<TraceEvent> &events)
{
    std::size_t payloadLen = 4 + kTraceEventSize * events.size();
    std::vector<std::uint8_t> frame(kFrameHeaderSize + payloadLen);
    RawSink sink{frame.data() + kFrameHeaderSize};
    Writer<RawSink> w(sink);
    w.u32(static_cast<std::uint32_t>(events.size()));
    for (const TraceEvent &e : events) {
        w.u64(e.tsc);
        w.u32(e.tid);
        w.u8(static_cast<std::uint8_t>(e.category));
        w.u8(static_cast<std::uint8_t>(e.phase));
        w.u16(static_cast<std::uint16_t>(e.id));
        w.u64(e.arg);
    }
    sealFrame(kTraceFrame, frame.data(), payloadLen);
    return frame;
}

FrameStatus
decodeTrace(const std::uint8_t *data, std::size_t size,
            std::vector<TraceEvent> *out)
{
    std::size_t payloadLen = 0;
    FrameStatus status =
        verifyFrame(kTraceFrame, data, size, &payloadLen);
    if (status != FrameStatus::Ok)
        return status;

    FrameReader r(data + kFrameHeaderSize, payloadLen);
    std::uint32_t count = r.u32();
    const std::uint8_t *p = r.take(count, kTraceEventSize);
    // The count must account for the payload exactly: no trailing
    // bytes, no partial trailing record.
    if (!r.ok() || r.remaining() != 0)
        return FrameStatus::Malformed;

    std::vector<TraceEvent> events;
    events.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i, p += kTraceEventSize) {
        std::uint8_t category = p[12];
        std::uint8_t phase = p[13];
        auto id = le::get<std::uint16_t>(p + 14);
        if (category >= kTraceCategoryCount ||
            phase >= kTracePhaseCount || id >= kTraceIdCount) {
            return FrameStatus::Malformed;
        }
        TraceEvent e;
        e.tsc = le::get<std::uint64_t>(p);
        e.tid = le::get<std::uint32_t>(p + 8);
        e.category = static_cast<TraceCategory>(category);
        e.phase = static_cast<TracePhase>(phase);
        e.id = static_cast<TraceId>(id);
        e.arg = le::get<std::uint64_t>(p + 16);
        events.push_back(e);
    }
    *out = std::move(events);
    return FrameStatus::Ok;
}

FrameStatus
writeTraceFile(const std::string &path,
               const std::vector<TraceEvent> &events)
{
    std::vector<std::uint8_t> frame = encodeTrace(events);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return FrameStatus::IoError;
    os.write(reinterpret_cast<const char *>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    return os ? FrameStatus::Ok : FrameStatus::IoError;
}

FrameStatus
readTraceFile(const std::string &path, std::vector<TraceEvent> *out)
{
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, &bytes))
        return FrameStatus::IoError;
    return decodeTrace(bytes, out);
}

std::string
chromeTraceJson(const std::vector<TraceEvent> &events)
{
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const TraceEvent &e : events) {
        const char *ph = "i";
        if (e.phase == TracePhase::Begin)
            ph = "B";
        else if (e.phase == TracePhase::End)
            ph = "E";
        os << (first ? "\n" : ",\n") << "  {\"name\": \""
           << traceIdName(e.id) << "\", \"cat\": \""
           << traceCategoryName(e.category) << "\", \"ph\": \"" << ph
           << "\", \"ts\": " << e.tsc / 1000 << '.' << std::setw(3)
           << std::setfill('0') << e.tsc % 1000 << std::setfill(' ')
           << ", \"pid\": 1, \"tid\": " << e.tid;
        if (e.phase == TracePhase::Instant)
            os << ", \"s\": \"t\"";
        // tsc and arg ride along verbatim so the export is lossless.
        os << ", \"args\": {\"arg\": " << e.arg
           << ", \"tsc\": " << e.tsc << "}}";
        first = false;
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return os.str();
}

std::vector<TraceIdStats>
summarizeTrace(const std::vector<TraceEvent> &events)
{
    std::map<std::uint16_t, TraceIdStats> byId;
    // Per (tid, id) stack of open Begin timestamps: spans nest within
    // a thread, so End matches the innermost Begin.
    std::map<std::pair<std::uint32_t, std::uint16_t>,
             std::vector<std::uint64_t>>
        open;

    for (const TraceEvent &e : events) {
        auto key = static_cast<std::uint16_t>(e.id);
        TraceIdStats &stats = byId[key];
        stats.category = e.category;
        stats.id = e.id;
        switch (e.phase) {
          case TracePhase::Instant:
            ++stats.count;
            ++stats.instants;
            break;
          case TracePhase::Begin:
            open[{e.tid, key}].push_back(e.tsc);
            break;
          case TracePhase::End: {
            auto &stack = open[{e.tid, key}];
            if (stack.empty()) {
                // Begin evicted from the ring before collection.
                ++stats.count;
                ++stats.unmatched;
                break;
            }
            std::uint64_t begin = stack.back();
            stack.pop_back();
            ++stats.count;
            ++stats.spans;
            if (e.tsc >= begin)
                stats.totalNanos += e.tsc - begin;
            break;
          }
        }
    }
    for (const auto &kv : open) {
        for (std::size_t i = 0; i < kv.second.size(); ++i) {
            TraceIdStats &stats = byId[kv.first.second];
            ++stats.count;
            ++stats.unmatched;
        }
    }

    std::vector<TraceIdStats> out;
    out.reserve(byId.size());
    for (const auto &kv : byId)
        out.push_back(kv.second);
    return out;
}

std::string
traceStatsTable(const std::vector<TraceEvent> &events)
{
    std::vector<TraceIdStats> stats = summarizeTrace(events);
    std::ostringstream os;
    os << std::left << std::setw(22) << "event" << std::right
       << std::setw(10) << "count" << std::setw(10) << "spans"
       << std::setw(10) << "instant" << std::setw(10) << "orphan"
       << std::setw(14) << "total_ms" << std::setw(12) << "avg_us"
       << '\n';
    for (const TraceIdStats &s : stats) {
        double totalMs = static_cast<double>(s.totalNanos) / 1e6;
        double avgUs =
            s.spans == 0 ? 0.0
                         : static_cast<double>(s.totalNanos) /
                               (1e3 * static_cast<double>(s.spans));
        os << std::left << std::setw(22) << traceIdName(s.id)
           << std::right << std::setw(10) << s.count << std::setw(10)
           << s.spans << std::setw(10) << s.instants << std::setw(10)
           << s.unmatched << std::setw(14) << std::fixed
           << std::setprecision(3) << totalMs << std::setw(12)
           << std::setprecision(1) << avgUs << '\n';
        os.unsetf(std::ios::fixed);
    }
    return os.str();
}

} // namespace stm::obs
