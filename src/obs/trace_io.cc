#include "obs/trace_io.hh"

#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "support/checksum.hh"
#include "support/file_io.hh"

namespace stm::obs
{

namespace
{

/** Explicit little-endian stores/loads (the dump is LE everywhere). */
void
putLe16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void
putLe32(std::uint8_t *p, std::uint32_t v)
{
    putLe16(p, static_cast<std::uint16_t>(v));
    putLe16(p + 2, static_cast<std::uint16_t>(v >> 16));
}

void
putLe64(std::uint8_t *p, std::uint64_t v)
{
    putLe32(p, static_cast<std::uint32_t>(v));
    putLe32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t
getLe16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getLe32(const std::uint8_t *p)
{
    return getLe16(p) |
           (static_cast<std::uint32_t>(getLe16(p + 2)) << 16);
}

std::uint64_t
getLe64(const std::uint8_t *p)
{
    return getLe32(p) |
           (static_cast<std::uint64_t>(getLe32(p + 4)) << 32);
}

/**
 * CRC of the covered frame region: version + flags + payloadLen
 * (bytes [4, 12)) and the payload, skipping the magic and the CRC
 * field itself — the same domain as the fleet wire frame.
 */
std::uint32_t
frameCrc(const std::uint8_t *frame, std::size_t payload_len)
{
    std::uint32_t c = crc32Init();
    c = crc32Update(c, frame + 4, 8);
    c = crc32Update(c, frame + kTraceHeaderSize, payload_len);
    return crc32Final(c);
}

} // namespace

std::string
traceIoStatusName(TraceIoStatus status)
{
    switch (status) {
      case TraceIoStatus::Ok:
        return "ok";
      case TraceIoStatus::Truncated:
        return "truncated";
      case TraceIoStatus::BadMagic:
        return "bad-magic";
      case TraceIoStatus::BadVersion:
        return "bad-version";
      case TraceIoStatus::BadCrc:
        return "bad-crc";
      case TraceIoStatus::Malformed:
        return "malformed";
      case TraceIoStatus::IoError:
        return "io-error";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeTrace(const std::vector<TraceEvent> &events)
{
    std::vector<std::uint8_t> frame(kTraceHeaderSize + 4 +
                                    kTraceEventSize * events.size());
    std::uint8_t *p = frame.data() + kTraceHeaderSize;
    putLe32(p, static_cast<std::uint32_t>(events.size()));
    p += 4;
    for (const TraceEvent &e : events) {
        putLe64(p, e.tsc);
        putLe32(p + 8, e.tid);
        p[12] = static_cast<std::uint8_t>(e.category);
        p[13] = static_cast<std::uint8_t>(e.phase);
        putLe16(p + 14, static_cast<std::uint16_t>(e.id));
        putLe64(p + 16, e.arg);
        p += kTraceEventSize;
    }

    std::size_t payloadLen = frame.size() - kTraceHeaderSize;
    putLe32(frame.data(), kTraceMagic);
    putLe16(frame.data() + 4, kTraceVersion);
    putLe16(frame.data() + 6, 0); // flags, reserved
    putLe32(frame.data() + 8,
            static_cast<std::uint32_t>(payloadLen));
    putLe32(frame.data() + 12, frameCrc(frame.data(), payloadLen));
    return frame;
}

TraceIoStatus
decodeTrace(const std::uint8_t *data, std::size_t size,
            std::vector<TraceEvent> *out)
{
    if (size < kTraceHeaderSize)
        return TraceIoStatus::Truncated;
    if (getLe32(data) != kTraceMagic)
        return TraceIoStatus::BadMagic;
    if (getLe16(data + 4) != kTraceVersion)
        return TraceIoStatus::BadVersion;

    std::uint32_t payloadLen = getLe32(data + 8);
    if (payloadLen > size - kTraceHeaderSize)
        return TraceIoStatus::Truncated;
    if (payloadLen < size - kTraceHeaderSize)
        return TraceIoStatus::Malformed; // trailing bytes
    if (frameCrc(data, payloadLen) != getLe32(data + 12))
        return TraceIoStatus::BadCrc;

    if (payloadLen < 4)
        return TraceIoStatus::Malformed;
    const std::uint8_t *p = data + kTraceHeaderSize;
    std::uint32_t count = getLe32(p);
    p += 4;
    // The count must account for the payload exactly: no trailing
    // bytes, no partial trailing record.
    if (static_cast<std::uint64_t>(count) * kTraceEventSize !=
        payloadLen - 4) {
        return TraceIoStatus::Malformed;
    }

    std::vector<TraceEvent> events;
    events.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        TraceEvent e;
        e.tsc = getLe64(p);
        e.tid = getLe32(p + 8);
        std::uint8_t category = p[12];
        std::uint8_t phase = p[13];
        std::uint16_t id = getLe16(p + 14);
        e.arg = getLe64(p + 16);
        if (category >= kTraceCategoryCount ||
            phase >= kTracePhaseCount || id >= kTraceIdCount) {
            return TraceIoStatus::Malformed;
        }
        e.category = static_cast<TraceCategory>(category);
        e.phase = static_cast<TracePhase>(phase);
        e.id = static_cast<TraceId>(id);
        events.push_back(e);
        p += kTraceEventSize;
    }
    *out = std::move(events);
    return TraceIoStatus::Ok;
}

TraceIoStatus
writeTraceFile(const std::string &path,
               const std::vector<TraceEvent> &events)
{
    std::vector<std::uint8_t> frame = encodeTrace(events);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return TraceIoStatus::IoError;
    os.write(reinterpret_cast<const char *>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    return os ? TraceIoStatus::Ok : TraceIoStatus::IoError;
}

TraceIoStatus
readTraceFile(const std::string &path, std::vector<TraceEvent> *out)
{
    std::vector<std::uint8_t> bytes;
    if (!readWholeFile(path, &bytes))
        return TraceIoStatus::IoError;
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
