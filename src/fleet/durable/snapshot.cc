#include "fleet/durable/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "diag/event_key.hh"
#include "support/file_io.hh"

namespace stm::fleet
{

namespace
{

/** Fixed payload prefix: collectorId u64 + epoch u64 + count u64. */
constexpr std::size_t kPrefixSize = 24;
/** Per-report header: fingerprint u64 + failure u8 + eventCount u32. */
constexpr std::size_t kReportHeaderSize = 13;
constexpr std::size_t kEventSize = 17; // type u8 + a u64 + b u64

} // namespace

ReportDigest
digestOfView(const RunProfileView &view)
{
    ReportDigest d;
    d.failure = view.failure();
    if (view.kind() == ProfileKind::Lbr) {
        d.events.reserve(view.lbrSize());
        for (std::size_t i = 0; i < view.lbrSize(); ++i)
            d.events.push_back(eventOfBranchRecord(view.lbr(i)));
    } else {
        d.events.reserve(view.lcrSize());
        for (std::size_t i = 0; i < view.lcrSize(); ++i)
            d.events.push_back(eventOfLcrRecord(view.lcr(i)));
    }
    std::sort(d.events.begin(), d.events.end());
    d.events.erase(std::unique(d.events.begin(), d.events.end()),
                   d.events.end());
    return d;
}

void
RankerSnapshot::merge(RankerSnapshot other)
{
    // min/max metadata keeps the merged scalars order-independent.
    // Collector id 0 is "unset" (the identity element a
    // default-constructed accumulator starts as) and never wins the
    // min — real collectors use ids >= 1.
    if (collectorId_ == 0)
        collectorId_ = other.collectorId_;
    else if (other.collectorId_ != 0)
        collectorId_ = std::min(collectorId_, other.collectorId_);
    epoch_ = std::max(epoch_, other.epoch_);
    // map::merge moves nodes across and leaves a colliding key's
    // existing digest in place, which is exactly idempotence (equal
    // fingerprints carry equal digests).
    if (reports_.empty())
        reports_ = std::move(other.reports_);
    else
        reports_.merge(other.reports_);
}

scoring::SufficientStats
RankerSnapshot::sufficientStats() const
{
    scoring::SufficientStats stats;
    for (const auto &[fp, d] : reports_) {
        if (d.failure) {
            ++stats.failures;
            for (const EventKey &e : d.events)
                ++stats.tallies[e].inFailures;
        } else {
            ++stats.successes;
            for (const EventKey &e : d.events)
                ++stats.tallies[e].inSuccesses;
        }
    }
    return stats;
}

std::vector<RankedEvent>
RankerSnapshot::rank(bool include_absence) const
{
    scoring::SufficientStats s = sufficientStats();
    return scoring::rankTallies(s.tallies, s.failures, s.successes,
                                include_absence);
}

std::size_t
RankerSnapshot::encodedSize() const
{
    std::size_t size = kFrameHeaderSize + kPrefixSize;
    for (const auto &[fp, d] : reports_)
        size += kReportHeaderSize + kEventSize * d.events.size();
    return size;
}

std::vector<std::uint8_t>
RankerSnapshot::serialize() const
{
    std::vector<std::uint8_t> out(encodedSize());
    encodeInto(out.data(), out.size());
    return out;
}

void
RankerSnapshot::encodeInto(std::uint8_t *out, std::size_t size) const
{
    RawSink sink{out + kFrameHeaderSize};
    Writer<RawSink> w(sink);
    w.u64(collectorId_);
    w.u64(epoch_);
    w.u64(reports_.size());
    for (const auto &[fp, d] : reports_) {
        w.u64(fp);
        w.u8(d.failure ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(d.events.size()));
        for (const EventKey &e : d.events) {
            w.u8(static_cast<std::uint8_t>(e.type));
            w.u64(e.a);
            w.u64(e.b);
        }
    }
    sealFrame(kSnapFrame, out, size - kFrameHeaderSize);
}

FrameStatus
RankerSnapshot::deserialize(const std::uint8_t *data,
                            std::size_t size, RankerSnapshot *out)
{
    std::size_t payloadLen = 0;
    FrameStatus status =
        verifyFrame(kSnapFrame, data, size, &payloadLen);
    if (status != FrameStatus::Ok)
        return status;

    FrameReader r(data + kFrameHeaderSize, payloadLen);
    RankerSnapshot snap;
    snap.collectorId_ = r.u64();
    snap.epoch_ = r.u64();
    std::uint64_t reportCount = r.u64();
    // Every report costs at least its header; reject absurd counts
    // before looping so a hostile header cannot make us spin.
    if (!r.ok() || reportCount > r.remaining() / kReportHeaderSize)
        return FrameStatus::Malformed;

    std::uint64_t lastFp = 0;
    for (std::uint64_t i = 0; i < reportCount; ++i) {
        std::uint64_t fp = r.u64();
        std::uint8_t failure = r.u8();
        std::uint32_t eventCount = r.u32();
        const std::uint8_t *p = r.take(eventCount, kEventSize);
        // Canonical order is strictly ascending; ties would mean
        // duplicate keys, inversions a non-canonical encoder. Both
        // would break the equal-maps-equal-bytes guarantee.
        if (!r.ok() || failure > 1 || (i != 0 && fp <= lastFp))
            return FrameStatus::Malformed;
        lastFp = fp;
        ReportDigest d;
        d.failure = failure != 0;
        d.events.reserve(eventCount);
        for (std::uint32_t k = 0; k < eventCount; ++k, p += kEventSize) {
            if (p[0] > static_cast<std::uint8_t>(
                           EventKey::Type::Coherence)) {
                return FrameStatus::Malformed;
            }
            EventKey e;
            e.type = static_cast<EventKey::Type>(p[0]);
            e.a = le::get<std::uint64_t>(p + 1);
            e.b = le::get<std::uint64_t>(p + 9);
            if (!d.events.empty() && !(d.events.back() < e))
                return FrameStatus::Malformed; // non-canonical
            d.events.push_back(e);
        }
        snap.reports_.emplace_hint(snap.reports_.end(), fp,
                                   std::move(d));
    }
    if (r.remaining() != 0)
        return FrameStatus::Malformed;
    *out = std::move(snap);
    return FrameStatus::Ok;
}

bool
RankerSnapshot::writeFile(const std::string &path,
                          std::size_t *bytes_out) const
{
    // The image goes through its own mapping, not the heap (see
    // PageBuffer): snapshots run to megabytes and live only here.
    PageBuffer bytes(encodedSize());
    encodeInto(bytes.data(), bytes.size());
    if (bytes_out)
        *bytes_out = bytes.size();
    std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        if (!os)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

FrameStatus
RankerSnapshot::readFile(const std::string &path,
                         RankerSnapshot *out)
{
    PageBuffer bytes;
    if (!readWholeFile(path, &bytes))
        return FrameStatus::IoError;
    return deserialize(bytes.data(), bytes.size(), out);
}

} // namespace stm::fleet
