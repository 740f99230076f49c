#include "fleet/wire_format.hh"

#include <cstring>
#include <limits>

#include "support/checksum.hh"

namespace stm::fleet
{

namespace
{

/** Explicit little-endian stores/loads (the wire is LE everywhere). */
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
 * Encoding sinks. The canonical payload encoder is templated over
 * where the bytes go, so one definition serves three consumers:
 * vector-building (serialize), in-place arena writes (serializeInto),
 * and the streaming fingerprint (FnvSink hashes the encoding without
 * ever buffering it). Divergence between fingerprint and wire bytes
 * is impossible by construction.
 */
struct VectorSink
{
    std::vector<std::uint8_t> &out;

    void put(std::uint8_t b) { out.push_back(b); }

    void
    write(const std::uint8_t *p, std::size_t n)
    {
        out.insert(out.end(), p, p + n);
    }
};

struct RawSink
{
    std::uint8_t *p;

    void put(std::uint8_t b) { *p++ = b; }

    void
    write(const std::uint8_t *q, std::size_t n)
    {
        std::memcpy(p, q, n);
        p += n;
    }
};

struct FnvSink
{
    std::uint64_t h = kFnv1aBasis;

    void
    put(std::uint8_t b)
    {
        h = (h ^ b) * kFnv1aPrime;
    }

    void
    write(const std::uint8_t *p, std::size_t n)
    {
        h = fnv1a(p, n, h);
    }
};

/** Little-endian append helpers over any sink. */
template <typename Sink>
class Writer
{
  public:
    explicit Writer(Sink &sink) : sink_(sink) {}

    void
    u8(std::uint8_t v)
    {
        sink_.put(v);
    }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        sink_.write(reinterpret_cast<const std::uint8_t *>(s.data()),
                    s.size());
    }

  private:
    Sink &sink_;
};

/** Canonical payload encoding (everything after the frame header). */
template <typename Sink>
void
encodePayload(const RunProfile &p, Sink &sink)
{
    Writer<Sink> w(sink);
    w.u64(p.machineId);
    w.u64(p.runSeed);
    w.str(p.bugId);
    w.u8(p.failure ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.u32(p.site);
    w.u32(p.thread);
    w.u64(p.step);
    w.u32(static_cast<std::uint32_t>(p.lbr.size()));
    for (const BranchRecord &r : p.lbr) {
        w.u64(r.fromIp);
        w.u64(r.toIp);
        w.u8(static_cast<std::uint8_t>(r.kind));
        w.u8(r.kernel ? 1 : 0);
        w.u32(r.srcBranch);
        w.u8(r.outcome ? 1 : 0);
    }
    w.u32(static_cast<std::uint32_t>(p.lcr.size()));
    for (const LcrRecord &r : p.lcr) {
        w.u64(r.pc);
        w.u8(static_cast<std::uint8_t>(r.observed));
        w.u8(r.store ? 1 : 0);
    }
}

/**
 * CRC of the covered frame region: version + flags + payload (bytes
 * [4, 12) and [16, 16+payloadLen)), skipping the magic and the CRC
 * field itself. Built on the shared support/checksum CRC32.
 */
std::uint32_t
frameCrc(const std::uint8_t *frame, std::size_t payload_len)
{
    std::uint32_t c = crc32Init();
    c = crc32Update(c, frame + 4, 8);
    c = crc32Update(c, frame + kWireHeaderSize, payload_len);
    return crc32Final(c);
}

} // namespace

std::string
wireStatusName(WireStatus status)
{
    switch (status) {
      case WireStatus::Ok:
        return "ok";
      case WireStatus::Truncated:
        return "truncated";
      case WireStatus::BadMagic:
        return "bad-magic";
      case WireStatus::BadVersion:
        return "bad-version";
      case WireStatus::BadCrc:
        return "bad-crc";
      case WireStatus::Malformed:
        return "malformed";
    }
    return "unknown";
}

std::size_t
encodedPayloadSize(const RunProfile &profile)
{
    // Scalars (38) + bugId length prefix is inside the 38; records
    // are fixed-width. Layout: 8+8 ids, 4+len bugId, 1+1 flags,
    // 4+4 site/thread, 8 step, 4+23n LBR, 4+10m LCR.
    return 38 + profile.bugId.size() + 4 +
           kWireLbrRecordSize * profile.lbr.size() + 4 +
           kWireLcrRecordSize * profile.lcr.size();
}

std::size_t
serializeInto(const RunProfile &profile, std::uint8_t *out)
{
    RawSink sink{out + kWireHeaderSize};
    encodePayload(profile, sink);
    std::size_t payloadLen =
        static_cast<std::size_t>(sink.p - (out + kWireHeaderSize));
    putLe32(out, kWireMagic);
    putLe16(out + 4, kWireVersion);
    putLe16(out + 6, 0); // flags, reserved
    putLe32(out + 8, static_cast<std::uint32_t>(payloadLen));
    putLe32(out + 12, frameCrc(out, payloadLen));
    return kWireHeaderSize + payloadLen;
}

std::vector<std::uint8_t>
serialize(const RunProfile &profile)
{
    std::vector<std::uint8_t> frame(encodedFrameSize(profile));
    serializeInto(profile, frame.data());
    return frame;
}

WireStatus
decodeFrameView(const std::uint8_t *data, std::size_t size,
                RunProfileView *out, bool trusted)
{
    if (size < kWireHeaderSize)
        return WireStatus::Truncated;

    if (getLe32(data) != kWireMagic)
        return WireStatus::BadMagic;

    if (getLe16(data + 4) != kWireVersion)
        return WireStatus::BadVersion;

    std::uint32_t payloadLen = getLe32(data + 8);
    if (payloadLen > size - kWireHeaderSize)
        return WireStatus::Truncated;
    if (payloadLen < size - kWireHeaderSize)
        return WireStatus::Malformed; // trailing bytes

    if (!trusted && frameCrc(data, payloadLen) != getLe32(data + 12))
        return WireStatus::BadCrc;

    // Structural walk over the payload. Nothing is copied: scalars
    // are decoded into the view, the record arrays are only
    // bounds-checked (and, for untrusted bytes, enum-range-checked)
    // and remembered by position.
    const std::uint8_t *p = data + kWireHeaderSize;
    std::size_t rem = payloadLen;

    // Scalar prefix up to the bugId length: 8+8+4 bytes.
    if (rem < 20)
        return WireStatus::Malformed;
    RunProfileView v;
    v.machineId_ = getLe64(p);
    v.runSeed_ = getLe64(p + 8);
    std::uint32_t bugLen = getLe32(p + 16);
    p += 20;
    rem -= 20;
    if (bugLen > rem)
        return WireStatus::Malformed;
    v.bugId_ = std::string_view(reinterpret_cast<const char *>(p),
                                bugLen);
    p += bugLen;
    rem -= bugLen;

    // failure u8, kind u8, site u32, thread u32, step u64.
    if (rem < 18)
        return WireStatus::Malformed;
    std::uint8_t failure = p[0];
    std::uint8_t kind = p[1];
    if (failure > 1 || kind > 1)
        return WireStatus::Malformed;
    v.failure_ = failure != 0;
    v.kind_ = static_cast<ProfileKind>(kind);
    v.site_ = getLe32(p + 2);
    v.thread_ = getLe32(p + 6);
    v.step_ = getLe64(p + 10);
    p += 18;
    rem -= 18;

    if (rem < 4)
        return WireStatus::Malformed;
    std::uint32_t nLbr = getLe32(p);
    p += 4;
    rem -= 4;
    if (nLbr > rem / kWireLbrRecordSize)
        return WireStatus::Malformed;
    v.lbrBytes_ = p;
    v.lbrCount_ = nLbr;
    if (!trusted) {
        const std::uint8_t *r = p;
        for (std::uint32_t i = 0; i < nLbr;
             ++i, r += kWireLbrRecordSize) {
            std::uint8_t bkind = r[16];
            std::uint8_t kernel = r[17];
            std::uint8_t outcome = r[22];
            if (bkind >
                    static_cast<std::uint8_t>(BranchKind::FarBranch) ||
                kernel > 1 || outcome > 1) {
                return WireStatus::Malformed;
            }
        }
    }
    p += static_cast<std::size_t>(nLbr) * kWireLbrRecordSize;
    rem -= static_cast<std::size_t>(nLbr) * kWireLbrRecordSize;

    if (rem < 4)
        return WireStatus::Malformed;
    std::uint32_t nLcr = getLe32(p);
    p += 4;
    rem -= 4;
    if (nLcr > rem / kWireLcrRecordSize)
        return WireStatus::Malformed;
    v.lcrBytes_ = p;
    v.lcrCount_ = nLcr;
    if (!trusted) {
        const std::uint8_t *r = p;
        for (std::uint32_t i = 0; i < nLcr;
             ++i, r += kWireLcrRecordSize) {
            std::uint8_t state = r[8];
            std::uint8_t store = r[9];
            if (state >
                    static_cast<std::uint8_t>(MesiState::Modified) ||
                store > 1) {
                return WireStatus::Malformed;
            }
        }
    }
    p += static_cast<std::size_t>(nLcr) * kWireLcrRecordSize;
    rem -= static_cast<std::size_t>(nLcr) * kWireLcrRecordSize;

    if (rem != 0)
        return WireStatus::Malformed;

    v.payload_ = data + kWireHeaderSize;
    v.payloadLen_ = payloadLen;
    *out = v;
    return WireStatus::Ok;
}

BranchRecord
RunProfileView::lbr(std::size_t i) const
{
    const std::uint8_t *r = lbrBytes_ + i * kWireLbrRecordSize;
    BranchRecord b;
    b.fromIp = getLe64(r);
    b.toIp = getLe64(r + 8);
    b.kind = static_cast<BranchKind>(r[16]);
    b.kernel = r[17] != 0;
    b.srcBranch = getLe32(r + 18);
    b.outcome = r[22] != 0;
    return b;
}

LcrRecord
RunProfileView::lcr(std::size_t i) const
{
    const std::uint8_t *r = lcrBytes_ + i * kWireLcrRecordSize;
    LcrRecord c;
    c.pc = getLe64(r);
    c.observed = static_cast<MesiState>(r[8]);
    c.store = r[9] != 0;
    return c;
}

RunProfile
RunProfileView::materialize() const
{
    RunProfile p;
    p.machineId = machineId_;
    p.runSeed = runSeed_;
    p.bugId = std::string(bugId_);
    p.failure = failure_;
    p.kind = kind_;
    p.site = site_;
    p.thread = thread_;
    p.step = step_;
    p.lbr.reserve(lbrCount_);
    for (std::size_t i = 0; i < lbrCount_; ++i)
        p.lbr.push_back(lbr(i));
    p.lcr.reserve(lcrCount_);
    for (std::size_t i = 0; i < lcrCount_; ++i)
        p.lcr.push_back(lcr(i));
    return p;
}

WireStatus
deserialize(const std::uint8_t *data, std::size_t size,
            RunProfile *out)
{
    RunProfileView view;
    WireStatus status = decodeFrameView(data, size, &view);
    if (status != WireStatus::Ok)
        return status;
    *out = view.materialize();
    return WireStatus::Ok;
}

std::uint64_t
fingerprint(const RunProfile &profile)
{
    FnvSink sink;
    encodePayload(profile, sink);
    return sink.h;
}

RunProfile
profileOfRecord(const ProfileRecord &record, const std::string &bug_id,
                std::uint64_t machine_id, std::uint64_t run_seed,
                bool failure)
{
    RunProfile p;
    p.machineId = machine_id;
    p.runSeed = run_seed;
    p.bugId = bug_id;
    p.failure = failure;
    p.kind = record.kind;
    p.site = record.site;
    p.thread = record.thread;
    p.step = record.step;
    p.lbr = record.lbr;
    p.lcr = record.lcr;
    return p;
}

} // namespace stm::fleet
