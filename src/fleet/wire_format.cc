#include "fleet/wire_format.hh"

namespace stm::fleet
{

namespace
{

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

} // namespace

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
    RawSink sink{out + kFrameHeaderSize};
    encodePayload(profile, sink);
    std::size_t payloadLen =
        static_cast<std::size_t>(sink.p - (out + kFrameHeaderSize));
    sealFrame(kWireFrame, out, payloadLen);
    return kFrameHeaderSize + payloadLen;
}

std::vector<std::uint8_t>
serialize(const RunProfile &profile)
{
    std::vector<std::uint8_t> frame(encodedFrameSize(profile));
    serializeInto(profile, frame.data());
    return frame;
}

void
restampFrame(std::uint8_t *frame, std::size_t size,
             std::uint64_t machine_id, std::uint64_t run_seed)
{
    std::uint8_t *payload = frame + kFrameHeaderSize;
    le::put(payload, machine_id);
    le::put(payload + 8, run_seed);
    sealFrame(kWireFrame, frame, size - kFrameHeaderSize);
}

FrameStatus
decodeFrameView(const std::uint8_t *data, std::size_t size,
                RunProfileView *out)
{
    std::size_t payloadLen = 0;
    FrameStatus status = verifyFrame(kWireFrame, data, size, &payloadLen);
    if (status != FrameStatus::Ok)
        return status;

    // Structural walk over the payload. Nothing is copied: scalars
    // are decoded into the view, the record arrays are only
    // bounds-checked and enum-range-checked, and remembered by
    // position.
    const std::uint8_t *payload = data + kFrameHeaderSize;
    FrameReader r(payload, payloadLen);
    RunProfileView v;
    v.machineId_ = r.u64();
    v.runSeed_ = r.u64();
    std::uint32_t bugLen = r.u32();
    const std::uint8_t *bug = r.take(bugLen);
    std::uint8_t failure = r.u8();
    std::uint8_t kind = r.u8();
    v.site_ = r.u32();
    v.thread_ = r.u32();
    v.step_ = r.u64();
    v.lbrCount_ = r.u32();
    v.lbrBytes_ = r.take(v.lbrCount_, kWireLbrRecordSize);
    v.lcrCount_ = r.u32();
    v.lcrBytes_ = r.take(v.lcrCount_, kWireLcrRecordSize);
    if (!r.ok() || r.remaining() != 0 || failure > 1 || kind > 1)
        return FrameStatus::Malformed;
    v.bugId_ = std::string_view(reinterpret_cast<const char *>(bug),
                                bugLen);
    v.failure_ = failure != 0;
    v.kind_ = static_cast<ProfileKind>(kind);

    const std::uint8_t *rec = v.lbrBytes_;
    for (std::uint32_t i = 0; i < v.lbrCount_;
         ++i, rec += kWireLbrRecordSize) {
        if (rec[16] > static_cast<std::uint8_t>(BranchKind::FarBranch) ||
            rec[17] > 1 || rec[22] > 1) {
            return FrameStatus::Malformed;
        }
    }
    rec = v.lcrBytes_;
    for (std::uint32_t i = 0; i < v.lcrCount_;
         ++i, rec += kWireLcrRecordSize) {
        if (rec[8] > static_cast<std::uint8_t>(MesiState::Modified) ||
            rec[9] > 1) {
            return FrameStatus::Malformed;
        }
    }

    v.payload_ = payload;
    v.payloadLen_ = payloadLen;
    *out = v;
    return FrameStatus::Ok;
}

BranchRecord
RunProfileView::lbr(std::size_t i) const
{
    const std::uint8_t *r = lbrBytes_ + i * kWireLbrRecordSize;
    BranchRecord b;
    b.fromIp = le::get<std::uint64_t>(r);
    b.toIp = le::get<std::uint64_t>(r + 8);
    b.kind = static_cast<BranchKind>(r[16]);
    b.kernel = r[17] != 0;
    b.srcBranch = le::get<std::uint32_t>(r + 18);
    b.outcome = r[22] != 0;
    return b;
}

LcrRecord
RunProfileView::lcr(std::size_t i) const
{
    const std::uint8_t *r = lcrBytes_ + i * kWireLcrRecordSize;
    LcrRecord c;
    c.pc = le::get<std::uint64_t>(r);
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

FrameStatus
deserialize(const std::uint8_t *data, std::size_t size,
            RunProfile *out)
{
    RunProfileView view;
    FrameStatus status = decodeFrameView(data, size, &view);
    if (status != FrameStatus::Ok)
        return status;
    *out = view.materialize();
    return FrameStatus::Ok;
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
