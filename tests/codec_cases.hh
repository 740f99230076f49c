/**
 * @file
 * Shared fixtures for the binary-format tests: random sample
 * generators, and one Codec adapter per decoder (wire frame, trace
 * dump, ranker snapshot, WAL segment) that the hostile-byte suite
 * (test_frame_codec.cc) and the fuzz driver (test_codec_fuzz.cc) run
 * through the same checks.
 *
 * An adapter's decode() also asserts what is specific to its format:
 * the wire's frame view and deserialize() agree on every input, and a
 * framed decoder that fails leaves its output untouched.
 */

#ifndef STM_TESTS_CODEC_CASES_HH
#define STM_TESTS_CODEC_CASES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fleet/durable/snapshot.hh"
#include "fleet/durable/wal.hh"
#include "fleet/wire_format.hh"
#include "isa/types.hh"
#include "obs/trace_io.hh"
#include "support/checksum.hh"
#include "support/frame_codec.hh"
#include "support/random.hh"

namespace stm::test
{

// ---- samples ------------------------------------------------------------

/** A deterministic pseudo-random RunProfile. */
inline fleet::RunProfile
randomProfile(Pcg32 &rng)
{
    fleet::RunProfile p;
    p.machineId = rng.next();
    p.runSeed = (static_cast<std::uint64_t>(rng.next()) << 32) |
                rng.next();
    p.bugId = "bug-" + std::to_string(rng.nextBounded(1000));
    p.failure = rng.nextBool(0.5);
    p.kind = rng.nextBool(0.5) ? ProfileKind::Lbr : ProfileKind::Lcr;
    p.site = rng.nextBounded(100);
    p.thread = rng.nextBounded(8);
    p.step = rng.next();

    std::uint32_t nLbr =
        p.kind == ProfileKind::Lbr ? rng.nextBounded(17) : 0;
    for (std::uint32_t i = 0; i < nLbr; ++i) {
        BranchRecord b;
        b.fromIp = layout::codeAddr(rng.nextBounded(500));
        b.toIp = layout::codeAddr(rng.nextBounded(500));
        b.kind = static_cast<BranchKind>(1 + rng.nextBounded(7));
        b.kernel = rng.nextBool(0.1);
        b.srcBranch = rng.nextBool(0.8) ? rng.nextBounded(64)
                                        : kNoSourceBranch;
        b.outcome = rng.nextBool(0.5);
        p.lbr.push_back(b);
    }
    std::uint32_t nLcr =
        p.kind == ProfileKind::Lcr ? rng.nextBounded(17) : 0;
    for (std::uint32_t i = 0; i < nLcr; ++i) {
        LcrRecord c;
        c.pc = layout::codeAddr(rng.nextBounded(500));
        c.observed = static_cast<MesiState>(rng.nextBounded(4));
        c.store = rng.nextBool(0.5);
        p.lcr.push_back(c);
    }
    return p;
}

/** A deterministic pseudo-random trace event. */
inline obs::TraceEvent
randomEvent(Pcg32 &rng)
{
    obs::TraceEvent e;
    e.tsc = (static_cast<std::uint64_t>(rng.next()) << 32) |
            rng.next();
    e.tid = rng.next();
    e.category = static_cast<obs::TraceCategory>(
        rng.nextBounded(obs::kTraceCategoryCount));
    e.phase = static_cast<obs::TracePhase>(
        rng.nextBounded(obs::kTracePhaseCount));
    e.id = static_cast<obs::TraceId>(
        rng.nextBounded(obs::kTraceIdCount));
    e.arg = (static_cast<std::uint64_t>(rng.next()) << 32) |
            rng.next();
    return e;
}

inline std::vector<obs::TraceEvent>
randomStream(Pcg32 &rng, std::size_t count)
{
    std::vector<obs::TraceEvent> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        events.push_back(randomEvent(rng));
    return events;
}

/** The (fingerprint, digest) pair one profile contributes. */
inline std::pair<std::uint64_t, fleet::ReportDigest>
entryOf(const fleet::RunProfile &p)
{
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    fleet::RunProfileView view;
    EXPECT_EQ(fleet::decodeFrameView(wire.data(), wire.size(), &view),
              FrameStatus::Ok);
    return {fleet::fingerprint(p), fleet::digestOfView(view)};
}

/** N random profiles with pairwise-distinct fingerprints. */
inline std::vector<fleet::RunProfile>
distinctProfiles(Pcg32 &rng, std::size_t n)
{
    std::vector<fleet::RunProfile> out;
    std::set<std::uint64_t> prints;
    while (out.size() < n) {
        fleet::RunProfile p = randomProfile(rng);
        if (prints.insert(fleet::fingerprint(p)).second)
            out.push_back(std::move(p));
    }
    return out;
}

inline fleet::RankerSnapshot::ReportMap
mapOf(const std::vector<fleet::RunProfile> &profiles)
{
    fleet::RankerSnapshot::ReportMap m;
    for (const fleet::RunProfile &p : profiles)
        m.insert(entryOf(p));
    return m;
}

/**
 * One WAL record's bytes as wal.hh documents them:
 * [magic "WREC"][epoch u64][frameLen u32][crc32][frame].
 */
inline std::vector<std::uint8_t>
walRecordBytes(std::uint64_t epoch,
               const std::vector<std::uint8_t> &frame)
{
    std::vector<std::uint8_t> rec(fleet::kWalRecordHeaderSize);
    le::put(rec.data(), fleet::kWalRecordMagic);
    le::put(rec.data() + 4, epoch);
    le::put(rec.data() + 12, static_cast<std::uint32_t>(frame.size()));
    std::uint32_t crc = crc32Init();
    crc = crc32Update(crc, rec.data() + 4, 12);
    crc = crc32Update(crc, frame.data(), frame.size());
    le::put(rec.data() + 16, crc32Final(crc));
    rec.insert(rec.end(), frame.begin(), frame.end());
    return rec;
}

/** A WAL segment header for @p collector_id. */
inline std::vector<std::uint8_t>
walSegmentHeader(std::uint64_t collector_id)
{
    std::vector<std::uint8_t> h(fleet::kWalSegmentHeaderSize);
    le::put(h.data(), fleet::kWalMagic);
    le::put(h.data() + 4, fleet::kWalVersion);
    le::put(h.data() + 8, collector_id);
    return h;
}

/**
 * @p frame with its reserved header flags set to @p flags and the CRC
 * recomputed, so only the flags check can refuse it.
 */
inline std::vector<std::uint8_t>
withFlags(std::vector<std::uint8_t> frame, std::uint16_t flags)
{
    le::put(frame.data() + 6, flags);
    le::put(frame.data() + 12,
            frameCrc(frame.data(), frame.size() - kFrameHeaderSize));
    return frame;
}

// ---- codec adapters -----------------------------------------------------

/** One valid encoding and what a decoder must recover from it. */
struct Image
{
    std::vector<std::uint8_t> bytes;
    /**
     * The canonical re-encoding of each decoded item: the whole
     * value for a framed format, one record for the WAL.
     */
    std::vector<std::vector<std::uint8_t>> items;
    /** Lengths at which a prefix of bytes is itself valid. */
    std::vector<std::size_t> boundaries;
};

/** What one decode produced. */
struct Decoded
{
    FrameStatus status = FrameStatus::Ok;
    /** Re-encodings of the items decoded, in order. */
    std::vector<std::vector<std::uint8_t>> items;
};

/** One decoder under test. */
struct Codec
{
    std::string name;
    /** Bytes before the first item: the WAL's segment header. */
    std::size_t preamble = 0;
    std::function<Image(Pcg32 &)> sample;
    std::function<Decoded(const std::vector<std::uint8_t> &)> decode;
};

/** A framed format's image: one item, valid only when whole. */
inline Image
framedImage(std::vector<std::uint8_t> bytes)
{
    Image img;
    img.boundaries = {bytes.size()};
    img.items = {bytes};
    img.bytes = std::move(bytes);
    return img;
}

inline Codec
wireCodec()
{
    Codec c;
    c.name = "wire";
    c.sample = [](Pcg32 &rng) {
        return framedImage(fleet::serialize(randomProfile(rng)));
    };
    c.decode = [](const std::vector<std::uint8_t> &bytes) {
        fleet::RunProfile sentinel;
        sentinel.bugId = "untouched";
        fleet::RunProfile out = sentinel;
        fleet::RunProfileView view;
        Decoded d;
        d.status = fleet::deserialize(bytes, &out);
        // The zero-copy view must agree status-for-status with
        // deserialize() on any input, not merely both reject.
        EXPECT_EQ(fleet::decodeFrameView(bytes.data(), bytes.size(),
                                         &view),
                  d.status);
        if (d.status != FrameStatus::Ok) {
            EXPECT_EQ(out, sentinel) << "output clobbered";
        } else {
            EXPECT_EQ(view.materialize(), out);
            d.items.push_back(fleet::serialize(out));
        }
        return d;
    };
    return c;
}

inline Codec
traceCodec()
{
    Codec c;
    c.name = "trace";
    c.sample = [](Pcg32 &rng) {
        return framedImage(
            obs::encodeTrace(randomStream(rng, 1 + rng.nextBounded(9))));
    };
    c.decode = [](const std::vector<std::uint8_t> &bytes) {
        const std::vector<obs::TraceEvent> sentinel(
            1, obs::TraceEvent{7, 7, obs::TraceCategory::Diag,
                               obs::TracePhase::End,
                               obs::TraceId::VmRun, 7});
        std::vector<obs::TraceEvent> out = sentinel;
        Decoded d;
        d.status = obs::decodeTrace(bytes, &out);
        if (d.status != FrameStatus::Ok) {
            EXPECT_EQ(out, sentinel) << "output clobbered";
        } else {
            d.items.push_back(obs::encodeTrace(out));
        }
        return d;
    };
    return c;
}

inline Codec
snapshotCodec()
{
    Codec c;
    c.name = "snapshot";
    c.sample = [](Pcg32 &rng) {
        fleet::RankerSnapshot snap(
            1 + rng.nextBounded(5), rng.next(),
            mapOf(distinctProfiles(rng, 1 + rng.nextBounded(6))));
        return framedImage(snap.serialize());
    };
    c.decode = [](const std::vector<std::uint8_t> &bytes) {
        const fleet::RankerSnapshot sentinel(9, 9, {});
        fleet::RankerSnapshot out = sentinel;
        Decoded d;
        d.status = fleet::RankerSnapshot::deserialize(bytes, &out);
        if (d.status != FrameStatus::Ok) {
            EXPECT_EQ(out, sentinel) << "output clobbered";
        } else {
            d.items.push_back(out.serialize());
        }
        return d;
    };
    return c;
}

inline Codec
walCodec()
{
    Codec c;
    c.name = "wal";
    c.preamble = fleet::kWalSegmentHeaderSize;
    c.sample = [](Pcg32 &rng) {
        Image img;
        img.bytes = walSegmentHeader(1 + rng.nextBounded(5));
        img.boundaries.push_back(img.bytes.size());
        std::uint64_t epoch = rng.nextBounded(4);
        for (std::uint32_t n = 1 + rng.nextBounded(8); n != 0; --n) {
            epoch += rng.nextBounded(2);
            img.items.push_back(walRecordBytes(
                epoch, fleet::serialize(randomProfile(rng))));
            img.bytes.insert(img.bytes.end(), img.items.back().begin(),
                             img.items.back().end());
            img.boundaries.push_back(img.bytes.size());
        }
        return img;
    };
    c.decode = [](const std::vector<std::uint8_t> &bytes) {
        Decoded d;
        fleet::WalReplayResult r = fleet::replayWalBytes(
            bytes.data(), bytes.size(),
            [&](const fleet::WalRecord &rec) {
                d.items.push_back(walRecordBytes(rec.epoch, rec.frame));
            });
        d.status = r.status;
        EXPECT_EQ(r.records, d.items.size());
        std::size_t bytesReplayed = 0;
        for (const auto &item : d.items)
            bytesReplayed += item.size();
        EXPECT_EQ(r.bytes, bytesReplayed);
        return d;
    };
    return c;
}

/** Every decoder, in a fixed order. */
inline std::vector<Codec>
allCodecs()
{
    return {wireCodec(), traceCodec(), snapshotCodec(), walCodec()};
}

} // namespace stm::test

#endif // STM_TESTS_CODEC_CASES_HH
