/**
 * @file
 * Tests for the fleet collection subsystem (src/fleet): wire-format
 * round-trip, golden bytes, targeted rejections and the every-byte
 * sweeps that hold the copying and zero-copy decoders to one status
 * (the sweeps shared by all four formats live in test_frame_codec.cc),
 * the collector's in-order intake (arrival order, dedup through the
 * owner's fold, decode-error accounting, the submit door), and the
 * batch-vs-incremental ranking equivalence across the whole corpus
 * for shuffled ingest orders.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/ranker.hh"
#include "fleet/collector.hh"
#include "fleet/fleet_sim.hh"
#include "fleet/wire_format.hh"
#include "isa/types.hh"
#include "support/random.hh"
#include "codec_cases.hh"
#include "test_util.hh"

namespace stm
{
namespace
{

using fleet::Collector;
using fleet::IngestStatus;
using fleet::RunProfile;

using test::randomProfile;

// ---- wire format --------------------------------------------------------

TEST(WireFormat, RoundTripsRandomProfiles)
{
    Pcg32 rng(42);
    for (int i = 0; i < 200; ++i) {
        RunProfile p = randomProfile(rng);
        std::vector<std::uint8_t> wire = fleet::serialize(p);
        RunProfile q;
        ASSERT_EQ(fleet::deserialize(wire, &q), FrameStatus::Ok)
            << "profile " << i;
        EXPECT_EQ(p, q) << "profile " << i;
    }
}

TEST(WireFormat, RoundTripsEmptyRings)
{
    RunProfile p;
    p.bugId = "empty";
    p.lbr.clear();
    p.lcr.clear();
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    RunProfile q;
    ASSERT_EQ(fleet::deserialize(wire, &q), FrameStatus::Ok);
    EXPECT_EQ(p, q);
}

TEST(WireFormat, SerializePinsGoldenBytes)
{
    // A fixed frame carrying both record layouts, encoded once and
    // pinned byte for byte: any encoder change must reproduce it.
    RunProfile p;
    p.machineId = 0x0102030405060708ull;
    p.runSeed = 0x1122334455667788ull;
    p.bugId = "sort";
    p.failure = true;
    p.kind = ProfileKind::Lbr;
    p.site = 7;
    p.thread = 2;
    p.step = 0x1234;
    p.lbr.push_back(BranchRecord{0x401000, 0x401020,
                                 BranchKind::Conditional, false, 5,
                                 true});
    p.lbr.push_back(BranchRecord{0x402000, 0x403000,
                                 BranchKind::NearReturn, true,
                                 kNoSourceBranch, false});
    p.lcr.push_back(LcrRecord{0x404000, MesiState::Modified, true});

    const std::vector<std::uint8_t> golden = {
        // header: magic "STMP", version 1, flags 0, payloadLen, crc
        0x53, 0x54, 0x4D, 0x50, 0x01, 0x00, 0x00, 0x00,
        0x6A, 0x00, 0x00, 0x00, 0xBA, 0x72, 0x1D, 0x92,
        // machineId, runSeed
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
        // bugId "sort"
        0x04, 0x00, 0x00, 0x00, 0x73, 0x6F, 0x72, 0x74,
        // failure 1, kind LBR, site 7, thread 2, step 0x1234
        0x01, 0x00, 0x07, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x34, 0x12, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00,
        // two LBR records: from, to, kind, kernel, srcBranch, outcome
        0x02, 0x00, 0x00, 0x00,
        0x00, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x20, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x20, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x30, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x06, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x00,
        // one LCR record: pc, observed, store
        0x01, 0x00, 0x00, 0x00,
        0x00, 0x40, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x01,
    };
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    EXPECT_EQ(wire, golden);
    RunProfile decoded;
    auto status = fleet::deserialize(golden, &decoded);
    EXPECT_EQ(status, decltype(status)::Ok);
    EXPECT_EQ(decoded, p);

    // Reserved flags must be 0, even under a valid CRC: both decoders
    // refuse the frame with one status.
    std::vector<std::uint8_t> flagged = test::withFlags(golden, 1);
    RunProfile untouched;
    EXPECT_EQ(fleet::deserialize(flagged, &untouched),
              FrameStatus::Malformed);
    EXPECT_EQ(untouched, RunProfile{});
    fleet::RunProfileView view;
    EXPECT_EQ(fleet::decodeFrameView(flagged.data(), flagged.size(),
                                     &view),
              FrameStatus::Malformed);
}

TEST(WireFormat, EveryTruncationFailsCleanly)
{
    Pcg32 rng(7);
    RunProfile p = randomProfile(rng);
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    for (std::size_t len = 0; len < wire.size(); ++len) {
        RunProfile q;
        FrameStatus fs = fleet::deserialize(wire.data(), len, &q);
        EXPECT_NE(fs, FrameStatus::Ok) << "prefix length " << len;
    }
}

TEST(WireFormat, TrailingBytesAreRejected)
{
    Pcg32 rng(8);
    std::vector<std::uint8_t> wire =
        fleet::serialize(randomProfile(rng));
    wire.push_back(0);
    RunProfile q;
    EXPECT_EQ(fleet::deserialize(wire, &q), FrameStatus::Malformed);
}

TEST(WireFormat, EverySingleByteCorruptionIsDetected)
{
    Pcg32 rng(9);
    RunProfile p = randomProfile(rng);
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    for (std::size_t at = 0; at < wire.size(); ++at) {
        for (std::uint8_t bit : {0x01, 0x80}) {
            std::vector<std::uint8_t> bad = wire;
            bad[at] ^= bit;
            RunProfile q;
            FrameStatus fs = fleet::deserialize(bad, &q);
            // A flip may land in magic, version, length, CRC, or
            // payload; each is caught by its own check. Nothing may
            // decode successfully.
            EXPECT_NE(fs, FrameStatus::Ok)
                << "byte " << at << " bit " << int(bit);
        }
    }
}

TEST(WireFormat, OverCapPayloadIsMalformedFromTheHeaderAlone)
{
    // A length over kWireMaxPayload is refused before the bytes it
    // claims have arrived, so a 16-byte header is enough to show it.
    Pcg32 rng(15);
    std::vector<std::uint8_t> wire =
        fleet::serialize(randomProfile(rng));
    std::vector<std::uint8_t> header(wire.begin(),
                                     wire.begin() + kFrameHeaderSize);
    le::put(header.data() + 8, fleet::kWireMaxPayload + 1);
    RunProfile q;
    EXPECT_EQ(fleet::deserialize(header, &q), FrameStatus::Malformed);
    fleet::RunProfileView view;
    EXPECT_EQ(fleet::decodeFrameView(header.data(), header.size(), &view),
              FrameStatus::Malformed);
    le::put(header.data() + 8, fleet::kWireMaxPayload);
    EXPECT_EQ(fleet::deserialize(header, &q), FrameStatus::Truncated);
}

TEST(WireFormat, OutOfRangeEnumIsMalformed)
{
    // Set each enum or bool byte to its last defined value (Ok) and to
    // one past it (Malformed), re-sealing so only the range check can
    // reject it.
    RunProfile p;
    p.bugId = "enum";
    p.lbr.push_back(BranchRecord{});
    p.lcr.push_back(LcrRecord{});
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    std::size_t scalars = kFrameHeaderSize + 20 + p.bugId.size();
    std::size_t lbr = scalars + 18 + 4;
    std::size_t lcr = lbr + fleet::kWireLbrRecordSize + 4;
    struct Field
    {
        std::size_t at;
        unsigned last;
    };
    for (Field f :
         {Field{scalars, 1}, Field{scalars + 1, 1},
          Field{lbr + 16, static_cast<unsigned>(BranchKind::FarBranch)},
          Field{lbr + 17, 1}, Field{lbr + 22, 1},
          Field{lcr + 8, static_cast<unsigned>(MesiState::Modified)},
          Field{lcr + 9, 1}}) {
        for (unsigned v : {f.last, f.last + 1}) {
            std::vector<std::uint8_t> bad = wire;
            bad[f.at] = static_cast<std::uint8_t>(v);
            sealFrame(fleet::kWireFrame, bad.data(),
                      bad.size() - kFrameHeaderSize);
            RunProfile q;
            EXPECT_EQ(fleet::deserialize(bad, &q),
                      v <= f.last ? FrameStatus::Ok
                                  : FrameStatus::Malformed)
                << "offset " << f.at << " value " << v;
        }
    }
}

TEST(WireFormat, VersionMismatchIsRejectedBeforeCrc)
{
    Pcg32 rng(11);
    std::vector<std::uint8_t> wire =
        fleet::serialize(randomProfile(rng));
    // Bump the version field only: the CRC (which covers the version)
    // is now stale, but the decoder must classify this as a version
    // mismatch, not bit rot — a v2 sender's checksum domain is
    // unknown to a v1 decoder.
    std::vector<std::uint8_t> v2 = wire;
    v2[4] = static_cast<std::uint8_t>(fleet::kWireFrame.version + 1);
    RunProfile q;
    EXPECT_EQ(fleet::deserialize(v2, &q), FrameStatus::BadVersion);
}

TEST(WireFormat, BadMagicRejected)
{
    Pcg32 rng(12);
    std::vector<std::uint8_t> wire =
        fleet::serialize(randomProfile(rng));
    wire[0] ^= 0xFF;
    RunProfile q;
    EXPECT_EQ(fleet::deserialize(wire, &q), FrameStatus::BadMagic);
}

TEST(WireFormat, PayloadCorruptionIsBadCrc)
{
    Pcg32 rng(13);
    RunProfile p = randomProfile(rng);
    p.bugId = "corrupt-me";
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    wire[kFrameHeaderSize + 3] ^= 0x10;
    RunProfile q;
    EXPECT_EQ(fleet::deserialize(wire, &q), FrameStatus::BadCrc);
}

TEST(WireFormat, FingerprintIsCanonicalAndSensitive)
{
    Pcg32 rng(14);
    RunProfile p = randomProfile(rng);
    RunProfile copy = p;
    EXPECT_EQ(fleet::fingerprint(p), fleet::fingerprint(copy));

    RunProfile differentMachine = p;
    differentMachine.machineId ^= 1;
    EXPECT_NE(fleet::fingerprint(p),
              fleet::fingerprint(differentMachine));

    RunProfile differentLabel = p;
    differentLabel.failure = !differentLabel.failure;
    EXPECT_NE(fleet::fingerprint(p),
              fleet::fingerprint(differentLabel));
}

// ---- zero-copy frame views ----------------------------------------------

TEST(WireFormat, ViewAliasesTheFrameAndMaterializesEqually)
{
    Pcg32 rng(31);
    for (int i = 0; i < 200; ++i) {
        RunProfile p = randomProfile(rng);
        std::vector<std::uint8_t> wire = fleet::serialize(p);
        fleet::RunProfileView v;
        ASSERT_EQ(
            fleet::decodeFrameView(wire.data(), wire.size(), &v),
            FrameStatus::Ok)
            << "profile " << i;
        // Zero copy: the view's payload IS the frame's payload bytes.
        EXPECT_EQ(v.payload(), wire.data() + kFrameHeaderSize);
        EXPECT_EQ(v.payloadSize(),
                  wire.size() - kFrameHeaderSize);
        EXPECT_EQ(v.machineId(), p.machineId);
        EXPECT_EQ(v.runSeed(), p.runSeed);
        EXPECT_EQ(v.bugId(), p.bugId);
        EXPECT_EQ(v.failure(), p.failure);
        EXPECT_EQ(v.kind(), p.kind);
        EXPECT_EQ(v.site(), p.site);
        EXPECT_EQ(v.thread(), p.thread);
        EXPECT_EQ(v.step(), p.step);
        ASSERT_EQ(v.lbrSize(), p.lbr.size());
        for (std::size_t r = 0; r < p.lbr.size(); ++r)
            EXPECT_EQ(v.lbr(r), p.lbr[r]) << "lbr record " << r;
        ASSERT_EQ(v.lcrSize(), p.lcr.size());
        for (std::size_t r = 0; r < p.lcr.size(); ++r)
            EXPECT_EQ(v.lcr(r), p.lcr[r]) << "lcr record " << r;
        EXPECT_EQ(v.materialize(), p);
    }
}

TEST(WireFormat, ViewStatusMatchesDeserializeOnEveryTruncation)
{
    Pcg32 rng(32);
    RunProfile p = randomProfile(rng);
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    for (std::size_t len = 0; len <= wire.size(); ++len) {
        RunProfile q;
        fleet::RunProfileView v;
        // The two decode shapes must agree status-for-status on any
        // prefix, not merely both reject.
        EXPECT_EQ(fleet::decodeFrameView(wire.data(), len, &v),
                  fleet::deserialize(wire.data(), len, &q))
            << "prefix length " << len;
    }
}

TEST(WireFormat, ViewStatusMatchesDeserializeOnEveryByteCorruption)
{
    Pcg32 rng(33);
    RunProfile p = randomProfile(rng);
    std::vector<std::uint8_t> wire = fleet::serialize(p);
    for (std::size_t at = 0; at < wire.size(); ++at) {
        for (std::uint8_t bit : {0x01, 0x80}) {
            std::vector<std::uint8_t> bad = wire;
            bad[at] ^= bit;
            RunProfile q;
            fleet::RunProfileView v;
            FrameStatus want =
                fleet::deserialize(bad.data(), bad.size(), &q);
            EXPECT_EQ(
                fleet::decodeFrameView(bad.data(), bad.size(), &v),
                want)
                << "byte " << at << " bit " << int(bit);
        }
    }
    // And on trailing garbage, for completeness of the partition.
    std::vector<std::uint8_t> trailing = wire;
    trailing.push_back(0);
    fleet::RunProfileView v;
    EXPECT_EQ(fleet::decodeFrameView(trailing.data(),
                                     trailing.size(), &v),
              FrameStatus::Malformed);
}

TEST(WireFormat, SerializeIntoMatchesSerialize)
{
    Pcg32 rng(35);
    for (int i = 0; i < 100; ++i) {
        RunProfile p = randomProfile(rng);
        std::vector<std::uint8_t> wire = fleet::serialize(p);
        ASSERT_EQ(fleet::encodedFrameSize(p), wire.size());
        std::vector<std::uint8_t> direct(wire.size(), 0xAA);
        EXPECT_EQ(fleet::serializeInto(p, direct.data()),
                  wire.size());
        EXPECT_EQ(direct, wire) << "profile " << i;
    }
}

TEST(WireFormat, PayloadFingerprintMatchesProfileFingerprint)
{
    // The collector hashes the encoded payload bytes directly (one
    // walk, no re-encode); that must be the canonical fingerprint.
    Pcg32 rng(36);
    for (int i = 0; i < 100; ++i) {
        RunProfile p = randomProfile(rng);
        std::vector<std::uint8_t> wire = fleet::serialize(p);
        EXPECT_EQ(fleet::fingerprintPayload(
                      wire.data() + kFrameHeaderSize,
                      wire.size() - kFrameHeaderSize),
                  fleet::fingerprint(p))
            << "profile " << i;
    }
}

// ---- collector ----------------------------------------------------------

/**
 * A collector whose owner keeps every novel report, materialized, in
 * arrival order, and dedups on the set of prints it has folded.
 */
struct Inbox
{
    std::unordered_set<std::uint64_t> seen;
    std::vector<RunProfile> reports;
    Collector collector{
        [this](const fleet::RunProfileView &v, std::uint64_t print) {
            if (!seen.insert(print).second)
                return false;
            reports.push_back(v.materialize());
            return true;
        }};
};

TEST(Collector, AcceptsAndDrainsInArrivalOrderPerShard)
{
    Inbox inbox;
    Pcg32 rng(21);
    std::vector<RunProfile> sent;
    for (int i = 0; i < 10; ++i) {
        RunProfile p = randomProfile(rng);
        EXPECT_EQ(inbox.collector.ingest(fleet::serialize(p)),
                  IngestStatus::Accepted);
        sent.push_back(std::move(p));
        // Folded before ingest() returned.
        ASSERT_EQ(inbox.reports.size(), sent.size());
    }
    EXPECT_EQ(inbox.reports, sent);
    EXPECT_EQ(inbox.collector.stats().value("received"), 10u);
    EXPECT_EQ(inbox.collector.stats().value("accepted"), 10u);
}

TEST(Collector, SuppressesDuplicates)
{
    Inbox inbox;
    Pcg32 rng(22);
    std::vector<std::uint8_t> wire =
        fleet::serialize(randomProfile(rng));
    EXPECT_EQ(inbox.collector.ingest(wire), IngestStatus::Accepted);
    EXPECT_EQ(inbox.collector.ingest(wire), IngestStatus::Duplicate);
    // Still a duplicate later: the owner's prints are forever, so
    // late retransmissions cannot double-count.
    EXPECT_EQ(inbox.reports.size(), 1u);
    EXPECT_EQ(inbox.collector.ingest(wire), IngestStatus::Duplicate);
    EXPECT_EQ(inbox.reports.size(), 1u);
    EXPECT_EQ(inbox.collector.stats().value("duplicates"), 2u);
    EXPECT_EQ(inbox.collector.stats().value("accepted"), 1u);
}

TEST(Collector, CountsDecodeErrors)
{
    Inbox inbox;
    Pcg32 rng(23);
    std::vector<std::uint8_t> junk = {1, 2, 3, 4};
    EXPECT_EQ(inbox.collector.ingest(junk), IngestStatus::DecodeError);
    std::vector<std::uint8_t> wire =
        fleet::serialize(randomProfile(rng));
    wire.back() ^= 1;
    EXPECT_EQ(inbox.collector.ingest(wire), IngestStatus::DecodeError);
    wire.back() ^= 1;
    wire[0] ^= 1;
    EXPECT_EQ(inbox.collector.ingest(wire), IngestStatus::DecodeError);
    const StatGroup &stats = inbox.collector.stats();
    EXPECT_EQ(stats.value("received"), 3u);
    EXPECT_EQ(stats.value("decode_errors"), 3u);
    EXPECT_EQ(stats.value("decode_error.truncated"), 1u);
    EXPECT_EQ(stats.value("decode_error.bad-crc"), 1u);
    EXPECT_EQ(stats.value("decode_error.bad-magic"), 1u);
    EXPECT_EQ(stats.value("accepted"), 0u);
    // A refused frame never reaches the owner.
    EXPECT_TRUE(inbox.reports.empty());
    EXPECT_TRUE(inbox.seen.empty());
}

TEST(Collector, SubmitRefusesPayloadsOverTheWireCap)
{
    // The producer path enforces the cap ingest() does, so the owner
    // never folds a frame its recovery would refuse.
    Inbox inbox;
    RunProfile p;
    p.bugId.assign(fleet::kWireMaxPayload, 'x');
    EXPECT_EQ(inbox.collector.submit(p), IngestStatus::DecodeError);
    EXPECT_EQ(inbox.collector.stats().value("decode_error.malformed"),
              1u);
    EXPECT_EQ(inbox.collector.stats().value("received"), 1u);
    EXPECT_TRUE(inbox.reports.empty());
}

TEST(Collector, ConcurrentProducersAccountExactly)
{
    // The intake runs on its caller's thread and holds no per-thread
    // state: producers on several threads that serialize their calls
    // see every distinct report accepted exactly once.
    Inbox inbox;
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 200;
    // Pre-serialize: producer t sends its own 200 frames plus re-sends
    // of producer 0's frames (cross-thread duplicates).
    std::vector<std::vector<std::vector<std::uint8_t>>> frames(
        kProducers);
    for (int t = 0; t < kProducers; ++t) {
        Pcg32 rng(100 + t);
        for (int i = 0; i < kPerProducer; ++i)
            frames[t].push_back(
                fleet::serialize(randomProfile(rng)));
    }

    std::mutex intakeMu;
    auto send = [&](const std::vector<std::uint8_t> &frame) {
        std::lock_guard<std::mutex> lock(intakeMu);
        return inbox.collector.ingest(frame);
    };
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            for (const auto &frame : frames[t])
                EXPECT_NE(send(frame), IngestStatus::DecodeError);
            for (const auto &frame : frames[0])
                send(frame); // duplicates from every thread
        });
    }
    for (auto &p : producers)
        p.join();

    // 4x200 distinct + 4x200 re-sends of producer 0's frames: every
    // distinct frame accepted exactly once.
    EXPECT_EQ(inbox.collector.stats().value("accepted"),
              std::uint64_t{kProducers} * kPerProducer);
    EXPECT_EQ(inbox.collector.stats().value("duplicates"),
              std::uint64_t{kProducers} * kPerProducer);
    EXPECT_EQ(inbox.reports.size(),
              std::size_t{kProducers} * kPerProducer);
    EXPECT_EQ(inbox.seen.size(), inbox.reports.size());
}

// ---- ranker -------------------------------------------------------------

/** Compare two rankings for exact equality, scores included. */
void
expectSameRanking(const std::vector<RankedEvent> &a,
                  const std::vector<RankedEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].event, b[i].event) << "position " << i;
        EXPECT_EQ(a[i].absence, b[i].absence) << "position " << i;
        EXPECT_EQ(a[i].failureRuns, b[i].failureRuns)
            << "position " << i;
        EXPECT_EQ(a[i].successRuns, b[i].successRuns)
            << "position " << i;
        EXPECT_DOUBLE_EQ(a[i].precision, b[i].precision)
            << "position " << i;
        EXPECT_DOUBLE_EQ(a[i].recall, b[i].recall)
            << "position " << i;
        EXPECT_DOUBLE_EQ(a[i].score, b[i].score)
            << "position " << i;
    }
}

/**
 * Batch-rank the reports in order, from their materialized records
 * (no wire, no collector).
 */
std::vector<RankedEvent>
batchRank(const std::vector<RunProfile> &reports, bool absence)
{
    Ranker ranker;
    for (const RunProfile &p : reports) {
        std::set<EventKey> events = p.kind == ProfileKind::Lbr
                                        ? eventsOfLbr(p.lbr)
                                        : eventsOfLcr(p.lcr);
        ranker.addProfile(p.failure, events);
    }
    return ranker.rank(absence);
}

/**
 * Stream the reports through serialize -> collector -> ranker, in the
 * given order.
 */
std::vector<RankedEvent>
streamRank(const std::vector<RunProfile> &reports, bool absence)
{
    Ranker ranker;
    Collector collector(
        [&](const fleet::RunProfileView &v, std::uint64_t) {
            fleet::ingest(ranker, v);
            return true;
        });
    for (const RunProfile &p : reports)
        EXPECT_EQ(collector.ingest(fleet::serialize(p)),
                  IngestStatus::Accepted);
    return ranker.rank(absence);
}

TEST(Collector, SubmitSharesDedupWithTheWirePath)
{
    // submit() (the encoding door) and ingest() (the wire door) must
    // land in the same fingerprint space: the same report is a
    // duplicate no matter which door it arrives through.
    Inbox inbox;
    Pcg32 rng(51);
    RunProfile p = randomProfile(rng);
    EXPECT_EQ(inbox.collector.submit(p), IngestStatus::Accepted);
    EXPECT_EQ(inbox.collector.ingest(fleet::serialize(p)),
              IngestStatus::Duplicate);
    EXPECT_EQ(inbox.collector.submit(p), IngestStatus::Duplicate);
    ASSERT_EQ(inbox.reports.size(), 1u);
    EXPECT_EQ(inbox.reports[0], p);
    EXPECT_EQ(inbox.collector.stats().value("duplicates"), 2u);
}

TEST(Collector, DrainViewsDecodesEveryFrameInPlace)
{
    Pcg32 rng(52);
    std::vector<RunProfile> sent;
    std::vector<RunProfile> got;
    const std::uint8_t *ingested = nullptr;
    Collector collector(
        [&](const fleet::RunProfileView &v, std::uint64_t print) {
            got.push_back(v.materialize());
            // A wire frame is decoded where it lies, and the print
            // is the canonical fingerprint of its payload.
            if (ingested) {
                EXPECT_EQ(v.frame(), ingested);
            }
            EXPECT_EQ(print, fleet::fingerprint(got.back()));
            EXPECT_EQ(print, fleet::fingerprintPayload(
                                 v.payload(), v.payloadSize()));
            return true;
        });
    for (int i = 0; i < 64; ++i) {
        sent.push_back(randomProfile(rng));
        // Both producer doors: the encoding buffer and the wire.
        IngestStatus status;
        if (i % 2 == 0) {
            ingested = nullptr; // the collector's own buffer
            status = collector.submit(sent.back());
        } else {
            std::vector<std::uint8_t> wire =
                fleet::serialize(sent.back());
            ingested = wire.data();
            status = collector.ingest(wire);
        }
        ASSERT_EQ(status, IngestStatus::Accepted);
    }
    EXPECT_EQ(got, sent);
    EXPECT_EQ(collector.stats().value("accepted"), sent.size());
}

TEST(Collector, OversizeFramesTakeTheHeapDetour)
{
    // A frame bigger than a small report's grows submit()'s reused
    // encoding buffer on the heap: it is never refused, decodes equal,
    // and the smaller frames around it still encode correctly in the
    // grown (and then shrunk) buffer. The ASan lane watches the
    // reallocation.
    Inbox inbox;
    Pcg32 rng(53);
    RunProfile small = randomProfile(rng);
    RunProfile big = randomProfile(rng);
    big.kind = ProfileKind::Lbr;
    big.lcr.clear();
    BranchRecord proto;
    proto.fromIp = layout::codeAddr(1);
    proto.toIp = layout::codeAddr(2);
    proto.kind = static_cast<BranchKind>(1);
    proto.kernel = false;
    proto.srcBranch = kNoSourceBranch;
    proto.outcome = true;
    while (fleet::encodedFrameSize(big) <= 4096)
        big.lbr.push_back(proto);
    ASSERT_LT(fleet::encodedFrameSize(small), 4096u);
    RunProfile second = big;
    second.machineId ^= 0x5A5A;
    RunProfile after = small;
    after.machineId ^= 0x5A5A;

    for (const RunProfile *p : {&small, &big, &second, &after})
        ASSERT_EQ(inbox.collector.submit(*p), IngestStatus::Accepted);
    ASSERT_EQ(inbox.reports.size(), 4u);
    EXPECT_EQ(inbox.reports[0], small);
    EXPECT_EQ(inbox.reports[1], big);
    EXPECT_EQ(inbox.reports[2], second);
    EXPECT_EQ(inbox.reports[3], after);
    // The big frame is just as much a duplicate through the wire door.
    EXPECT_EQ(inbox.collector.ingest(fleet::serialize(big)),
              IngestStatus::Duplicate);
}

// Incremental ranking: one Ranker fed report by report, rescored
// between ingests.
TEST(IncrementalRanker, CacheInvalidatesOnIngest)
{
    Ranker ranker;
    ranker.addProfile(true, {EventKey::sourceBranch(1, true)});
    ranker.addProfile(false, {EventKey::sourceBranch(2, true)});
    const auto first = ranker.rank();
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].event, EventKey::sourceBranch(1, true));

    ranker.addProfile(true, {EventKey::sourceBranch(2, true)});
    const auto second = ranker.rank();
    // Branch 2 now appears in a failure too; recall of branch 1
    // halves and the ordering reflects the new denominators.
    EXPECT_DOUBLE_EQ(second[0].recall, 0.5);
}

TEST(Ranker, ViewAndProfileIngestExportEqualStats)
{
    // The collector's intake folds wire views; the durable
    // and test paths fold materialized RunProfiles. Both must tally
    // the same report identically.
    Pcg32 rng(test::testSeed(), 57);
    Ranker fromViews;
    Ranker fromProfiles;
    for (int i = 0; i < 64; ++i) {
        RunProfile p = randomProfile(rng);
        std::vector<std::uint8_t> frame = fleet::serialize(p);
        fleet::RunProfileView view;
        ASSERT_EQ(fleet::decodeFrameView(frame.data(), frame.size(),
                                         &view),
                  FrameStatus::Ok);
        fleet::ingest(fromViews, view);
        fleet::ingest(fromProfiles, p);
    }
    EXPECT_EQ(fromViews.exportStats(), fromProfiles.exportStats());
    EXPECT_EQ(fromViews.failureProfiles() + fromViews.successProfiles(),
              64u);
}

/**
 * The streaming equivalence guarantee, corpus-wide: for every corpus
 * bug, the streaming pipeline (wire -> collector -> view ingest)
 * produces exactly the ranking of the same reports folded in order
 * from their records, for shuffled ingest orders.
 *
 * Reports are captured from real fleet runs (captureFleetReports);
 * entries whose failures cannot be reproduced within the test budget
 * fall back to synthesized profiles so the algebraic property is
 * still exercised on all 31 entries.
 */
class FleetEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FleetEquivalence, IncrementalMatchesBatchForAnyOrderAndSharding)
{
    BugSpec bug = corpus::bugById(GetParam());

    fleet::FleetOptions opts;
    opts.machines = 5;
    opts.failureProfiles = 4;
    opts.successProfiles = 4;
    opts.maxAttempts = 3000;
    opts.jobs = 1;
    std::vector<RunProfile> reports =
        fleet::captureFleetReports(bug, opts).reports;

    if (reports.size() < 4) {
        // Synthesized fallback: seeded per-bug profiles over the
        // bug's own program addresses.
        Pcg32 rng(static_cast<std::uint64_t>(
            std::hash<std::string>{}(bug.id)));
        reports.clear();
        for (int i = 0; i < 12; ++i) {
            RunProfile p = randomProfile(rng);
            p.bugId = bug.id;
            p.failure = i % 2 == 0;
            reports.push_back(std::move(p));
        }
    }

    // Absence predicates on for concurrency entries, as LCRA uses.
    bool absence = bug.isConcurrent;
    std::vector<RankedEvent> expected = batchRank(reports, absence);
    EXPECT_FALSE(expected.empty());

    Pcg32 shuffleRng(0xF1EE7 + reports.size());
    std::vector<RunProfile> shuffled = reports;
    for (int round = 0; round < 4; ++round) {
        // Fisher-Yates with the deterministic PCG stream.
        for (std::size_t i = shuffled.size(); i > 1; --i) {
            std::size_t j = shuffleRng.nextBounded(
                static_cast<std::uint32_t>(i));
            std::swap(shuffled[i - 1], shuffled[j]);
        }
        expectSameRanking(streamRank(shuffled, absence), expected);
    }
}

std::vector<std::string>
allBugIds()
{
    std::vector<std::string> ids;
    for (const BugSpec &bug : corpus::allBugs())
        ids.push_back(bug.id);
    return ids;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FleetEquivalence, ::testing::ValuesIn(allBugIds()),
    [](const ::testing::TestParamInfo<std::string> &paramInfo) {
        std::string name = paramInfo.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/**
 * Randomized differential test: the streaming pipeline must equal the
 * in-order batch fold under *adversarial* transport — every report sent a
 * random number of times (duplicates), interleaved with corrupted
 * frames, the whole stream shuffled (out-of-order), and the ranker
 * rescored at random points mid-stream (so rescoring interleaves with
 * ingest). The batch reference sees each distinct report exactly
 * once: transport garbage must be invisible.
 */
TEST(IncrementalRanker, DifferentialUnderAdversarialTransport)
{
    Pcg32 rng(test::testSeed(), 53);
    for (int round = 0; round < 5; ++round) {
        // Distinct reports (machineId pins a unique fingerprint).
        std::vector<RunProfile> distinct;
        std::size_t count = 8 + rng.nextBounded(24);
        for (std::size_t i = 0; i < count; ++i) {
            RunProfile p = randomProfile(rng);
            p.machineId = i;
            p.bugId = "adversarial";
            distinct.push_back(std::move(p));
        }

        // The wire stream: 1-3 copies of each frame plus corrupted
        // interlopers, then a Fisher-Yates shuffle.
        std::vector<std::vector<std::uint8_t>> stream;
        std::size_t copies = 0, corrupt = 0;
        for (const RunProfile &p : distinct) {
            std::vector<std::uint8_t> frame = fleet::serialize(p);
            std::uint32_t sends = 1 + rng.nextBounded(3);
            copies += sends;
            for (std::uint32_t s = 0; s < sends; ++s)
                stream.push_back(frame);
            if (rng.nextBool(0.5)) {
                std::vector<std::uint8_t> bad = frame;
                bad[rng.nextBounded(
                    static_cast<std::uint32_t>(bad.size()))] ^= 0x20;
                stream.push_back(std::move(bad));
                ++corrupt;
            }
        }
        for (std::size_t i = stream.size(); i > 1; --i) {
            std::size_t j = rng.nextBounded(
                static_cast<std::uint32_t>(i));
            std::swap(stream[i - 1], stream[j]);
        }

        // Ingest with mid-stream rescores.
        Ranker ranker;
        std::unordered_set<std::uint64_t> seen;
        Collector collector(
            [&](const fleet::RunProfileView &v, std::uint64_t print) {
                if (!seen.insert(print).second)
                    return false;
                fleet::ingest(ranker, v);
                return true;
            });
        bool absence = round % 2 == 0;
        std::size_t accepted = 0, duplicates = 0, rejected = 0;
        for (const auto &frame : stream) {
            switch (collector.ingest(frame.data(), frame.size())) {
              case IngestStatus::Accepted:
                ++accepted;
                break;
              case IngestStatus::Duplicate:
                ++duplicates;
                break;
              case IngestStatus::DecodeError:
                ++rejected;
                break;
              default:
                FAIL() << "unexpected ingest status";
            }
            if (rng.nextBool(0.1))
                ranker.rank(absence); // interleaved rescore
        }

        EXPECT_EQ(accepted, distinct.size());
        EXPECT_EQ(duplicates, copies - distinct.size());
        // A corrupted frame may coincidentally still parse only if
        // the flipped byte were inside ignored padding — there is
        // none, so every corruption must be rejected.
        EXPECT_EQ(rejected, corrupt);

        expectSameRanking(ranker.rank(absence),
                          batchRank(distinct, absence));
    }
}

// ---- fleet sim ----------------------------------------------------------

/** One fleet-vs-in-process identity case. */
struct IdentityCase
{
    const char *name;
    const char *bugId;
    bool lbr;
    transform::SuccessSiteScheme scheme;
    bool diagnoses;
    std::uint64_t maxAttempts = 50000;
    unsigned jobs = 1;
};

void
PrintTo(const IdentityCase &c, std::ostream *os)
{
    *os << c.name << "/jobs" << c.jobs;
}

class FleetSim : public ::testing::TestWithParam<IdentityCase>
{
};

/**
 * The fleet and in-process LBRA/LCRA share one campaign engine: the
 * same runs, the same pinned site, the same attempt counts and the
 * same ranking, whatever the symptom, scheme, record kind or worker
 * count.
 */
TEST_P(FleetSim, MatchesInProcessAutoDiagRanking)
{
    const IdentityCase &c = GetParam();
    BugSpec bug = corpus::bugById(c.bugId);

    AutoDiagOptions autoOpts;
    autoOpts.scheme = c.scheme;
    autoOpts.absencePredicates = !c.lbr;
    autoOpts.maxAttempts = c.maxAttempts;
    autoOpts.jobs = c.jobs;
    AutoDiagResult inProcess =
        c.lbr ? runLbra(bug.program, bug.failing, bug.succeeding,
                        autoOpts)
              : runLcra(bug.program, bug.failing, bug.succeeding,
                        autoOpts);
    ASSERT_EQ(inProcess.diagnosed, c.diagnoses);
    ASSERT_GT(inProcess.failureRunsUsed, 0u);

    fleet::FleetOptions opts;
    opts.machines = 7;
    opts.scheme = c.scheme;
    opts.absencePredicates = !c.lbr;
    opts.maxAttempts = c.maxAttempts;
    opts.jobs = c.jobs;
    opts.kind = c.lbr ? ProfileKind::Lbr : ProfileKind::Lcr;
    fleet::FleetResult viaFleet = fleet::runFleetDiagnosis(bug, opts);
    EXPECT_EQ(viaFleet.diagnosed, c.diagnoses);

    expectSameRanking(viaFleet.ranking, inProcess.ranking);
    EXPECT_EQ(viaFleet.site, inProcess.site);
    EXPECT_EQ(viaFleet.failureAttempts, inProcess.failureAttempts);
    EXPECT_EQ(viaFleet.successAttempts, inProcess.successAttempts);
    EXPECT_EQ(viaFleet.failureReports, inProcess.failureRunsUsed);
    EXPECT_EQ(viaFleet.successReports, inProcess.successRunsUsed);
}

std::vector<IdentityCase>
identityCases()
{
    using transform::SuccessSiteScheme;
    const IdentityCase bugs[] = {
        {"cp_crash", "cp", true, SuccessSiteScheme::Reactive, true},
        {"rm_log_site", "rm", true, SuccessSiteScheme::Reactive, true},
        {"rm_proactive", "rm", true, SuccessSiteScheme::Proactive,
         true},
        // The proactive scheme cannot cover a crash (Section 5.2):
        // the failure pins and profiles, but no success run reaches
        // a success site, so both sides give up after the budget.
        {"sort_proactive", "sort", true, SuccessSiteScheme::Proactive,
         false, 300},
        {"mozilla_js3_lcra", "mozilla-js3", false,
         SuccessSiteScheme::Reactive, true},
    };
    std::vector<IdentityCase> cases;
    for (const IdentityCase &bug : bugs) {
        for (unsigned jobs : {1u, 4u}) {
            IdentityCase c = bug;
            c.jobs = jobs;
            cases.push_back(c);
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Identity, FleetSim, ::testing::ValuesIn(identityCases()),
    [](const ::testing::TestParamInfo<IdentityCase> &paramInfo) {
        return std::string(paramInfo.param.name) + "_jobs" +
               std::to_string(paramInfo.param.jobs);
    });

TEST(FleetSim, TransportFaultsDoNotChangeTheRanking)
{
    BugSpec bug = corpus::bugById("cp");

    fleet::FleetOptions clean;
    clean.jobs = 1;
    fleet::FleetResult baseline =
        fleet::runFleetDiagnosis(bug, clean);
    ASSERT_TRUE(baseline.diagnosed);

    fleet::FleetOptions lossy = clean;
    lossy.duplicateEvery = 2;
    lossy.corruptEvery = 3;
    fleet::FleetResult faulty = fleet::runFleetDiagnosis(bug, lossy);
    ASSERT_TRUE(faulty.diagnosed);
    EXPECT_GT(faulty.duplicates, 0u);
    EXPECT_GT(faulty.decodeErrors, 0u);
    expectSameRanking(faulty.ranking, baseline.ranking);
}

} // namespace
} // namespace stm
