/**
 * @file
 * Tests for the durable fleet subsystem (src/fleet/durable): snapshot
 * round-trip, golden bytes and canonical-bytes determinism; the merge
 * algebra (associative, commutative, idempotent) across shuffled
 * partitions for 1/2/4/8 collectors; WAL append/replay, golden bytes,
 * rotation, pruning and the wire-cap bound (the every-byte sweeps of
 * both formats live in test_frame_codec.cc); durable collector epoch
 * rolls, crash recovery, dedup on the recovered store, and ranking
 * reconvergence; frame restamping; and the reactive campaign's
 * sharding-independence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "codec_cases.hh"
#include "corpus/registry.hh"
#include "diag/ranker.hh"
#include "fleet/collector.hh"
#include "fleet/durable/campaign.hh"
#include "fleet/durable/durable_collector.hh"
#include "fleet/durable/snapshot.hh"
#include "fleet/durable/wal.hh"
#include "fleet/fleet_sim.hh"
#include "support/file_io.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "test_util.hh"

namespace stm
{
namespace
{

using fleet::DurableCollector;
using fleet::DurableOptions;
using fleet::IngestStatus;
using fleet::RankerSnapshot;
using fleet::ReportDigest;
using fleet::RunProfile;
using fleet::WalRecord;
using fleet::WalReplayResult;
using fleet::WalWriter;

// ---- helpers ------------------------------------------------------------

using test::distinctProfiles;
using test::mapOf;
using test::randomProfile;

void
expectSameRanking(const std::vector<RankedEvent> &a,
                  const std::vector<RankedEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].event, b[i].event) << "rank " << i;
        EXPECT_EQ(a[i].absence, b[i].absence) << "rank " << i;
        EXPECT_EQ(a[i].failureRuns, b[i].failureRuns) << "rank " << i;
        EXPECT_EQ(a[i].successRuns, b[i].successRuns) << "rank " << i;
        EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << "rank " << i;
        EXPECT_DOUBLE_EQ(a[i].precision, b[i].precision)
            << "rank " << i;
        EXPECT_DOUBLE_EQ(a[i].recall, b[i].recall) << "rank " << i;
    }
}

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "stm_durable_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(readWholeFile(path, &bytes)) << path;
    return bytes;
}

void
writeFileBytes(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// ---- snapshot round trip and canonical bytes ----------------------------

TEST(RankerSnapshot, RoundTripsRandomStores)
{
    Pcg32 rng(11);
    for (int iter = 0; iter < 20; ++iter) {
        RankerSnapshot snap(1 + rng.nextBounded(5), rng.next(),
                            mapOf(distinctProfiles(rng, 8)));
        std::vector<std::uint8_t> bytes = snap.serialize();
        EXPECT_EQ(bytes.size(), snap.encodedSize())
            << "iteration " << iter;
        RankerSnapshot decoded;
        ASSERT_EQ(RankerSnapshot::deserialize(bytes, &decoded),
                  FrameStatus::Ok)
            << "iteration " << iter;
        EXPECT_EQ(snap, decoded);
    }
}

TEST(RankerSnapshot, SerializePinsGoldenBytes)
{
    // A fixed three-report store, encoded once and pinned byte for
    // byte: any encoder change must reproduce this file exactly.
    RankerSnapshot::ReportMap store;
    store[0x10] = ReportDigest{true, {}};
    store[0x0123456789ABCDEFull] = ReportDigest{
        true,
        {EventKey::sourceBranch(5, true),
         EventKey::rawBranch(0x401000),
         EventKey{EventKey::Type::Coherence, 0x402000, 3}}};
    store[0xFEDCBA9876543210ull] =
        ReportDigest{false, {EventKey::sourceBranch(5, false)}};
    RankerSnapshot snap(3, 9, store);

    const std::vector<std::uint8_t> golden = {
        // header: magic "STMS", version 1, flags 0, payloadLen, crc
        0x53, 0x54, 0x4D, 0x53, 0x01, 0x00, 0x00, 0x00,
        0x83, 0x00, 0x00, 0x00, 0x83, 0x81, 0x7A, 0x96,
        // collectorId 3, epoch 9, reportCount 3
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // report 0x10: failure, no events
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x00,
        // report 0x0123456789ABCDEF: failure, three events
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
        0x01, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x10, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x20, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // report 0xFEDCBA9876543210: success, one event
        0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE,
        0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    };
    std::vector<std::uint8_t> bytes = snap.serialize();
    EXPECT_EQ(bytes, golden);
    EXPECT_EQ(bytes.size(), snap.encodedSize());
    RankerSnapshot decoded;
    ASSERT_EQ(RankerSnapshot::deserialize(golden, &decoded),
              FrameStatus::Ok);
    EXPECT_EQ(decoded, snap);
    // Reserved flags must be 0, even under a valid CRC.
    RankerSnapshot untouched;
    EXPECT_EQ(RankerSnapshot::deserialize(test::withFlags(golden, 1),
                                          &untouched),
              FrameStatus::Malformed);
    EXPECT_EQ(untouched, RankerSnapshot{});
}

TEST(RankerSnapshot, RoundTripsEmptyStore)
{
    RankerSnapshot snap(1, 0, {});
    std::vector<std::uint8_t> bytes = snap.serialize();
    RankerSnapshot decoded;
    ASSERT_EQ(RankerSnapshot::deserialize(bytes, &decoded),
              FrameStatus::Ok);
    EXPECT_EQ(snap, decoded);
    EXPECT_EQ(decoded.reportCount(), 0u);
}

TEST(RankerSnapshot, EqualStoresSerializeToEqualBytes)
{
    // The canonical-bytes guarantee: two stores with the same content
    // — built in different insertion orders — produce identical
    // files. This is what makes "bit-identical merged snapshot" a
    // meaningful claim.
    Pcg32 rng(12);
    std::vector<RunProfile> profiles = distinctProfiles(rng, 12);
    RankerSnapshot::ReportMap forward = mapOf(profiles);
    std::reverse(profiles.begin(), profiles.end());
    RankerSnapshot::ReportMap backward = mapOf(profiles);
    EXPECT_EQ(RankerSnapshot(3, 7, forward).serialize(),
              RankerSnapshot(3, 7, backward).serialize());
}

TEST(RankerSnapshot, FileRoundTripIsAtomic)
{
    Pcg32 rng(13);
    std::string dir = scratchDir("snapfile");
    RankerSnapshot snap(2, 5, mapOf(distinctProfiles(rng, 6)));
    std::string path = dir + "/s.stms";
    std::size_t bytes = 0;
    ASSERT_TRUE(snap.writeFile(path, &bytes));
    EXPECT_EQ(bytes, snap.serialize().size());
    // No temp file left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    RankerSnapshot decoded;
    ASSERT_EQ(RankerSnapshot::readFile(path, &decoded),
              FrameStatus::Ok);
    EXPECT_EQ(snap, decoded);
    // Missing file is IoError, not a crash.
    EXPECT_EQ(RankerSnapshot::readFile(dir + "/absent.stms",
                                       &decoded),
              FrameStatus::IoError);
}

// ---- snapshot hostile-byte discipline -----------------------------------

TEST(RankerSnapshot, RejectsNonCanonicalOrder)
{
    // Hand-build a payload with descending fingerprints: structurally
    // plausible, CRC-correct, but non-canonical — must be Malformed,
    // or two "equal" snapshots could serialize to different bytes.
    Pcg32 rng(16);
    std::vector<RunProfile> profiles = distinctProfiles(rng, 2);
    RankerSnapshot snap(1, 1, mapOf(profiles));
    std::vector<std::uint8_t> bytes = snap.serialize();
    RankerSnapshot decoded;
    ASSERT_EQ(RankerSnapshot::deserialize(bytes, &decoded),
              FrameStatus::Ok);

    // Overwrite the second report's fingerprint with the first's
    // (a duplicate key), then with one below it (descending order).
    // Each is re-sealed so only the order check can reject it.
    auto first = snap.reports().begin();
    std::size_t secondAt = kFrameHeaderSize + 24 + 13 +
                           17 * first->second.events.size();
    for (std::uint64_t fp : {first->first, first->first - 1}) {
        std::vector<std::uint8_t> bad = bytes;
        le::put(bad.data() + secondAt, fp);
        sealFrame(fleet::kSnapFrame, bad.data(),
                  bad.size() - kFrameHeaderSize);
        EXPECT_EQ(RankerSnapshot::deserialize(bad, &decoded),
                  FrameStatus::Malformed)
            << "fingerprint " << fp;
    }

    // Count coherence: claim one more report than present.
    std::vector<std::uint8_t> overcount = bytes;
    // reportCount lives at payload offset 16 (LE u64).
    overcount[kFrameHeaderSize + 16] =
        static_cast<std::uint8_t>(snap.reportCount() + 1);
    // Re-seal so only the structural check can reject.
    sealFrame(fleet::kSnapFrame, overcount.data(),
              overcount.size() - kFrameHeaderSize);
    EXPECT_EQ(RankerSnapshot::deserialize(overcount, &decoded),
              FrameStatus::Malformed);
}

// ---- merge algebra ------------------------------------------------------

TEST(SnapshotMerge, IsIdempotent)
{
    Pcg32 rng(21);
    RankerSnapshot snap(2, 4, mapOf(distinctProfiles(rng, 10)));
    RankerSnapshot doubled = snap;
    doubled.merge(snap);
    EXPECT_EQ(doubled, snap);
    EXPECT_EQ(doubled.serialize(), snap.serialize());
}

TEST(SnapshotMerge, IdentityElementIsNeutralOnBothSides)
{
    Pcg32 rng(22);
    RankerSnapshot snap(3, 6, mapOf(distinctProfiles(rng, 6)));
    RankerSnapshot leftId;
    leftId.merge(snap);
    EXPECT_EQ(leftId, snap);
    RankerSnapshot rightId = snap;
    rightId.merge(RankerSnapshot());
    EXPECT_EQ(rightId, snap);
}

TEST(SnapshotMerge, IsCommutativeAndAssociative)
{
    Pcg32 rng(23);
    for (int iter = 0; iter < 10; ++iter) {
        std::vector<RunProfile> pool = distinctProfiles(rng, 15);
        // Three overlapping slices (overlap exercises idempotence
        // inside the algebra, not just at the whole-snapshot level).
        auto slice = [&](std::size_t lo, std::size_t hi) {
            return std::vector<RunProfile>(pool.begin() + lo,
                                           pool.begin() + hi);
        };
        RankerSnapshot a(1, 2, mapOf(slice(0, 8)));
        RankerSnapshot b(2, 5, mapOf(slice(4, 12)));
        RankerSnapshot c(3, 1, mapOf(slice(9, 15)));

        RankerSnapshot ab = a;
        ab.merge(b);
        RankerSnapshot ba = b;
        ba.merge(a);
        EXPECT_EQ(ab, ba);
        EXPECT_EQ(ab.serialize(), ba.serialize());

        RankerSnapshot ab_c = ab;
        ab_c.merge(c);
        RankerSnapshot bc = b;
        bc.merge(c);
        RankerSnapshot a_bc = a;
        a_bc.merge(bc);
        EXPECT_EQ(ab_c, a_bc);
        EXPECT_EQ(ab_c.serialize(), a_bc.serialize());
        EXPECT_EQ(ab_c.collectorId(), 1u);
        EXPECT_EQ(ab_c.epoch(), 5u);
    }
}

TEST(SnapshotMerge, CollidingKeyKeepsTheAccumulatorsDigest)
{
    // Digests move across by node splice; on a fingerprint both sides
    // hold, the accumulator's digest must win, whether the other side
    // is copied in or moved in.
    Pcg32 rng(26);
    std::vector<RunProfile> pool = distinctProfiles(rng, 24);
    RankerSnapshot a(2, 4, mapOf({pool.begin(), pool.begin() + 16}));
    // pool[8] is in both halves; give b a different digest for it.
    std::uint64_t shared = fleet::fingerprint(pool[8]);
    RankerSnapshot::ReportMap clash =
        mapOf({pool.begin() + 8, pool.end()});
    clash.at(shared).failure = !clash.at(shared).failure;
    RankerSnapshot b(1, 6, clash);

    RankerSnapshot copied = a;
    copied.merge(b);
    RankerSnapshot moved = a;
    moved.merge(RankerSnapshot(b));
    EXPECT_EQ(moved, copied);
    EXPECT_EQ(copied.reportCount(), pool.size());
    EXPECT_EQ(copied.reports().at(shared), a.reports().at(shared));
    EXPECT_EQ(copied.collectorId(), 1u);
    EXPECT_EQ(copied.epoch(), 6u);
}

TEST(SnapshotMerge, ShuffledPartitionsMergeBitIdentically)
{
    // The multi-collector contract: split one report stream across C
    // collectors (any assignment), merge the C snapshots in any
    // order — the merged *bytes* equal the single-collector
    // snapshot's, for C in {1, 2, 4, 8}.
    Pcg32 rng(24);
    std::vector<RunProfile> pool = distinctProfiles(rng, 40);
    RankerSnapshot whole(1, 3, mapOf(pool));
    std::vector<std::uint8_t> wholeBytes = whole.serialize();

    for (unsigned collectors : {1u, 2u, 4u, 8u}) {
        for (int shuffle = 0; shuffle < 4; ++shuffle) {
            // Random assignment of report -> collector.
            std::vector<std::vector<RunProfile>> parts(collectors);
            for (const RunProfile &p : pool)
                parts[rng.nextBounded(collectors)].push_back(p);
            std::vector<RankerSnapshot> snaps;
            for (unsigned c = 0; c < collectors; ++c)
                snaps.emplace_back(c + 1, 3, mapOf(parts[c]));
            // Merge in a shuffled order.
            for (std::size_t i = snaps.size(); i > 1; --i)
                std::swap(snaps[i - 1],
                          snaps[rng.nextBounded(
                              static_cast<std::uint32_t>(i))]);
            RankerSnapshot merged;
            for (const RankerSnapshot &s : snaps)
                merged.merge(s);
            EXPECT_EQ(merged.serialize(), wholeBytes)
                << collectors << " collectors, shuffle " << shuffle;
            expectSameRanking(merged.rank(true), whole.rank(true));
        }
    }
}

TEST(SnapshotMerge, MergedRankingEqualsUnionRanker)
{
    // Ranking a merged snapshot == a Ranker fed the union
    // exactly once (the ranking is a pure function of the
    // deduplicated report set).
    Pcg32 rng(25);
    std::vector<RunProfile> pool = distinctProfiles(rng, 30);
    RankerSnapshot left(1, 1,
                        mapOf({pool.begin(), pool.begin() + 20}));
    RankerSnapshot right(2, 1,
                         mapOf({pool.begin() + 10, pool.end()}));
    left.merge(right);

    Ranker reference;
    for (const RunProfile &p : pool)
        fleet::ingest(reference, p);
    expectSameRanking(left.rank(false), reference.rank(false));
    expectSameRanking(left.rank(true), reference.rank(true));
}

// ---- WAL ---------------------------------------------------------------

TEST(Wal, AppendReplayRoundTrips)
{
    Pcg32 rng(31);
    std::string dir = scratchDir("walrt");
    std::vector<WalRecord> expected;
    {
        WalWriter writer(dir, 1);
        for (int i = 0; i < 50; ++i) {
            RunProfile p = randomProfile(rng);
            std::vector<std::uint8_t> frame = fleet::serialize(p);
            std::uint64_t epoch = static_cast<std::uint64_t>(i / 10);
            writer.append(epoch, frame.data(), frame.size());
            expected.push_back({epoch, frame});
        }
        EXPECT_EQ(writer.recordsAppended(), 50u);
    }
    std::vector<WalRecord> replayed;
    WalReplayResult result = fleet::replayWalDir(
        dir, 1, [&](const WalRecord &r) { replayed.push_back(r); });
    EXPECT_EQ(result.status, FrameStatus::Ok);
    EXPECT_EQ(replayed, expected);
}

TEST(Wal, SegmentPinsGoldenBytes)
{
    // A fixed segment (header plus two records), written once and
    // pinned byte for byte: any writer change must reproduce it.
    std::string dir = scratchDir("walgolden");
    std::vector<WalRecord> expected{{2, {0xDE, 0xAD, 0xBE}},
                                    {3, {0x01, 0x02, 0x03, 0x04, 0x05}}};
    {
        WalWriter writer(dir, 5);
        for (const WalRecord &r : expected)
            writer.append(r.epoch, r.frame.data(), r.frame.size());
    }
    const std::vector<std::uint8_t> golden = {
        // segment header: magic "STMW", version 1, flags 0,
        // collectorId 5
        0x53, 0x54, 0x4D, 0x57, 0x01, 0x00, 0x00, 0x00,
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // record: magic "WREC", epoch 2, frameLen 3, crc, frame
        0x57, 0x52, 0x45, 0x43, 0x02, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
        0xFE, 0xEC, 0xDA, 0xFE, 0xDE, 0xAD, 0xBE,
        // record: magic "WREC", epoch 3, frameLen 5, crc, frame
        0x57, 0x52, 0x45, 0x43, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
        0x9F, 0x81, 0xCB, 0x51, 0x01, 0x02, 0x03, 0x04, 0x05,
    };
    std::string path = fleet::walSegmentPath(dir, 5, 0);
    EXPECT_EQ(readFileBytes(path), golden);
    std::vector<WalRecord> replayed;
    WalReplayResult result = fleet::replayWalSegment(
        path, [&](const WalRecord &r) { replayed.push_back(r); });
    EXPECT_EQ(result.status, decltype(result.status)::Ok);
    EXPECT_EQ(replayed, expected);
}

TEST(Wal, RotatesSegmentsAndPrunesCoveredOnes)
{
    Pcg32 rng(32);
    std::string dir = scratchDir("walrot");
    WalWriter writer(dir, 7, /*rotate_bytes=*/256);
    std::vector<WalRecord> expected;
    for (int i = 0; i < 40; ++i) {
        RunProfile p = randomProfile(rng);
        std::vector<std::uint8_t> frame = fleet::serialize(p);
        std::uint64_t epoch = static_cast<std::uint64_t>(i / 8);
        writer.append(epoch, frame.data(), frame.size());
        expected.push_back({epoch, frame});
    }
    writer.flush();
    EXPECT_GT(writer.segmentsOpened(), 3u);
    EXPECT_EQ(fleet::walSegments(dir, 7).size(),
              writer.segmentsOpened());

    // Everything replays across segment boundaries.
    std::vector<WalRecord> replayed;
    EXPECT_EQ(fleet::replayWalDir(dir, 7,
                                  [&](const WalRecord &r) {
                                      replayed.push_back(r);
                                  })
                  .status,
              FrameStatus::Ok);
    EXPECT_EQ(replayed, expected);

    // Pruning at epoch 2 deletes only segments entirely <= epoch 2;
    // replay afterwards yields a suffix (plus everything >= the cut).
    writer.prune(2);
    std::vector<WalRecord> after;
    EXPECT_EQ(fleet::replayWalDir(dir, 7,
                                  [&](const WalRecord &r) {
                                      after.push_back(r);
                                  })
                  .status,
              FrameStatus::Ok);
    EXPECT_LT(after.size(), expected.size());
    for (const WalRecord &r : after) {
        EXPECT_TRUE(std::find(expected.begin(), expected.end(), r) !=
                    expected.end());
    }
    // Every record from epochs > 2 survived.
    std::size_t younger = 0;
    for (const WalRecord &r : expected)
        if (r.epoch > 2)
            ++younger;
    std::size_t youngerAfter = 0;
    for (const WalRecord &r : after)
        if (r.epoch > 2)
            ++youngerAfter;
    EXPECT_EQ(younger, youngerAfter);

    // Pruning at the max epoch leaves just the active segment.
    writer.prune(~std::uint64_t{0});
    EXPECT_EQ(fleet::walSegments(dir, 7).size(), 1u);
    // Every segment was the writer's own: none was read back.
    EXPECT_EQ(writer.segmentsScanned(), 0u);
}

/** Last valid epoch of segment @p seq, by replaying it. */
std::uint64_t
scannedLastEpoch(const std::string &dir, std::uint64_t id,
                 std::uint64_t seq)
{
    std::uint64_t last = 0;
    fleet::replayWalSegment(
        fleet::walSegmentPath(dir, id, seq),
        [&](const WalRecord &r) { last = r.epoch; });
    return last;
}

TEST(Wal, PrunesSegmentsLeftByAnEarlierWriter)
{
    // A first writer fills rotated segments over epochs 0..4 and is
    // dropped without pruning (the crashed process). A second writer
    // on the same directory must judge those segments from disk,
    // reading each at most once, and its own rotated segments from
    // the epochs it recorded, reaching the scan rule's decision.
    Pcg32 rng(34);
    std::string dir = scratchDir("walprior");
    {
        WalWriter first(dir, 5, /*rotate_bytes=*/256);
        for (int i = 0; i < 40; ++i) {
            std::vector<std::uint8_t> frame =
                fleet::serialize(randomProfile(rng));
            first.append(static_cast<std::uint64_t>(i / 8),
                         frame.data(), frame.size());
        }
        ASSERT_GT(first.segmentsOpened(), 3u);
    }
    std::vector<std::uint64_t> prior = fleet::walSegments(dir, 5);

    WalWriter second(dir, 5, /*rotate_bytes=*/256);
    std::uint64_t active = fleet::walSegments(dir, 5).back();
    EXPECT_EQ(active, prior.back() + 1);
    for (int i = 0; i < 40; ++i) {
        std::vector<std::uint8_t> frame =
            fleet::serialize(randomProfile(rng));
        second.append(static_cast<std::uint64_t>(5 + i / 8),
                      frame.data(), frame.size());
    }
    second.flush();

    // What the scan rule keeps at each cut, computed from disk.
    auto survivorsAt = [&](std::uint64_t cut) {
        std::vector<std::uint64_t> segs = fleet::walSegments(dir, 5);
        std::vector<std::uint64_t> keep;
        for (std::uint64_t seq : segs) {
            // The highest segment is the active one: never pruned.
            if (seq == segs.back() || scannedLastEpoch(dir, 5, seq) > cut)
                keep.push_back(seq);
        }
        return keep;
    };

    // Cut inside the prior generation: epochs <= 2 go, the segment
    // that straddles into epoch 3 stays.
    std::vector<std::uint64_t> expected = survivorsAt(2);
    std::size_t removed = second.prune(2);
    EXPECT_EQ(fleet::walSegments(dir, 5), expected);
    EXPECT_GT(removed, 0u);
    EXPECT_LE(second.segmentsScanned(), prior.size());
    bool straddler = false;
    for (std::uint64_t seq : expected) {
        if (seq < active) {
            EXPECT_GT(scannedLastEpoch(dir, 5, seq), 2u);
            straddler = true;
        }
    }
    EXPECT_TRUE(straddler);

    // A second cut re-reads nothing: the survivors' answers are
    // cached, and the writer's own segments are never read.
    std::uint64_t scanned = second.segmentsScanned();
    expected = survivorsAt(6);
    second.prune(6);
    EXPECT_EQ(fleet::walSegments(dir, 5), expected);
    EXPECT_EQ(second.segmentsScanned(), scanned);
    for (std::uint64_t seq : expected)
        EXPECT_GE(seq, active) << "prior segment " << seq << " kept";

    // Cutting at the last epoch leaves only the active segment.
    second.prune(~std::uint64_t{0});
    EXPECT_EQ(fleet::walSegments(dir, 5).size(), 1u);
    EXPECT_EQ(second.segmentsScanned(), scanned);
}

TEST(Wal, ReplayRefusesRecordsOverTheWireCap)
{
    // The WAL holds wire frames, so its length bound is the wire's:
    // one byte over the largest frame is Malformed at once, while a
    // record at the bound is only short of bytes.
    std::vector<std::uint8_t> frame = fleet::serialize(RunProfile{});
    std::vector<std::uint8_t> seg = test::walSegmentHeader(1);
    std::vector<std::uint8_t> rec = test::walRecordBytes(4, frame);
    seg.insert(seg.end(), rec.begin(), rec.end());
    std::size_t lenAt = seg.size() + 12;
    seg.insert(seg.end(), rec.begin(), rec.end());

    std::size_t records = 0;
    auto count = [&](const WalRecord &) { ++records; };
    le::put(seg.data() + lenAt, static_cast<std::uint32_t>(
                                    kFrameHeaderSize +
                                    fleet::kWireMaxPayload + 1));
    WalReplayResult over =
        fleet::replayWalBytes(seg.data(), seg.size(), count);
    EXPECT_EQ(over.status, FrameStatus::Malformed);
    EXPECT_EQ(over.records, 1u);
    EXPECT_EQ(over.stopOffset, fleet::kWalSegmentHeaderSize + rec.size());

    le::put(seg.data() + lenAt, static_cast<std::uint32_t>(
                                    kFrameHeaderSize +
                                    fleet::kWireMaxPayload));
    EXPECT_EQ(fleet::replayWalBytes(seg.data(), seg.size(), count)
                  .status,
              FrameStatus::Truncated);
}

TEST(Wal, MissingSegmentIsIoError)
{
    std::string dir = scratchDir("walmissing");
    WalReplayResult result = fleet::replayWalSegment(
        dir + "/absent.stmw", [](const WalRecord &) {});
    EXPECT_EQ(result.status, FrameStatus::IoError);
    EXPECT_EQ(result.records, 0u);
}

// ---- owner-held dedup ---------------------------------------------------

TEST(CollectorPreseed, PreseededFingerprintsAreDuplicates)
{
    // Dedup is the owner's: prints its state already holds before the
    // first ingest (as a recovered store does) are duplicates, and
    // seeding them leaves no accounting trace.
    Pcg32 rng(42);
    RunProfile p = randomProfile(rng);
    std::unordered_set<std::uint64_t> seen;
    EXPECT_TRUE(seen.insert(fleet::fingerprint(p)).second);
    EXPECT_FALSE(seen.insert(fleet::fingerprint(p)).second);
    std::size_t folded = 0;
    fleet::Collector collector(
        [&](const fleet::RunProfileView &, std::uint64_t print) {
            if (!seen.insert(print).second)
                return false;
            ++folded;
            return true;
        });
    EXPECT_EQ(collector.submit(p), IngestStatus::Duplicate);
    EXPECT_EQ(collector.ingest(fleet::serialize(p)),
              IngestStatus::Duplicate);
    EXPECT_EQ(folded, 0u);
    // The duplicates above are the first counted interactions.
    EXPECT_EQ(collector.stats().value("received"), 2u);
    EXPECT_EQ(collector.stats().value("accepted"), 0u);
    EXPECT_EQ(collector.stats().value("duplicates"), 2u);
}

// ---- durable collector --------------------------------------------------

TEST(DurableCollector, RejectsTheReservedIdentityId)
{
    DurableOptions opts;
    opts.dir = scratchDir("durbadid");
    opts.collectorId = 0;
    EXPECT_THROW(DurableCollector{opts}, FatalError);
}

TEST(DurableCollector, EpochRollWritesAMergeableSnapshot)
{
    Pcg32 rng(51);
    std::string dir = scratchDir("durroll");
    DurableOptions opts;
    opts.dir = dir;
    opts.collectorId = 1;
    DurableCollector collector(opts);
    EXPECT_FALSE(collector.recovery().recovered);

    std::vector<RunProfile> pool = distinctProfiles(rng, 20);
    for (const RunProfile &p : pool)
        ASSERT_EQ(collector.submit(p), IngestStatus::Accepted);
    EXPECT_EQ(collector.epoch(), 0u);
    fleet::RankerSnapshot snap = collector.rollEpoch();
    EXPECT_EQ(snap.epoch(), 0u);
    EXPECT_EQ(collector.epoch(), 1u);
    EXPECT_EQ(snap.reportCount(), pool.size());

    // The on-disk snapshot decodes to exactly the returned one.
    RankerSnapshot fromDisk;
    ASSERT_EQ(RankerSnapshot::readFile(collector.snapshotPath(0),
                                       &fromDisk),
              FrameStatus::Ok);
    EXPECT_EQ(fromDisk, snap);

    // And its ranking equals the collector's.
    expectSameRanking(snap.rank(false), collector.rank(false));

    const StatGroup &stats = collector.stats();
    EXPECT_EQ(stats.value("epochs_rolled"), 1u);
    EXPECT_EQ(stats.value("snapshots_written"), 1u);
    EXPECT_EQ(stats.value("frames_spilled"), pool.size());
    EXPECT_EQ(static_cast<std::uint64_t>(
                  stats.gaugeValue("stored_reports")),
              pool.size());
}

TEST(DurableCollector, RollEpochReturnsWhatItWrote)
{
    // rollEpoch() returns the live store by reference, encoded in
    // place: it must equal the file just written, and a copy taken
    // from it must not follow the store as later reports fold in.
    Pcg32 rng(57);
    DurableOptions opts;
    opts.dir = scratchDir("durrollref");
    opts.collectorId = 3;
    DurableCollector collector(opts);
    std::vector<RunProfile> pool = distinctProfiles(rng, 36);
    for (std::size_t i = 0; i < 12; ++i)
        ASSERT_EQ(collector.submit(pool[i]), IngestStatus::Accepted);

    for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
        const RankerSnapshot &live = collector.rollEpoch();
        EXPECT_EQ(live.collectorId(), 3u);
        EXPECT_EQ(live.epoch(), epoch);
        RankerSnapshot fromDisk;
        ASSERT_EQ(RankerSnapshot::readFile(
                      collector.snapshotPath(epoch), &fromDisk),
                  FrameStatus::Ok);
        EXPECT_EQ(fromDisk, live);

        RankerSnapshot kept = live;
        for (std::size_t i = 12 * (epoch + 1); i < 12 * (epoch + 2);
             ++i) {
            ASSERT_EQ(collector.submit(pool[i]),
                      IngestStatus::Accepted);
        }
        EXPECT_EQ(kept, fromDisk);
        EXPECT_EQ(kept.reportCount(), 12 * (epoch + 1));
    }
    EXPECT_EQ(collector.storedReports(), pool.size());
}

TEST(DurableCollector, ConcurrentIngestFoldsEveryReportOnce)
{
    // Four producer threads each send the whole pool in their own
    // order, serializing their ingest() calls (the intake runs on its
    // caller's thread). The first copy of each report is accepted,
    // every other copy is a duplicate, each report folds and is
    // logged exactly once, and the WAL recovers the same store.
    Pcg32 rng(55);
    std::vector<RunProfile> pool = distinctProfiles(rng, 200);
    std::vector<std::vector<std::uint8_t>> frames;
    for (const RunProfile &p : pool)
        frames.push_back(fleet::serialize(p));

    DurableOptions opts;
    opts.dir = scratchDir("durconcurrent");
    opts.collectorId = 1;
    opts.walRotateBytes = 4096;
    constexpr unsigned kProducers = 4;
    RankerSnapshot::ReportMap stored;
    {
        DurableCollector collector(opts);
        std::mutex intakeMu;
        std::size_t accepted = 0;
        std::vector<std::thread> producers;
        for (unsigned t = 0; t < kProducers; ++t) {
            producers.emplace_back([&, t] {
                for (std::size_t i = 0; i < frames.size(); ++i) {
                    const auto &f =
                        frames[(i * 7 + t * 50) % frames.size()];
                    std::lock_guard<std::mutex> lock(intakeMu);
                    IngestStatus status = collector.ingest(f);
                    EXPECT_TRUE(status == IngestStatus::Accepted ||
                                status == IngestStatus::Duplicate);
                    accepted += status == IngestStatus::Accepted;
                }
            });
        }
        for (std::thread &t : producers)
            t.join();
        EXPECT_EQ(accepted, pool.size());
        const StatGroup &intake = collector.inner().stats();
        EXPECT_EQ(intake.value("accepted"), pool.size());
        EXPECT_EQ(intake.value("duplicates"),
                  (kProducers - 1) * pool.size());
        EXPECT_EQ(collector.stats().value("frames_spilled"),
                  pool.size());
        EXPECT_EQ(collector.store(), mapOf(pool));
        stored = collector.store();
    }
    // No epoch rolled, so recovery reads the (rotated) WAL alone.
    DurableCollector recovered(opts);
    EXPECT_FALSE(recovered.recovery().snapshotLoaded);
    EXPECT_EQ(recovered.recovery().walRecordsReplayed, pool.size());
    EXPECT_EQ(recovered.store(), stored);
}

TEST(DurableCollector, RecoveredFramesAreDuplicatesWithoutPreseed)
{
    // The recovered store is the dedup set: every report recovered
    // from the snapshot or the WAL tail is a Duplicate when its
    // producer retransmits it, through either door, and leaves no
    // trace in the WAL or the accounting beyond the duplicate count.
    Pcg32 rng(42);
    std::vector<RunProfile> pool = distinctProfiles(rng, 12);
    DurableOptions opts;
    opts.dir = scratchDir("durnopreseed");
    opts.collectorId = 1;
    {
        DurableCollector first(opts);
        for (std::size_t i = 0; i < 6; ++i)
            ASSERT_EQ(first.submit(pool[i]), IngestStatus::Accepted);
        first.rollEpoch(); // 0..5 in the snapshot
        for (std::size_t i = 6; i < 9; ++i)
            ASSERT_EQ(first.submit(pool[i]), IngestStatus::Accepted);
        // 6..8 only in the WAL tail.
    }
    DurableCollector second(opts);
    ASSERT_EQ(second.storedReports(), 9u);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(i % 2 == 0 ? second.submit(pool[i])
                             : second.ingest(fleet::serialize(pool[i])),
                  IngestStatus::Duplicate)
            << "report " << i;
    }
    for (std::size_t i = 9; i < pool.size(); ++i)
        EXPECT_EQ(second.submit(pool[i]), IngestStatus::Accepted);
    const StatGroup &intake = second.inner().stats();
    EXPECT_EQ(intake.value("duplicates"), 9u);
    EXPECT_EQ(intake.value("accepted"), pool.size() - 9);
    EXPECT_EQ(second.stats().value("frames_spilled"), pool.size() - 9);
    EXPECT_EQ(second.store(), mapOf(pool));
}

TEST(DurableCollector, RankMatchesItsStore)
{
    // rank() is derived from the report store, whatever mix of
    // recovery, ingest and epoch rolls built it, and equals a ranker
    // fed each distinct report once.
    Pcg32 rng(58);
    std::vector<RunProfile> pool = distinctProfiles(rng, 24);
    DurableOptions opts;
    opts.dir = scratchDir("durrank");
    opts.collectorId = 1;
    {
        DurableCollector first(opts);
        for (std::size_t i = 0; i < 10; ++i)
            first.submit(pool[i]);
        first.rollEpoch();
        for (std::size_t i = 10; i < 16; ++i)
            first.submit(pool[i]);
    }
    DurableCollector collector(opts);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        collector.submit(pool[i]);
        if (i % 5 == 4)
            collector.rollEpoch();
        RankerSnapshot store(1, 0, collector.store());
        for (bool absence : {false, true})
            expectSameRanking(collector.rank(absence),
                              store.rank(absence));
    }
    Ranker reference;
    for (const RunProfile &p : pool)
        fleet::ingest(reference, p);
    expectSameRanking(collector.rank(true), reference.rank(true));
    expectSameRanking(collector.rank(false), reference.rank(false));
}

TEST(DurableCollector, RecoversFromSnapshotPlusWalTail)
{
    Pcg32 rng(52);
    std::string dir = scratchDir("durrecover");
    std::vector<RunProfile> pool = distinctProfiles(rng, 30);

    DurableOptions opts;
    opts.dir = dir;
    opts.collectorId = 1;

    // Uninterrupted reference run in a separate directory.
    std::vector<RankedEvent> reference;
    RankerSnapshot referenceSnap;
    {
        DurableOptions refOpts = opts;
        refOpts.dir = scratchDir("durrecover_ref");
        DurableCollector ref(refOpts);
        for (const RunProfile &p : pool)
            ref.submit(p);
        referenceSnap = ref.rollEpoch();
        reference = referenceSnap.rank(true);
    }

    // Interrupted run: snapshot after 10, WAL-only tail of 10 more,
    // then the process "dies" (destruction flushes the WAL — the
    // unflushed-loss case is exercised by the tool test's _exit).
    {
        DurableCollector first(opts);
        for (std::size_t i = 0; i < 10; ++i)
            first.submit(pool[i]);
        first.rollEpoch();
        for (std::size_t i = 10; i < 20; ++i)
            first.submit(pool[i]);
        // No roll: reports 10..19 exist only in the WAL.
    }

    DurableCollector second(opts);
    const fleet::RecoveryReport &rec = second.recovery();
    EXPECT_TRUE(rec.recovered);
    EXPECT_TRUE(rec.snapshotLoaded);
    EXPECT_EQ(rec.snapshotEpoch, 0u);
    EXPECT_EQ(rec.snapshotReports, 10u);
    EXPECT_EQ(rec.walRecordsReplayed, 10u);
    EXPECT_EQ(second.storedReports(), 20u);

    // The at-least-once transport re-sends everything; recovered
    // reports must all be duplicates.
    std::size_t duplicates = 0;
    for (const RunProfile &p : pool) {
        if (second.submit(p) == IngestStatus::Duplicate)
            ++duplicates;
    }
    EXPECT_EQ(duplicates, 20u);
    RankerSnapshot snap = second.rollEpoch();

    // Identical deduplicated store => identical ranking, and the
    // stores themselves match report for report.
    expectSameRanking(snap.rank(true), reference);
    EXPECT_EQ(snap.reports(), referenceSnap.reports());
}

TEST(DurableCollector, RecoversThroughATornWalTail)
{
    Pcg32 rng(53);
    std::string dir = scratchDir("durtorn");
    std::vector<RunProfile> pool = distinctProfiles(rng, 12);
    DurableOptions opts;
    opts.dir = dir;
    opts.collectorId = 1;
    {
        DurableCollector first(opts);
        for (const RunProfile &p : pool)
            first.submit(p);
        // Crash before any roll: WAL only (flushed by destruction).
    }
    // Tear the tail mid-record, as an _exit with a part-written
    // buffer would.
    std::vector<std::uint64_t> segs = fleet::walSegments(dir, 1);
    ASSERT_FALSE(segs.empty());
    std::string path = fleet::walSegmentPath(dir, 1, segs.back());
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    ASSERT_GT(bytes.size(), 30u);
    writeFileBytes(path, {bytes.begin(), bytes.end() - 13});

    DurableCollector second(opts);
    EXPECT_TRUE(second.recovery().recovered);
    EXPECT_LT(second.storedReports(), pool.size());
    // Re-sending converges: lost-tail frames are accepted (novel),
    // recovered ones are duplicates, and the final state matches an
    // uninterrupted run's.
    for (const RunProfile &p : pool)
        second.submit(p);
    EXPECT_EQ(second.storedReports(), pool.size());

    Ranker reference;
    for (const RunProfile &p : pool)
        fleet::ingest(reference, p);
    expectSameRanking(second.rank(true), reference.rank(true));
}

TEST(DurableCollector, OverCapFrameNeverReachesTheWal)
{
    // A frame whose payload length exceeds the wire cap must be
    // refused at ingest: a logged record that recovery refuses would
    // stop replay there and lose every later record.
    Pcg32 rng(56);
    std::string dir = scratchDir("durovercap");
    std::vector<RunProfile> pool = distinctProfiles(rng, 2);
    DurableOptions opts;
    opts.dir = dir;
    opts.collectorId = 1;
    {
        DurableCollector first(opts);
        EXPECT_EQ(first.submit(pool[0]), IngestStatus::Accepted);
        std::vector<std::uint8_t> header(kFrameHeaderSize);
        sealFrame(fleet::kWireFrame, header.data(), 0);
        le::put(header.data() + 8, fleet::kWireMaxPayload + 1);
        EXPECT_EQ(first.ingest(header), IngestStatus::DecodeError);
        EXPECT_EQ(first.inner().stats().value("decode_error.malformed"),
                  1u);
        EXPECT_EQ(first.submit(pool[1]), IngestStatus::Accepted);
        EXPECT_EQ(first.stats().value("frames_spilled"), 2u);
    }
    DurableCollector second(opts);
    EXPECT_EQ(second.recovery().walRecordsReplayed, 2u);
    EXPECT_EQ(second.recovery().walTail, FrameStatus::Ok);
    EXPECT_EQ(second.storedReports(), 2u);
}

TEST(DurableCollector, PrunesWalOnceSnapshotCovers)
{
    Pcg32 rng(54);
    std::string dir = scratchDir("durprune");
    DurableOptions opts;
    opts.dir = dir;
    opts.collectorId = 1;
    opts.walRotateBytes = 256; // force many segments
    DurableCollector collector(opts);
    std::vector<RunProfile> pool = distinctProfiles(rng, 30);
    for (std::size_t i = 0; i < pool.size(); ++i) {
        collector.submit(pool[i]);
        if (i % 10 == 9)
            collector.rollEpoch();
    }
    // After the final roll, the whole store is covered: only the
    // active segment may remain.
    collector.rollEpoch();
    EXPECT_EQ(fleet::walSegments(dir, 1).size(), 1u);
    // And only the newest snapshot file remains.
    EXPECT_EQ(fleet::listSnapshotFiles(dir).size(), 1u);
}

TEST(DurableCollector, TwoCollectorsMergeBitIdenticallyToOne)
{
    Pcg32 rng(55);
    std::vector<RunProfile> pool = distinctProfiles(rng, 40);

    // Single collector over the union.
    std::string dirOne = scratchDir("duronecoll");
    DurableOptions one;
    one.dir = dirOne;
    one.collectorId = 1;
    DurableCollector single(one);
    for (const RunProfile &p : pool)
        single.submit(p);
    RankerSnapshot whole = single.rollEpoch();

    // Two collectors sharding by machine id, same directory.
    std::string dirTwo = scratchDir("durtwocoll");
    for (unsigned c = 0; c < 2; ++c) {
        DurableOptions opts;
        opts.dir = dirTwo;
        opts.collectorId = c + 1;
        DurableCollector collector(opts);
        for (const RunProfile &p : pool)
            if (p.machineId % 2 == c)
                collector.submit(p);
        collector.rollEpoch();
    }
    fleet::MergeResult merged = fleet::mergeSnapshotDir(dirTwo);
    EXPECT_EQ(merged.filesMerged, 2u);
    EXPECT_EQ(merged.filesSkipped, 0u);

    // Same epoch, collectorId min = 1: byte-identical snapshots.
    EXPECT_EQ(merged.merged.serialize(), whole.serialize());
    expectSameRanking(merged.merged.rank(true), whole.rank(true));
}

// ---- ranker statistics ------------------------------------------------

TEST(RankerStats, ExportImportRoundTripsBothRankers)
{
    // The exported sufficient statistics are everything rank()
    // consumes: scoring them afresh reproduces the ranking of the
    // live Ranker and of the report store, before and after both
    // fold more reports.
    Pcg32 rng(61);
    std::vector<RunProfile> pool = distinctProfiles(rng, 25);
    auto rankStats = [](const scoring::SufficientStats &s,
                        bool absence) {
        return scoring::rankTallies(s.tallies, s.failures,
                                    s.successes, absence);
    };
    Ranker ranker;
    RankerSnapshot::ReportMap reports;
    auto checkBoth = [&] {
        RankerSnapshot store(1, 0, reports);
        for (bool absence : {false, true}) {
            expectSameRanking(rankStats(ranker.exportStats(), absence),
                              ranker.rank(absence));
            expectSameRanking(rankStats(store.sufficientStats(), absence),
                              store.rank(absence));
        }
        EXPECT_EQ(store.sufficientStats(), ranker.exportStats());
        EXPECT_EQ(ranker.exportStats().failures,
                  ranker.failureProfiles());
        EXPECT_EQ(ranker.exportStats().successes,
                  ranker.successProfiles());
    };
    for (std::size_t i = 0; i + 5 < pool.size(); ++i) {
        fleet::ingest(ranker, pool[i]);
        reports.merge(mapOf({pool[i]}));
    }
    checkBoth();
    for (std::size_t i = pool.size() - 5; i < pool.size(); ++i) {
        fleet::ingest(ranker, pool[i]);
        reports.merge(mapOf({pool[i]}));
    }
    checkBoth();
    EXPECT_EQ(reports, mapOf(pool));
}

TEST(RankerStats, SnapshotSufficientStatsMatchTheRanker)
{
    Pcg32 rng(62);
    std::vector<RunProfile> pool = distinctProfiles(rng, 25);
    RankerSnapshot snap(1, 0, mapOf(pool));
    Ranker reference;
    for (const RunProfile &p : pool)
        fleet::ingest(reference, p);
    EXPECT_EQ(snap.sufficientStats(), reference.exportStats());
}

// ---- campaign -----------------------------------------------------------

class CampaignTest : public ::testing::Test
{
  protected:
    static fleet::CampaignPools &
    pools()
    {
        // The capture pipeline is the expensive part; share one pool
        // across the campaign tests (it is immutable).
        static fleet::CampaignPools shared = [] {
            fleet::FleetOptions opts;
            opts.jobs = 1;
            return fleet::buildCampaignPools(
                corpus::bugById("cp"), opts);
        }();
        return shared;
    }
};

TEST_F(CampaignTest, RestampedFramesMatchSerialize)
{
    // The campaign encodes each pool report once and restamps a
    // copy per machine: for every pool entry, the restamped frame is
    // byte-identical to serialize() of the restamped profile.
    ASSERT_TRUE(pools().valid);
    Pcg32 rng(test::testSeed(), 71);
    for (const auto *pool : {&pools().failures, &pools().successes}) {
        for (const RunProfile &proto : *pool) {
            RunProfile p = proto;
            p.machineId = rng.next() * 0x100000001ull;
            p.runSeed = (std::uint64_t{rng.next()} << 32) | rng.next();
            std::vector<std::uint8_t> frame = fleet::serialize(proto);
            fleet::restampFrame(frame.data(), frame.size(),
                                p.machineId, p.runSeed);
            EXPECT_EQ(frame, fleet::serialize(p));
        }
    }
}

TEST_F(CampaignTest, DiagnosesAndIsShardingIndependent)
{
    ASSERT_TRUE(pools().valid);
    fleet::CampaignResult reference;
    for (unsigned collectors : {1u, 2u, 4u}) {
        fleet::CampaignOptions opts;
        opts.machines = 64;
        opts.collectors = collectors;
        opts.dir = scratchDir("campaign" +
                              std::to_string(collectors));
        opts.failureProbability = 0.05;
        opts.successSampleEvery = 4;
        opts.maxRounds = 16;
        opts.seed = 9;
        fleet::CampaignResult result =
            fleet::runDurableCampaign(pools(), opts);
        EXPECT_TRUE(result.diagnosed)
            << collectors << " collectors";
        if (collectors == 1) {
            reference = result;
            continue;
        }
        // The failure schedule and the merged diagnosis are both
        // independent of how the fleet is sharded.
        EXPECT_EQ(result.rounds, reference.rounds);
        EXPECT_EQ(result.pinRound, reference.pinRound);
        EXPECT_EQ(result.mergedReports, reference.mergedReports);
        expectSameRanking(result.ranking, reference.ranking);
    }
}

TEST_F(CampaignTest, DuplicateRetransmissionsAreInvisible)
{
    ASSERT_TRUE(pools().valid);
    fleet::CampaignOptions opts;
    opts.machines = 48;
    opts.collectors = 2;
    opts.failureProbability = 0.05;
    opts.successSampleEvery = 4;
    opts.maxRounds = 16;
    opts.seed = 10;

    opts.dir = scratchDir("campclean");
    fleet::CampaignResult clean =
        fleet::runDurableCampaign(pools(), opts);
    opts.dir = scratchDir("campdup");
    opts.duplicateEvery = 2;
    fleet::CampaignResult faulty =
        fleet::runDurableCampaign(pools(), opts);
    EXPECT_GT(faulty.duplicates, 0u);
    EXPECT_EQ(faulty.rounds, clean.rounds);
    EXPECT_EQ(faulty.mergedReports, clean.mergedReports);
    expectSameRanking(faulty.ranking, clean.ranking);
}

TEST_F(CampaignTest, ProactiveDiagnosesNoLaterThanReactive)
{
    ASSERT_TRUE(pools().valid);
    fleet::CampaignOptions opts;
    opts.machines = 64;
    opts.collectors = 2;
    opts.failureProbability = 0.02;
    opts.successSampleEvery = 4;
    opts.maxRounds = 32;
    opts.seed = 11;

    opts.dir = scratchDir("campreact");
    opts.scheme = transform::SuccessSiteScheme::Reactive;
    fleet::CampaignResult reactive =
        fleet::runDurableCampaign(pools(), opts);
    opts.dir = scratchDir("campproact");
    opts.scheme = transform::SuccessSiteScheme::Proactive;
    fleet::CampaignResult proactive =
        fleet::runDurableCampaign(pools(), opts);
    ASSERT_TRUE(reactive.diagnosed);
    ASSERT_TRUE(proactive.diagnosed);
    // Proactive machines were instrumented from round one: success
    // context is already flowing when the first failure lands, so
    // the diagnosis clock can only be shorter or equal (Figure 8's
    // tradeoff — the cost is the always-on success traffic).
    EXPECT_LE(proactive.rounds, reactive.rounds);
    EXPECT_GE(proactive.successReports, reactive.successReports);
}

} // namespace
} // namespace stm
