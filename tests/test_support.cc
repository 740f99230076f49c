/**
 * @file
 * Unit tests for the support library: the ring buffer (the data
 * structure backing LBR/LCR), logging helpers, deterministic PRNG,
 * statistics, the CRC32, and the lock-free transport primitives
 * behind the fleet collector (MPSC sequence ring, frame arena,
 * fingerprint set).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "support/checksum.hh"
#include "support/file_io.hh"
#include "support/fingerprint_set.hh"
#include "support/frame_arena.hh"
#include "support/logging.hh"
#include "support/mpsc_ring.hh"
#include "support/random.hh"
#include "support/ring_buffer.hh"
#include "support/stats.hh"

namespace stm
{
namespace
{

// ---- RingBuffer ----------------------------------------------------------

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer<int> ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.full());
}

TEST(RingBuffer, PushGrowsUntilCapacity)
{
    RingBuffer<int> ring(3);
    ring.push(1);
    EXPECT_EQ(ring.size(), 1u);
    ring.push(2);
    ring.push(3);
    EXPECT_TRUE(ring.full());
    ring.push(4);
    EXPECT_EQ(ring.size(), 3u);
}

TEST(RingBuffer, NewestFirstOrdering)
{
    RingBuffer<int> ring(3);
    ring.push(10);
    ring.push(20);
    ring.push(30);
    EXPECT_EQ(ring.newest(0), 30);
    EXPECT_EQ(ring.newest(1), 20);
    EXPECT_EQ(ring.newest(2), 10);
}

TEST(RingBuffer, OldestEvictedOnWrap)
{
    RingBuffer<int> ring(3);
    for (int i = 1; i <= 5; ++i)
        ring.push(i);
    EXPECT_EQ(ring.newest(0), 5);
    EXPECT_EQ(ring.newest(1), 4);
    EXPECT_EQ(ring.newest(2), 3);
    EXPECT_EQ(ring.oldest(0), 3);
}

TEST(RingBuffer, SnapshotNewestFirst)
{
    RingBuffer<int> ring(4);
    ring.push(1);
    ring.push(2);
    ring.push(3);
    auto snap = ring.snapshotNewestFirst();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0], 3);
    EXPECT_EQ(snap[2], 1);
}

TEST(RingBuffer, SnapshotOldestFirstIsReverse)
{
    RingBuffer<int> ring(4);
    for (int i = 0; i < 6; ++i)
        ring.push(i);
    auto newest = ring.snapshotNewestFirst();
    auto oldest = ring.snapshotOldestFirst();
    ASSERT_EQ(newest.size(), oldest.size());
    for (std::size_t i = 0; i < newest.size(); ++i)
        EXPECT_EQ(newest[i], oldest[oldest.size() - 1 - i]);
}

TEST(RingBuffer, ClearResets)
{
    RingBuffer<int> ring(2);
    ring.push(1);
    ring.push(2);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push(7);
    EXPECT_EQ(ring.newest(0), 7);
}

TEST(RingBuffer, ZeroCapacityDropsEverything)
{
    RingBuffer<int> ring(0);
    ring.push(1);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, CapacityOneWrapsEveryPush)
{
    // The degenerate ring: head_ wraps to 0 on every push, each push
    // is an eviction once full, and newest == oldest throughout.
    RingBuffer<int> ring(1);
    EXPECT_TRUE(ring.empty());
    for (int i = 1; i <= 50; ++i) {
        ring.push(i);
        EXPECT_TRUE(ring.full());
        EXPECT_EQ(ring.size(), 1u);
        EXPECT_EQ(ring.newest(0), i);
        EXPECT_EQ(ring.oldest(0), i);
        auto newest = ring.snapshotNewestFirst();
        auto oldest = ring.snapshotOldestFirst();
        ASSERT_EQ(newest.size(), 1u);
        ASSERT_EQ(oldest.size(), 1u);
        EXPECT_EQ(newest[0], i);
        EXPECT_EQ(oldest[0], i);
    }
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push(99);
    EXPECT_EQ(ring.newest(0), 99);
}

/** Property: after any push sequence, size = min(pushes, capacity)
 *  and newest(i) returns the (i+1)-th most recent push. */
class RingBufferSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RingBufferSweep, RetainsTheLastKRecords)
{
    const int capacity = GetParam();
    RingBuffer<int> ring(capacity);
    const int pushes = 100;
    for (int i = 0; i < pushes; ++i)
        ring.push(i);
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(
                               std::min(pushes, capacity)));
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.newest(i), pushes - 1 - static_cast<int>(i));
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 15, 16, 17,
                                           32, 100, 101));

// ---- logging ------------------------------------------------------------

TEST(Logging, StrfmtSubstitutesInOrder)
{
    EXPECT_EQ(strfmt("a={} b={}", 1, "x"), "a=1 b=x");
}

TEST(Logging, StrfmtIgnoresExtraPlaceholders)
{
    EXPECT_EQ(strfmt("v={}", 1), "v=1");
    EXPECT_EQ(strfmt("none"), "none");
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("broken {}", 1), PanicError);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("bad input {}", "x"), FatalError);
}

TEST(Logging, PanicMessageContainsText)
{
    try {
        panic("value was {}", 42);
        FAIL();
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 42"),
                  std::string::npos);
    }
}

/** Capture everything written to std::cerr for one scope. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string text() const { return buffer_.str(); }

  private:
    std::ostringstream buffer_;
    std::streambuf *old_;
};

/** Restore the log level on every exit path. */
class LogLevelGuard
{
  public:
    explicit LogLevelGuard(LogLevel level)
        : previous_(setLogLevel(level))
    {
    }
    ~LogLevelGuard() { setLogLevel(previous_); }

  private:
    LogLevel previous_;
};

TEST(Logging, InfoLevelPrintsWarnAndInform)
{
    LogLevelGuard level(LogLevel::Info);
    CerrCapture capture;
    warn("w{}", 1);
    inform("i{}", 2);
    EXPECT_NE(capture.text().find("warn: w1"), std::string::npos);
    EXPECT_NE(capture.text().find("info: i2"), std::string::npos);
}

TEST(Logging, WarnLevelSuppressesInform)
{
    LogLevelGuard level(LogLevel::Warn);
    CerrCapture capture;
    warn("keep");
    inform("drop");
    EXPECT_NE(capture.text().find("warn: keep"), std::string::npos);
    EXPECT_EQ(capture.text().find("drop"), std::string::npos);
}

TEST(Logging, SilentLevelSuppressesEverything)
{
    LogLevelGuard level(LogLevel::Silent);
    CerrCapture capture;
    warn("w");
    inform("i");
    EXPECT_TRUE(capture.text().empty());
}

TEST(Logging, ErrorsIgnoreTheLogLevel)
{
    LogLevelGuard level(LogLevel::Silent);
    EXPECT_THROW(panic("still thrown"), PanicError);
    EXPECT_THROW(fatal("still thrown"), FatalError);
}

TEST(Logging, SetLogLevelReturnsPrevious)
{
    LogLevel original = logLevel();
    EXPECT_EQ(setLogLevel(LogLevel::Silent), original);
    EXPECT_EQ(setLogLevel(original), LogLevel::Silent);
    EXPECT_EQ(logLevel(), original);
}

// ---- Pcg32 ----------------------------------------------------------------

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Pcg32, BoundedStaysInRange)
{
    Pcg32 rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(10), 10u);
}

TEST(Pcg32, BoundedOneAlwaysZero)
{
    Pcg32 rng(7);
    EXPECT_EQ(rng.nextBounded(1), 0u);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(9);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Pcg32, BernoulliRespectsProbabilityRoughly)
{
    Pcg32 rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Pcg32, GeometricMeanApproximatelyRight)
{
    Pcg32 rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextGeometric(100.0);
    EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Pcg32, GeometricAtLeastOne)
{
    Pcg32 rng(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.nextGeometric(3.0), 1u);
    EXPECT_EQ(rng.nextGeometric(1.0), 1u);
}

// ---- stats ------------------------------------------------------------------

TEST(Stats, CounterIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GroupCreatesLazily)
{
    StatGroup group("cache");
    EXPECT_EQ(group.value("hits"), 0u);
    ++group.counter("hits");
    EXPECT_EQ(group.value("hits"), 1u);
}

TEST(Stats, GroupDumpFormat)
{
    StatGroup group("bus");
    group.counter("reads") += 3;
    std::ostringstream os;
    group.dump(os);
    EXPECT_EQ(os.str(), "bus.reads 3\n");
}

TEST(Stats, GroupReset)
{
    StatGroup group("g");
    group.counter("a") += 2;
    group.reset();
    EXPECT_EQ(group.value("a"), 0u);
}

TEST(Stats, EmptyGroupToJson)
{
    StatGroup group("empty");
    EXPECT_EQ(group.toJson(),
              "{\"name\": \"empty\", \"counters\": {}, "
              "\"gauges\": {}}");
}

TEST(Stats, ToJsonEscapesQuotesAndBackslashes)
{
    StatGroup group("we\"ird\\name");
    group.counter("ke\"y") += 1;
    group.counter("back\\slash") += 2;
    std::string json = group.toJson();
    EXPECT_NE(json.find("\"we\\\"ird\\\\name\""), std::string::npos);
    EXPECT_NE(json.find("\"ke\\\"y\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"back\\\\slash\": 2"), std::string::npos);
    // No raw (unescaped) quote may survive inside any name.
    EXPECT_EQ(json.find("we\"ird"), std::string::npos);
}

TEST(Stats, ToJsonListsCountersAndGauges)
{
    StatGroup group("g");
    group.counter("hits") += 3;
    group.gauge("rate").set(1.5);
    std::string json = group.toJson();
    EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"rate\": 1.5"), std::string::npos);
}

// ---- Checksum ------------------------------------------------------------

TEST(Checksum, MatchesTheIeeeCheckValue)
{
    // The standard CRC-32/IEEE check vector.
    const char *msg = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(msg), 9),
              0xCBF43926u);
}

TEST(Checksum, SplitUpdatesMatchOneShot)
{
    // Any split of the input must give the same CRC as one pass; the
    // sweep crosses the slicing-by-8 fast path and its byte-wise tail
    // in every phase, so the two factorings are checked against each
    // other for all alignments.
    std::vector<std::uint8_t> data(40);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        std::uint32_t oneShot = crc32(data.data(), len);
        for (std::size_t cut = 0; cut <= len; ++cut) {
            std::uint32_t c = crc32Init();
            c = crc32Update(c, data.data(), cut);
            c = crc32Update(c, data.data() + cut, len - cut);
            EXPECT_EQ(crc32Final(c), oneShot)
                << "len " << len << " cut " << cut;
        }
    }
}

/** Bit-at-a-time reflected IEEE CRC32: the definition, no tables. */
std::uint32_t
bitwiseCrc32Update(std::uint32_t crc, const std::uint8_t *data,
                   std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc;
}

TEST(Checksum, FoldedPathMatchesBitwiseReference)
{
    // Lengths 0..600 cover short inputs, the 64-byte entry to the
    // folded path, every 16-byte tail length and several four-lane
    // steps; start offsets 0..15 put the 16-byte loads at every
    // alignment. The table path is checked on its own too, since on
    // a CLMUL host crc32Update sends it only tails.
    Pcg32 rng(0xC0FFEE);
    std::vector<std::uint8_t> data(600 + 16);
    for (std::uint8_t &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t len = 0; len <= 600; ++len) {
        for (std::size_t off = 0; off < 16; ++off) {
            std::uint32_t seed = rng.next();
            const std::uint8_t *p = data.data() + off;
            std::uint32_t want = bitwiseCrc32Update(seed, p, len);
            ASSERT_EQ(crc32Update(seed, p, len), want)
                << "len " << len << " offset " << off;
            ASSERT_EQ(detail::crc32UpdateTable(seed, p, len), want)
                << "len " << len << " offset " << off;
        }
    }

    // Every two-way split of 300 bytes: cuts on both sides of the
    // 64-byte and 16-byte fold boundaries hand each half a different
    // bulk/tail division.
    const std::uint8_t *p = data.data();
    std::uint32_t whole = bitwiseCrc32Update(crc32Init(), p, 300);
    for (std::size_t cut = 0; cut <= 300; ++cut) {
        std::uint32_t c = crc32Update(crc32Init(), p, cut);
        c = crc32Update(c, p + cut, 300 - cut);
        ASSERT_EQ(c, whole) << "cut " << cut;
    }
}

// ---- readWholeFile -------------------------------------------------------

TEST(ReadWholeFile, ReadsEveryByteOfFilesOfAnySize)
{
    std::string path = ::testing::TempDir() + "stm_read_whole_file";
    // Empty, smaller than a stream buffer or a page, and several
    // buffers long; into a vector and into a PageBuffer.
    for (std::size_t size : {std::size_t{0}, std::size_t{1},
                             std::size_t{4095}, std::size_t{300001}}) {
        std::vector<std::uint8_t> data(size);
        for (std::size_t i = 0; i < size; ++i)
            data[i] = static_cast<std::uint8_t>(i * 131 + size);
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(reinterpret_cast<const char *>(data.data()),
                     static_cast<std::streamsize>(size));
        }
        std::vector<std::uint8_t> got = {0xAA}; // replaced, not appended
        ASSERT_TRUE(readWholeFile(path, &got)) << "size " << size;
        EXPECT_EQ(got, data) << "size " << size;
        PageBuffer mapped(7); // replaced, not appended
        ASSERT_TRUE(readWholeFile(path, &mapped)) << "size " << size;
        ASSERT_EQ(mapped.size(), size);
        EXPECT_TRUE(std::equal(data.begin(), data.end(), mapped.data()))
            << "size " << size;
    }
    std::remove(path.c_str());
}

TEST(ReadWholeFile, MissingFileFailsAndLeavesOutputEmpty)
{
    std::string missing = ::testing::TempDir() + "stm_no_such_file_here";
    std::vector<std::uint8_t> got = {1, 2, 3};
    EXPECT_FALSE(readWholeFile(missing, &got));
    EXPECT_TRUE(got.empty());
    PageBuffer mapped(3);
    EXPECT_FALSE(readWholeFile(missing, &mapped));
    EXPECT_EQ(mapped.size(), 0u);
}

// ---- MpscRing ------------------------------------------------------------

TEST(MpscRing, RoundsCapacityUpToAPowerOfTwo)
{
    EXPECT_EQ(MpscRing<int>(0).capacity(), 1u);
    EXPECT_EQ(MpscRing<int>(1).capacity(), 1u);
    EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(MpscRing<int>(5).capacity(), 8u);
    EXPECT_EQ(MpscRing<int>(1024).capacity(), 1024u);
}

TEST(MpscRing, FullAndEmptyBoundariesAreExact)
{
    MpscRing<int> ring(4);
    int out = -1;
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.tryPop(&out));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i)) << i;
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_FALSE(ring.tryPush(99)); // full: policy decision is the caller's
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(&out));
        EXPECT_EQ(out, i); // FIFO
    }
    EXPECT_FALSE(ring.tryPop(&out));
    EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, WrapsAtEveryCapacity)
{
    // Fill-to-full / drain-to-empty laps at every small power-of-two
    // capacity: the head and tail tickets cross the wrap point dozens
    // of times and every popped value must still come out in push
    // order. This is the test that catches sequence-encoding
    // collisions (the classic `ticket + 1` scheme fails at capacity 1).
    for (std::size_t cap : {1, 2, 4, 8, 16}) {
        MpscRing<std::uint64_t> ring(cap);
        std::uint64_t next = 0;
        std::uint64_t expect = 0;
        for (int lap = 0; lap < 50; ++lap) {
            // Vary the burst size so laps start at every ring phase.
            std::size_t burst = lap % cap + 1;
            for (std::size_t i = 0; i < burst; ++i)
                ASSERT_TRUE(ring.tryPush(next++))
                    << "cap " << cap << " lap " << lap;
            std::uint64_t out = 0;
            for (std::size_t i = 0; i < burst; ++i) {
                ASSERT_TRUE(ring.tryPop(&out));
                ASSERT_EQ(out, expect++) << "cap " << cap;
            }
        }
        EXPECT_TRUE(ring.empty());
    }
}

TEST(MpscRing, CapacityOneAlternatesPushAndPop)
{
    MpscRing<int> ring(1);
    ASSERT_EQ(ring.capacity(), 1u);
    int out = -1;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(ring.tryPush(i));
        // A second push must fail, not overwrite the unconsumed slot.
        ASSERT_FALSE(ring.tryPush(i + 1000));
        ASSERT_TRUE(ring.tryPop(&out));
        ASSERT_EQ(out, i);
        ASSERT_FALSE(ring.tryPop(&out));
    }
}

TEST(MpscRing, ResidentRecordSurvivesManyLaps)
{
    // Keep one record resident while the ring laps around it: the
    // recycled-sequence bookkeeping must keep the old record intact
    // until its own pop.
    MpscRing<std::uint64_t> ring(4);
    ASSERT_TRUE(ring.tryPush(0));
    std::uint64_t next = 1;
    std::uint64_t expect = 0;
    std::uint64_t out = 0;
    for (int step = 0; step < 200; ++step) {
        ASSERT_TRUE(ring.tryPush(next++));
        ASSERT_TRUE(ring.tryPop(&out));
        ASSERT_EQ(out, expect++);
    }
    ASSERT_TRUE(ring.tryPop(&out));
    EXPECT_EQ(out, expect);
}

/** Hammer @p ring with @p producers threads and pop from the calling
 * thread, asserting per-producer FIFO order and total conservation. */
void
hammerRing(MpscRing<std::uint64_t> &ring, unsigned producers,
           std::uint64_t per_producer)
{
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&ring, &go, p, per_producer] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (std::uint64_t i = 0; i < per_producer; ++i) {
                std::uint64_t v = (std::uint64_t{p} << 32) | i;
                while (!ring.tryPush(v))
                    std::this_thread::yield();
            }
        });
    }
    go.store(true, std::memory_order_release);
    std::vector<std::uint64_t> nextOf(producers, 0);
    std::uint64_t seen = 0;
    std::uint64_t out = 0;
    while (seen < producers * per_producer) {
        if (!ring.tryPop(&out)) {
            std::this_thread::yield();
            continue;
        }
        std::uint64_t p = out >> 32;
        std::uint64_t i = out & 0xFFFFFFFFu;
        ASSERT_LT(p, producers);
        // Per-producer FIFO: producer p's records arrive in order,
        // none lost, none duplicated.
        ASSERT_EQ(i, nextOf[p]) << "producer " << p;
        ++nextOf[p];
        ++seen;
    }
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(ring.tryPop(&out)); // conservation: nothing extra
    EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, ConcurrentProducersConserveEveryRecord)
{
    MpscRing<std::uint64_t> ring(64);
    hammerRing(ring, 4, 10000);
}

TEST(MpscRing, ConcurrentProducersAtCapacityOne)
{
    // The degenerate ring is all contention: every push fights for
    // the single slot while the consumer recycles it.
    MpscRing<std::uint64_t> ring(1);
    hammerRing(ring, 2, 3000);
}

// ---- FrameArena ----------------------------------------------------------

TEST(FrameArena, BumpsWithinARegionAndTracksInflight)
{
    FrameArena arena(16384);
    EXPECT_EQ(arena.regionSize(), 4096u);
    std::uint8_t *a = arena.reserve(100);
    ASSERT_NE(a, nullptr);
    std::uint8_t *b = arena.reserve(50);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b, a + 100); // contiguous bump within one region
    EXPECT_EQ(arena.inflightBytes(), 150u);
    EXPECT_TRUE(arena.owns(a));
    EXPECT_TRUE(arena.owns(b));
    arena.complete(a, 100);
    arena.complete(b, 50);
    EXPECT_EQ(arena.inflightBytes(), 0u);
}

TEST(FrameArena, RefusesFramesLargerThanARegion)
{
    FrameArena arena(16384);
    EXPECT_EQ(arena.reserve(4097), nullptr); // heap detour, not policy
    EXPECT_NE(arena.reserve(4096), nullptr); // exactly a region fits
}

TEST(FrameArena, UnreserveRollsBackTheLastReservation)
{
    FrameArena arena(16384);
    std::uint8_t *a = arena.reserve(64);
    ASSERT_NE(a, nullptr);
    std::uint8_t *b = arena.reserve(32);
    ASSERT_NE(b, nullptr);
    arena.unreserve(b, 32);
    EXPECT_EQ(arena.inflightBytes(), 64u);
    // The rolled-back bytes are handed out again immediately.
    EXPECT_EQ(arena.reserve(32), b);
}

TEST(FrameArena, RegionsRecycleOnlyAfterCompletion)
{
    FrameArena arena(16384);
    std::uint8_t *frames[FrameArena::kRegions];
    for (auto &f : frames) {
        f = arena.reserve(4096); // each fills one region exactly
        ASSERT_NE(f, nullptr);
    }
    // Every region is in flight: backpressure, never overwrite.
    EXPECT_EQ(arena.reserve(1), nullptr);
    // Completing the oldest region reopens exactly its bytes...
    arena.complete(frames[0], 4096);
    EXPECT_EQ(arena.reserve(4096), frames[0]);
    // ...and the next region over is still protected.
    EXPECT_EQ(arena.reserve(1), nullptr);
}

TEST(FrameArena, OwnsRejectsForeignPointers)
{
    FrameArena arena(16384);
    std::uint8_t local = 0;
    EXPECT_FALSE(arena.owns(&local));
    std::uint8_t *p = arena.reserve(8);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(arena.owns(p));
    EXPECT_TRUE(arena.owns(p + 7));
}

// ---- FingerprintSet ------------------------------------------------------

TEST(FingerprintSet, InsertIsExactlyOnceSequentially)
{
    FingerprintSet set(16);
    EXPECT_FALSE(set.contains(7));
    EXPECT_TRUE(set.insert(7));
    EXPECT_FALSE(set.insert(7));
    EXPECT_TRUE(set.contains(7));
    EXPECT_EQ(set.size(), 1u);
}

TEST(FingerprintSet, StoresTheReservedEncodings)
{
    // 0 and ~0 are the empty/tombstone slot encodings; they must
    // still be storable fingerprints (side flags).
    FingerprintSet set;
    const std::uint64_t ones = ~std::uint64_t{0};
    EXPECT_TRUE(set.insert(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_TRUE(set.contains(0));
    EXPECT_TRUE(set.insert(ones));
    EXPECT_FALSE(set.insert(ones));
    EXPECT_TRUE(set.contains(ones));
    EXPECT_EQ(set.size(), 2u);
    set.erase(0);
    EXPECT_FALSE(set.contains(0));
    EXPECT_TRUE(set.insert(0)); // erased values can come back
}

TEST(FingerprintSet, EraseTombstonesAndAllowsReinsert)
{
    FingerprintSet set(16);
    for (std::uint64_t fp = 1; fp <= 5; ++fp)
        ASSERT_TRUE(set.insert(fp * 1000));
    set.erase(3000);
    EXPECT_FALSE(set.contains(3000));
    EXPECT_TRUE(set.contains(2000)); // probes walk past tombstones
    EXPECT_EQ(set.size(), 4u);
    EXPECT_TRUE(set.insert(3000));
    EXPECT_TRUE(set.contains(3000));
    EXPECT_EQ(set.size(), 5u);
}

TEST(FingerprintSet, GrowthPreservesEveryEntry)
{
    FingerprintSet set(16);
    constexpr std::uint64_t kN = 5000; // forces many doublings from 16
    auto fpOf = [](std::uint64_t i) {
        return i * 0x9E3779B97F4A7C15ull + 1;
    };
    for (std::uint64_t i = 1; i <= kN; ++i)
        ASSERT_TRUE(set.insert(fpOf(i))) << i;
    EXPECT_EQ(set.size(), kN);
    EXPECT_GT(set.capacity(), std::size_t{16});
    for (std::uint64_t i = 1; i <= kN; ++i) {
        ASSERT_TRUE(set.contains(fpOf(i))) << i;
        ASSERT_FALSE(set.insert(fpOf(i))) << i; // still a duplicate
    }
    EXPECT_EQ(set.size(), kN);
}

TEST(FingerprintSet, ConcurrentInsertersAgreeOnExactlyOnce)
{
    // Every thread inserts the same value set from a different
    // starting phase, so the same fingerprint is contended
    // constantly, across several quiesced rehashes. Exactly one
    // inserter of each value may see `true`.
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kValues = 4096;
    FingerprintSet set(16);
    std::atomic<std::uint64_t> wins{0};
    std::atomic<bool> go{false};
    auto fpOf = [](std::uint64_t i) {
        return (i + 1) * 0x2545F4914F6CDD1Dull;
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            std::uint64_t start = t * (kValues / kThreads);
            std::uint64_t local = 0;
            for (std::uint64_t i = 0; i < kValues; ++i) {
                if (set.insert(fpOf((start + i) % kValues)))
                    ++local;
            }
            wins.fetch_add(local, std::memory_order_relaxed);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(wins.load(), kValues);
    EXPECT_EQ(set.size(), kValues);
    for (std::uint64_t i = 0; i < kValues; ++i)
        ASSERT_TRUE(set.contains(fpOf(i))) << i;
}

} // namespace
} // namespace stm
