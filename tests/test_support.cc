/**
 * @file
 * Unit tests for the support library: the ring buffer (the data
 * structure backing LBR/LCR), logging helpers, the numeric-flag
 * parser, the flag table, deterministic PRNG, statistics, the CRC32
 * and whole-file reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "support/checksum.hh"
#include "support/file_io.hh"
#include "support/flags.hh"
#include "support/logging.hh"
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

TEST(ParseDecimal, AcceptsDigitsWithinRange)
{
    EXPECT_EQ(parseDecimal("8", 1, 1024), std::optional<std::uint64_t>(8));
    EXPECT_EQ(parseDecimal("1", 1, 1024), std::optional<std::uint64_t>(1));
    EXPECT_EQ(parseDecimal("1024", 1, 1024),
              std::optional<std::uint64_t>(1024));
    EXPECT_EQ(parseDecimal("18446744073709551615", 0, UINT64_MAX),
              std::optional<std::uint64_t>(UINT64_MAX));
}

TEST(ParseDecimal, RejectsSignsAndNonDigits)
{
    for (const char *text : {"-1", "+1", "", "abc", "12x", " 8", "8 "})
        EXPECT_EQ(parseDecimal(text, 0, UINT64_MAX), std::nullopt)
            << "'" << text << "'";
}

TEST(ParseDecimal, RejectsValuesOutsideTheRange)
{
    EXPECT_EQ(parseDecimal("0", 1, 1024), std::nullopt);
    EXPECT_EQ(parseDecimal("1025", 1, 1024), std::nullopt);
}

TEST(ParseDecimal, RejectsOverflow)
{
    // 2^64 does not fit in 64 bits, whatever the range.
    EXPECT_EQ(parseDecimal("18446744073709551616", 0, UINT64_MAX),
              std::nullopt);
    EXPECT_EQ(parseDecimal("99999999999999999999999", 0, UINT64_MAX),
              std::nullopt);
}

// ---- FlagTable -----------------------------------------------------------

/** A table with one flag of each kind, and the values it sets. */
struct FlagFixture
{
    bool verbose = false;
    std::uint32_t count = 7;
    std::string out = "default.json";
    std::string mode = "auto";
    FlagTable table{
        {"<input> [options]"},
        {switchFlag("--verbose", &verbose, "say more"),
         numberFlag("--count", &count, "how many", 1, 100),
         textFlag("--out", &out, "FILE", "where to write"),
         choiceFlag("--mode", &mode, {"auto", "fast", "slow"},
                    "how to run")}};

    /** Parse "prog" followed by @p args. */
    std::optional<std::vector<std::string>>
    parse(std::vector<const char *> args, std::string *error)
    {
        args.insert(args.begin(), "prog");
        return table.parse(static_cast<int>(args.size()), args.data(),
                           error);
    }
};

TEST(FlagTable, DefaultsStayWithoutFlags)
{
    FlagFixture f;
    std::string error;
    auto positional = f.parse({}, &error);
    ASSERT_TRUE(positional);
    EXPECT_TRUE(positional->empty());
    EXPECT_FALSE(f.verbose);
    EXPECT_EQ(f.count, 7u);
    EXPECT_EQ(f.out, "default.json");
    EXPECT_EQ(f.mode, "auto");
}

TEST(FlagTable, SwitchSetsTrue)
{
    FlagFixture f;
    std::string error;
    ASSERT_TRUE(f.parse({"--verbose"}, &error));
    EXPECT_TRUE(f.verbose);
}

TEST(FlagTable, NumberParsesWithinItsRange)
{
    FlagFixture f;
    std::string error;
    ASSERT_TRUE(f.parse({"--count", "100"}, &error));
    EXPECT_EQ(f.count, 100u);
    ASSERT_TRUE(f.parse({"--count", "1"}, &error));
    EXPECT_EQ(f.count, 1u);
}

TEST(FlagTable, TextTakesAnyValue)
{
    FlagFixture f;
    std::string error;
    ASSERT_TRUE(f.parse({"--out", "-"}, &error));
    EXPECT_EQ(f.out, "-");
}

TEST(FlagTable, ChoiceTakesOneOfItsChoices)
{
    FlagFixture f;
    std::string error;
    ASSERT_TRUE(f.parse({"--mode", "slow"}, &error));
    EXPECT_EQ(f.mode, "slow");
}

TEST(FlagTable, PositionalArgumentsComeBackInOrder)
{
    FlagFixture f;
    std::string error;
    auto positional =
        f.parse({"dump", "--count", "3", "a.stmt", "-", "--verbose"},
                &error);
    ASSERT_TRUE(positional);
    EXPECT_EQ(*positional,
              (std::vector<std::string>{"dump", "a.stmt", "-"}));
    EXPECT_EQ(f.count, 3u);
    EXPECT_TRUE(f.verbose);
}

TEST(FlagTable, RejectsAnUnknownFlag)
{
    FlagFixture f;
    std::string error;
    EXPECT_FALSE(f.parse({"--no-such-flag"}, &error));
    EXPECT_EQ(error, "unknown option: --no-such-flag");
}

TEST(FlagTable, RejectsAMissingValue)
{
    for (const char *flag : {"--count", "--out", "--mode"}) {
        FlagFixture f;
        std::string error;
        EXPECT_FALSE(f.parse({flag}, &error)) << flag;
        EXPECT_EQ(error, std::string("option ") + flag + " needs a value");
    }
}

TEST(FlagTable, RejectsAMalformedNumber)
{
    for (const char *text : {"abc", "-1", "", "3x"}) {
        FlagFixture f;
        std::string error;
        EXPECT_FALSE(f.parse({"--count", text}, &error)) << text;
        EXPECT_EQ(f.count, 7u);
    }
}

TEST(FlagTable, RejectsANumberOutsideItsRange)
{
    for (const char *text : {"0", "101", "18446744073709551616"}) {
        FlagFixture f;
        std::string error;
        EXPECT_FALSE(f.parse({"--count", text}, &error)) << text;
        EXPECT_EQ(error, std::string("invalid value '") + text +
                             "' for --count (want 1..100)");
    }
}

TEST(FlagTable, NumberRangeIsCappedAtTheTargetType)
{
    std::uint8_t small = 0;
    FlagTable table({""}, {numberFlag("--n", &small, "tiny")});
    std::string error;
    const char *ok[] = {"prog", "--n", "255"};
    ASSERT_TRUE(table.parse(3, ok, &error));
    EXPECT_EQ(small, 255u);
    const char *over[] = {"prog", "--n", "256"};
    EXPECT_FALSE(table.parse(3, over, &error));
}

TEST(FlagTable, RejectsAValueOutsideTheChoices)
{
    FlagFixture f;
    std::string error;
    EXPECT_FALSE(f.parse({"--mode", "bogus"}, &error));
    EXPECT_EQ(error, "invalid value 'bogus' for --mode (want auto|fast|slow)");
    EXPECT_EQ(f.mode, "auto");
}

TEST(FlagTable, HelpFailsWithoutAnError)
{
    FlagFixture f;
    std::string error = "stale";
    EXPECT_FALSE(f.parse({"--help"}, &error));
    EXPECT_TRUE(error.empty());
}

TEST(FlagTable, UsageListsTheSynopsisAndEveryFlag)
{
    FlagFixture f;
    std::string usage = f.table.usage("prog");
    EXPECT_EQ(usage.rfind("usage: prog <input> [options]\n", 0), 0u)
        << usage;
    for (const char *text :
         {"--verbose", "--count N", "--out FILE",
          "--mode auto|fast|slow", "how to run"})
        EXPECT_NE(usage.find(text), std::string::npos) << text;
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

} // namespace
} // namespace stm
