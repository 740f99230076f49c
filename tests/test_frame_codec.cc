/**
 * @file
 * Tests for the shared framed-record codec (support/frame_codec.hh):
 * the little-endian cursor and writer, the header seal and its check
 * order, and one parameterised hostile-byte suite that runs every
 * truncation, every single-byte flip, trailing bytes and random
 * garbage through each decoder built on it (wire frame, trace dump,
 * ranker snapshot, WAL segment).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "codec_cases.hh"
#include "support/frame_codec.hh"
#include "support/random.hh"
#include "test_util.hh"

namespace stm
{
namespace
{

constexpr FrameSpec kTestFrame{0x54534554u, 3, 64};

/** A sealed kTestFrame carrying @p payload. */
std::vector<std::uint8_t>
sealed(const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> frame(kFrameHeaderSize + payload.size());
    std::copy(payload.begin(), payload.end(),
              frame.begin() + kFrameHeaderSize);
    sealFrame(kTestFrame, frame.data(), payload.size());
    return frame;
}

FrameStatus
verify(const std::vector<std::uint8_t> &frame)
{
    std::size_t len = 0;
    return verifyFrame(kTestFrame, frame.data(), frame.size(), &len);
}

// ---- codec pieces -------------------------------------------------------

TEST(FrameCodec, WriterAndReaderRoundTripLittleEndian)
{
    std::uint8_t buf[15];
    RawSink sink{buf};
    Writer<RawSink> w(sink);
    w.u8(0xAB);
    w.u16(0x0102);
    w.u32(0x03040506u);
    w.u64(0x0708090A0B0C0D0Eull);
    ASSERT_EQ(sink.p, buf + sizeof buf);
    const std::uint8_t want[] = {0xAB, 0x02, 0x01, 0x06, 0x05,
                                 0x04, 0x03, 0x0E, 0x0D, 0x0C,
                                 0x0B, 0x0A, 0x09, 0x08, 0x07};
    EXPECT_TRUE(std::equal(buf, buf + sizeof buf, want));

    FrameReader r(buf, sizeof buf);
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(le::get<std::uint16_t>(r.take(2)), 0x0102);
    EXPECT_EQ(r.u32(), 0x03040506u);
    EXPECT_EQ(r.u64(), 0x0708090A0B0C0D0Eull);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(FrameCodec, StreamingHashEqualsHashOfTheBytes)
{
    std::uint8_t buf[13];
    RawSink raw{buf};
    FnvSink fnv;
    Writer<RawSink> a(raw);
    Writer<FnvSink> b(fnv);
    a.u8(7);
    b.u8(7);
    a.str("abcd");
    b.str("abcd");
    a.u32(0xDEADBEEFu);
    b.u32(0xDEADBEEFu);
    EXPECT_EQ(fnv.h, fnv1a(buf, sizeof buf));
}

TEST(FrameCodec, ReaderNeverReadsPastTheEnd)
{
    const std::uint8_t buf[6] = {1, 2, 3, 4, 5, 6};
    FrameReader r(buf, sizeof buf);
    EXPECT_EQ(r.u32(), 0x04030201u);
    // Two bytes left: a u32 fails, yields zero and consumes the rest.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.take(0), buf + sizeof buf);
}

TEST(FrameCodec, RecordSpansAreBoundsCheckedWithoutOverflow)
{
    const std::uint8_t buf[48] = {};
    FrameReader r(buf, sizeof buf);
    EXPECT_EQ(r.take(2, 24), buf);
    EXPECT_TRUE(r.ok());

    FrameReader overflow(buf, sizeof buf);
    // count * size wraps to a small number in 64-bit arithmetic.
    EXPECT_EQ(overflow.take(std::uint64_t{1} << 61, 8), nullptr);
    EXPECT_FALSE(overflow.ok());

    FrameReader oneTooMany(buf, sizeof buf);
    EXPECT_EQ(oneTooMany.take(3, 17), nullptr);
    EXPECT_FALSE(oneTooMany.ok());
}

TEST(FrameCodec, SealedFrameVerifies)
{
    std::vector<std::uint8_t> frame = sealed({1, 2, 3});
    std::size_t len = 99;
    ASSERT_EQ(verifyFrame(kTestFrame, frame.data(), frame.size(), &len),
              FrameStatus::Ok);
    EXPECT_EQ(len, 3u);
    EXPECT_EQ(le::get<std::uint32_t>(frame.data()), kTestFrame.magic);
    EXPECT_EQ(le::get<std::uint16_t>(frame.data() + 4),
              kTestFrame.version);
    EXPECT_EQ(le::get<std::uint16_t>(frame.data() + 6), 0u);
    EXPECT_EQ(le::get<std::uint32_t>(frame.data() + 8), 3u);
    EXPECT_EQ(verify(sealed({})), FrameStatus::Ok);
}

TEST(FrameCodec, VerifyChecksInTheDocumentedOrder)
{
    std::vector<std::uint8_t> good = sealed({1, 2, 3, 4});

    // Magic before version before the CRC.
    std::vector<std::uint8_t> f = good;
    f[0] ^= 1;
    f[4] ^= 1;
    EXPECT_EQ(verify(f), FrameStatus::BadMagic);
    f = good;
    f[4] ^= 1;
    EXPECT_EQ(verify(f), FrameStatus::BadVersion);

    // The payload cap shows from the header alone, before the length
    // comparison that would call the frame Truncated.
    f.assign(good.begin(), good.begin() + kFrameHeaderSize);
    le::put(f.data() + 8, kTestFrame.maxPayload + 1);
    EXPECT_EQ(verify(f), FrameStatus::Malformed);
    le::put(f.data() + 8, kTestFrame.maxPayload);
    EXPECT_EQ(verify(f), FrameStatus::Truncated);

    // Short header, short payload, trailing byte, then the CRC.
    f.assign(good.begin(), good.begin() + kFrameHeaderSize - 1);
    EXPECT_EQ(verify(f), FrameStatus::Truncated);
    f.assign(good.begin(), good.end() - 1);
    EXPECT_EQ(verify(f), FrameStatus::Truncated);
    f = good;
    f.push_back(0);
    EXPECT_EQ(verify(f), FrameStatus::Malformed);
    f = good;
    f.back() ^= 1;
    EXPECT_EQ(verify(f), FrameStatus::BadCrc);

    // Reserved flags come last: a flipped flags byte is BadCrc, a
    // resealed nonzero one Malformed.
    f = good;
    f[6] ^= 1;
    EXPECT_EQ(verify(f), FrameStatus::BadCrc);
    f = test::withFlags(good, 0x8000);
    EXPECT_EQ(verify(f), FrameStatus::Malformed);
}

TEST(FrameCodec, StatusNamesAreStable)
{
    const char *want[kFrameStatusCount] = {
        "ok",      "truncated", "bad-magic", "bad-version",
        "bad-crc", "malformed", "io-error"};
    for (std::uint8_t s = 0; s < kFrameStatusCount; ++s) {
        EXPECT_STREQ(frameStatusName(static_cast<FrameStatus>(s)),
                     want[s]);
    }
}

// ---- one hostile-byte suite over every decoder --------------------------

/** What a decode of a corrupted image must report. */
struct Expect
{
    /** nullopt: any status but Ok. */
    std::optional<FrameStatus> status;
    /** Items that still decode (always a prefix of the originals). */
    std::size_t items = 0;
};

/** Header-field rule for flipping byte @p at of a 16-byte frame header. */
std::optional<FrameStatus>
frameHeaderFlip(std::size_t at)
{
    if (at < 4)
        return FrameStatus::BadMagic;
    if (at < 6)
        return FrameStatus::BadVersion; // before the CRC is consulted
    if (at >= 8 && at < 12)
        return std::nullopt; // length: Truncated, Malformed or BadCrc
    return FrameStatus::BadCrc; // flags, CRC field, payload
}

/** WAL record rule for flipping byte @p at of one record. */
std::optional<FrameStatus>
walRecordFlip(std::size_t at)
{
    if (at < 4)
        return FrameStatus::BadMagic;
    if (at >= 12 && at < 16)
        return std::nullopt; // frameLen
    return FrameStatus::BadCrc; // epoch, CRC field, frame
}

class HostileBytes : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        for (test::Codec &c : test::allCodecs()) {
            if (c.name == GetParam())
                codec = std::move(c);
        }
        ASSERT_EQ(codec.name, GetParam());
        Pcg32 rng(test::testSeed(), 61);
        for (int i = 0; i < 4; ++i)
            images.push_back(codec.sample(rng));
    }

    /** The rule for one flipped byte of @p img. */
    Expect
    flipRule(const test::Image &img, std::size_t at) const
    {
        if (codec.preamble == 0)
            return {frameHeaderFlip(at), 0};
        // WAL: the segment header's flags and collectorId gate no
        // record framing, so those flips replay everything.
        if (at < codec.preamble) {
            if (at < 6)
                return {frameHeaderFlip(at), 0};
            return {FrameStatus::Ok, img.items.size()};
        }
        std::size_t rec = static_cast<std::size_t>(
            std::upper_bound(img.boundaries.begin(),
                             img.boundaries.end(), at) -
            img.boundaries.begin() - 1);
        return {walRecordFlip(at - img.boundaries[rec]), rec};
    }

    /** Decode @p bytes; every item it yields must be an original. */
    test::Decoded
    decodePrefixOf(const test::Image &img,
                   const std::vector<std::uint8_t> &bytes) const
    {
        test::Decoded d = codec.decode(bytes);
        EXPECT_LE(d.items.size(), img.items.size());
        for (std::size_t i = 0;
             i < std::min(d.items.size(), img.items.size()); ++i)
            EXPECT_EQ(d.items[i], img.items[i]) << "misread item " << i;
        return d;
    }

    test::Codec codec;
    std::vector<test::Image> images;
};

TEST_P(HostileBytes, EveryTruncation)
{
    // A prefix decodes exactly the items wholly inside it; it is Ok
    // only on an item boundary and Truncated everywhere else.
    for (const test::Image &img : images) {
        for (std::size_t len = 0; len <= img.bytes.size(); ++len) {
            SCOPED_TRACE("prefix length " + std::to_string(len));
            std::vector<std::uint8_t> prefix(img.bytes.begin(),
                                             img.bytes.begin() + len);
            test::Decoded d = decodePrefixOf(img, prefix);
            bool boundary =
                std::count(img.boundaries.begin(),
                           img.boundaries.end(), len) != 0;
            // Items end at the boundaries past the WAL's bare header.
            auto complete = static_cast<std::size_t>(std::count_if(
                img.boundaries.begin(), img.boundaries.end(),
                [&](std::size_t b) {
                    return b <= len && b > codec.preamble;
                }));
            EXPECT_EQ(d.items.size(), complete);
            EXPECT_EQ(d.status, boundary ? FrameStatus::Ok
                                         : FrameStatus::Truncated);
        }
    }
}

TEST_P(HostileBytes, EveryByteFlip)
{
    for (const test::Image &img : images) {
        for (std::size_t at = 0; at < img.bytes.size(); ++at) {
            for (std::uint8_t mask : {0x01, 0x80, 0x5A, 0xA5}) {
                SCOPED_TRACE("byte " + std::to_string(at) + " mask " +
                             std::to_string(mask));
                std::vector<std::uint8_t> bad = img.bytes;
                bad[at] ^= mask;
                test::Decoded d = decodePrefixOf(img, bad);
                Expect want = flipRule(img, at);
                EXPECT_EQ(d.items.size(), want.items);
                if (want.status) {
                    EXPECT_EQ(d.status, *want.status);
                } else {
                    EXPECT_NE(d.status, FrameStatus::Ok);
                }
            }
        }
    }
}

TEST_P(HostileBytes, TrailingByteIsRejected)
{
    // A framed decoder refuses bytes past its frame; the WAL replays
    // every record and stops at the partial record header.
    for (const test::Image &img : images) {
        std::vector<std::uint8_t> bytes = img.bytes;
        bytes.push_back(0);
        test::Decoded d = decodePrefixOf(img, bytes);
        if (codec.preamble == 0) {
            EXPECT_EQ(d.status, FrameStatus::Malformed);
            EXPECT_TRUE(d.items.empty());
        } else {
            EXPECT_EQ(d.status, FrameStatus::Truncated);
            EXPECT_EQ(d.items.size(), img.items.size());
        }
    }
}

TEST_P(HostileBytes, RandomGarbageNeverDecodes)
{
    Pcg32 rng(test::testSeed(), 62);
    for (int i = 0; i < 500; ++i) {
        std::vector<std::uint8_t> junk(rng.nextBounded(200));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.next());
        EXPECT_NE(codec.decode(junk).status, FrameStatus::Ok)
            << "garbage " << i;
    }
}

TEST_P(HostileBytes, ResealedReservedFlagsAreMalformed)
{
    // Nonzero reserved flags under a valid CRC: every framed format
    // refuses the frame. The WAL's segment header is not a frame
    // header; its flags gate no record, so every record replays.
    for (const test::Image &img : images) {
        for (std::uint16_t flags : {1, 0x8000}) {
            if (codec.preamble == 0) {
                test::Decoded d =
                    decodePrefixOf(img, test::withFlags(img.bytes, flags));
                EXPECT_EQ(d.status, FrameStatus::Malformed);
                EXPECT_TRUE(d.items.empty());
            } else {
                std::vector<std::uint8_t> bytes = img.bytes;
                le::put(bytes.data() + 6, flags);
                test::Decoded d = decodePrefixOf(img, bytes);
                EXPECT_EQ(d.status, FrameStatus::Ok);
                EXPECT_EQ(d.items.size(), img.items.size());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, HostileBytes,
                         ::testing::Values("wire", "trace", "snapshot",
                                           "wal"),
                         [](const auto &p) { return p.param; });

} // namespace
} // namespace stm
