/**
 * @file
 * A seeded, structure-aware fuzz driver for the four decoders that
 * read untrusted bytes: the wire frame, the trace dump, the ranker
 * snapshot and the WAL segment.
 *
 * Each format gets a fixed budget of round-trip, mutation, splice and
 * truncation cases drawn from STM_TEST_SEED (test_util.hh), so a red
 * run replays exactly. Mutations are structure-aware: most mutated
 * frames are re-sealed (length and CRC recomputed) so the payload
 * parser, not the checksum, meets the hostile bytes, and WAL records
 * are rebuilt around mutated wire frames that recovery then decodes.
 * Every decode must:
 *
 *  - not crash or over-read (run under -DSTM_SANITIZE=address);
 *  - yield only canonical items: decoded values re-encode to exactly
 *    the input bytes they came from (but for the reserved flags);
 *  - pass its adapter's checks (codec_cases.hh): view == deserialize
 *    for the wire, output untouched on failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** Cases per format and mode. */
constexpr int kBudget = 4000;

/** One random edit: bit flip, boundary byte or u32, insert, erase. */
void
mutate(Pcg32 &rng, std::vector<std::uint8_t> &b)
{
    // Small values sit on the enum and flag limits of every format.
    static const std::uint8_t kBytes[] = {0x00, 0x01, 0x02, 0x03, 0x04,
                                          0x08, 0x7F, 0x80, 0xFF};
    static const std::uint32_t kWords[] = {0u, 1u, 0x7FFFFFFFu,
                                           0x80000000u, 0xFFFFFFFFu};
    std::size_t n = b.size();
    switch (rng.nextBounded(5)) {
      case 0:
        if (n != 0)
            b[rng.nextBounded(n)] ^= 1u << rng.nextBounded(8);
        break;
      case 1:
        if (n != 0)
            b[rng.nextBounded(n)] = kBytes[rng.nextBounded(9)];
        break;
      case 2: {
        if (n < 4)
            break;
        std::uint32_t v = kWords[rng.nextBounded(5)];
        if (rng.nextBool(0.3))
            v = static_cast<std::uint32_t>(n) + rng.nextBounded(3) - 1;
        le::put(b.data() + rng.nextBounded(n - 3), v);
        break;
      }
      case 3: {
        std::vector<std::uint8_t> ins(1 + rng.nextBounded(8));
        for (auto &x : ins)
            x = static_cast<std::uint8_t>(rng.next());
        b.insert(b.begin() + rng.nextBounded(n + 1), ins.begin(),
                 ins.end());
        break;
      }
      default: {
        if (n == 0)
            break;
        std::size_t at = rng.nextBounded(n);
        std::size_t len = std::min<std::size_t>(
            n - at, 1 + rng.nextBounded(8));
        b.erase(b.begin() + at, b.begin() + at + len);
        break;
      }
    }
}

/** Recompute a frame's length and CRC so its payload gets parsed. */
void
reseal(std::vector<std::uint8_t> &frame)
{
    if (frame.size() < kFrameHeaderSize)
        return;
    std::size_t len = frame.size() - kFrameHeaderSize;
    le::put(frame.data() + 8, static_cast<std::uint32_t>(len));
    le::put(frame.data() + 12, frameCrc(frame.data(), len));
}

/** The WAL record parts of @p img (its items) as (epoch, frame). */
std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
walRecords(const test::Image &img)
{
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> out;
    for (const auto &rec : img.items) {
        out.emplace_back(
            le::get<std::uint64_t>(rec.data() + 4),
            std::vector<std::uint8_t>(
                rec.begin() + fleet::kWalRecordHeaderSize, rec.end()));
    }
    return out;
}

class CodecFuzz : public ::testing::TestWithParam<std::string>
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
        stream = 0;
        for (char ch : codec.name)
            stream = stream * 31 + static_cast<unsigned char>(ch);
    }

    /**
     * Decode @p input and check that what it yields is canonical:
     * the preamble plus the items' re-encodings are a prefix of the
     * input, and all of it when the decode is Ok.
     */
    test::Decoded
    check(const std::vector<std::uint8_t> &input) const
    {
        test::Decoded d = codec.decode(input);
        // Decoders ignore the reserved flags; encoders write zero.
        std::vector<std::uint8_t> want = input;
        if (codec.preamble == 0 && d.status == FrameStatus::Ok) {
            want[6] = want[7] = 0;
            reseal(want);
        }
        std::vector<std::uint8_t> again;
        if (d.status == FrameStatus::Ok || !d.items.empty()) {
            again.assign(want.begin(),
                         want.begin() +
                             std::min(codec.preamble, want.size()));
        }
        for (const auto &item : d.items)
            again.insert(again.end(), item.begin(), item.end());
        EXPECT_LE(again.size(), want.size());
        EXPECT_TRUE(std::equal(again.begin(), again.end(),
                               want.begin()))
            << "decoded items do not re-encode to their input bytes";
        if (d.status == FrameStatus::Ok) {
            EXPECT_EQ(again.size(), want.size());
        }
        return d;
    }

    /** A structure-aware mutant of @p img. */
    std::vector<std::uint8_t>
    mutant(Pcg32 &rng, const test::Image &img) const
    {
        bool sealAfter = rng.nextBool(0.75);
        if (codec.preamble == 0) {
            std::vector<std::uint8_t> bytes = img.bytes;
            for (std::uint32_t n = 1 + rng.nextBounded(4); n != 0; --n)
                mutate(rng, bytes);
            if (sealAfter)
                reseal(bytes);
            return bytes;
        }
        // WAL: mutate one record's wire frame, optionally re-seal the
        // frame, and rebuild the record so its CRC holds; then, at
        // times, damage the segment bytes themselves.
        auto records = walRecords(img);
        std::vector<std::uint8_t> bytes(
            img.bytes.begin(), img.bytes.begin() + codec.preamble);
        std::size_t victim =
            records.empty() ? 0 : rng.nextBounded(records.size());
        for (std::size_t i = 0; i < records.size(); ++i) {
            auto &[epoch, frame] = records[i];
            if (i == victim) {
                for (std::uint32_t n = 1 + rng.nextBounded(4); n != 0;
                     --n)
                    mutate(rng, frame);
                if (sealAfter)
                    reseal(frame);
            }
            std::vector<std::uint8_t> rec =
                test::walRecordBytes(epoch, frame);
            bytes.insert(bytes.end(), rec.begin(), rec.end());
        }
        if (rng.nextBool(0.25))
            mutate(rng, bytes);
        return bytes;
    }

    /** WAL only: decode every replayed frame, as recovery does. */
    void
    decodeReplayedFrames(const std::vector<std::uint8_t> &bytes) const
    {
        if (codec.preamble == 0)
            return;
        test::Codec wire = test::wireCodec();
        fleet::replayWalBytes(bytes.data(), bytes.size(),
                              [&](const fleet::WalRecord &rec) {
                                  wire.decode(rec.frame);
                              });
    }

    test::Codec codec;
    std::uint64_t stream = 0;
};

TEST_P(CodecFuzz, RoundTrip)
{
    Pcg32 rng(test::testSeed(), stream);
    for (int i = 0; i < kBudget; ++i) {
        test::Image img = codec.sample(rng);
        test::Decoded d = check(img.bytes);
        ASSERT_EQ(d.status, FrameStatus::Ok) << "case " << i;
        EXPECT_EQ(d.items, img.items) << "case " << i;
    }
}

TEST_P(CodecFuzz, Mutation)
{
    Pcg32 rng(test::testSeed(), stream + 1);
    for (int i = 0; i < kBudget; ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        std::vector<std::uint8_t> bytes = mutant(rng, codec.sample(rng));
        check(bytes);
        decodeReplayedFrames(bytes);
    }
}

TEST_P(CodecFuzz, Splice)
{
    // The head of one encoding joined to the tail of another: counts
    // and lengths from one image now describe the other's bytes.
    Pcg32 rng(test::testSeed(), stream + 2);
    for (int i = 0; i < kBudget; ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        test::Image a = codec.sample(rng);
        test::Image b = codec.sample(rng);
        std::size_t cut = rng.nextBounded(a.bytes.size() + 1);
        std::size_t from = rng.nextBounded(b.bytes.size() + 1);
        std::vector<std::uint8_t> bytes(a.bytes.begin(),
                                        a.bytes.begin() + cut);
        bytes.insert(bytes.end(), b.bytes.begin() + from,
                     b.bytes.end());
        if (codec.preamble == 0 && rng.nextBool(0.75))
            reseal(bytes);
        check(bytes);
        decodeReplayedFrames(bytes);
    }
}

TEST_P(CodecFuzz, Truncation)
{
    Pcg32 rng(test::testSeed(), stream + 3);
    for (int i = 0; i < kBudget; ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        test::Image img = codec.sample(rng);
        std::size_t len = rng.nextBounded(img.bytes.size() + 1);
        test::Decoded d = check(
            {img.bytes.begin(), img.bytes.begin() + len});
        bool boundary = std::count(img.boundaries.begin(),
                                   img.boundaries.end(), len) != 0;
        EXPECT_EQ(d.status, boundary ? FrameStatus::Ok
                                     : FrameStatus::Truncated);
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, CodecFuzz,
                         ::testing::Values("wire", "trace", "snapshot",
                                           "wal"),
                         [](const auto &p) { return p.param; });

} // namespace
} // namespace stm
