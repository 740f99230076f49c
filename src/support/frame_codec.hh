/**
 * @file
 * The framed-record codec every binary format shares: the fleet wire
 * frame (fleet/wire_format), the trace dump (obs/trace_io), the
 * ranker snapshot (fleet/durable/snapshot) and the write-ahead log
 * (fleet/durable/wal).
 *
 * Three pieces, so each format keeps only its payload schema:
 *
 *  - little-endian byte access: le::get and le::put, a Writer over
 *    a byte sink, and a FrameReader cursor that cannot over-read;
 *  - one FrameStatus that every decoder returns;
 *  - the 16-byte frame header, sealed by sealFrame and checked by
 *    verifyFrame:
 *
 *      [magic u32][version u16][flags u16][payloadLen u32][crc32 u32]
 *      [payload: payloadLen bytes]
 *
 *    The CRC (IEEE 802.3, support/checksum) covers bytes [4, 12) —
 *    version, flags and length — plus the payload, so any corruption
 *    past the magic is caught. The flags are reserved: written 0,
 *    and a frame with any set is Malformed.
 *
 * The WAL's segment and record headers have their own shapes; it uses
 * only the byte access and FrameStatus.
 */

#ifndef STM_SUPPORT_FRAME_CODEC_HH
#define STM_SUPPORT_FRAME_CODEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "support/checksum.hh"

namespace stm
{

/** Why a decode failed (or Ok). Shared by every binary format. */
enum class FrameStatus : std::uint8_t {
    Ok,
    Truncated,  //!< fewer bytes than a header or length claims
    BadMagic,   //!< not this format
    BadVersion, //!< version this decoder does not know
    BadCrc,     //!< checksum mismatch (bit rot, tampering, torn write)
    Malformed,  //!< structure inconsistent with its length or enums
    IoError,    //!< the file could not be read or written
};
constexpr std::uint8_t kFrameStatusCount = 7;

/** Stable status name, e.g. "bad-crc" (stat names use it). */
constexpr const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
      case FrameStatus::Ok:
        return "ok";
      case FrameStatus::Truncated:
        return "truncated";
      case FrameStatus::BadMagic:
        return "bad-magic";
      case FrameStatus::BadVersion:
        return "bad-version";
      case FrameStatus::BadCrc:
        return "bad-crc";
      case FrameStatus::Malformed:
        return "malformed";
      case FrameStatus::IoError:
        return "io-error";
    }
    return "unknown";
}

/** Unchecked little-endian loads and stores; callers own the bounds. */
namespace le
{

template <typename T>
inline T
get(const std::uint8_t *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
    return v;
}

template <typename T>
inline void
put(std::uint8_t *p, T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

} // namespace le

/**
 * Byte sinks for Writer. One encoder templated over its sink serves
 * both caller memory (an arena slot or a sized buffer) and a
 * streaming FNV-1a hash that never buffers the encoding.
 */
struct RawSink
{
    std::uint8_t *p;

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
    write(const std::uint8_t *p, std::size_t n)
    {
        h = fnv1a(p, n, h);
    }
};

/** Little-endian appends over any sink. */
template <typename Sink>
class Writer
{
  public:
    explicit Writer(Sink &sink) : sink_(sink) {}

    void u8(std::uint8_t v) { sink_.write(&v, 1); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    /** u32 length prefix, then the bytes. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        sink_.write(reinterpret_cast<const std::uint8_t *>(s.data()),
                    s.size());
    }

  private:
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t b[sizeof v];
        le::put(b, v);
        sink_.write(b, sizeof b);
    }

    Sink &sink_;
};

/**
 * Bounds-checked little-endian read cursor. A read past the end
 * yields zero, consumes the rest and clears ok(), so a decoder can
 * read a run of fields and test ok() once. Record arrays are taken
 * as one span, bounds-checked once, and decoded with le::get.
 */
class FrameReader
{
  public:
    FrameReader(const std::uint8_t *data, std::size_t size)
        : p_(data), end_(data + size)
    {
    }

    bool ok() const { return ok_; }

    std::size_t
    remaining() const
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    /** The next @p n bytes, or nullptr if fewer remain. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > remaining())
            return fail();
        const std::uint8_t *q = p_;
        p_ += n;
        return q;
    }

    /** @p count records of @p size bytes each (overflow-safe). */
    const std::uint8_t *
    take(std::uint64_t count, std::size_t size)
    {
        if (count > remaining() / size)
            return fail();
        return take(static_cast<std::size_t>(count) * size);
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

  private:
    const std::uint8_t *
    fail()
    {
        ok_ = false;
        p_ = end_;
        return nullptr;
    }

    template <typename T>
    T
    get()
    {
        const std::uint8_t *q = take(sizeof(T));
        return q ? le::get<T>(q) : T{0};
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    bool ok_ = true;
};

/** Frame header size in bytes. */
constexpr std::size_t kFrameHeaderSize = 16;

/** What identifies one framed format. */
struct FrameSpec
{
    std::uint32_t magic;
    std::uint16_t version;
    /** Longer payloads are Malformed before any length comparison. */
    std::uint32_t maxPayload =
        std::numeric_limits<std::uint32_t>::max();
};

/** CRC of bytes [4, 12) of @p frame plus its @p payload_len payload. */
inline std::uint32_t
frameCrc(const std::uint8_t *frame, std::size_t payload_len)
{
    std::uint32_t c = crc32Init();
    c = crc32Update(c, frame + 4, 8);
    c = crc32Update(c, frame + kFrameHeaderSize, payload_len);
    return crc32Final(c);
}

/**
 * Write the header for the @p payload_len bytes already at
 * frame + kFrameHeaderSize (flags are reserved, always 0).
 */
inline void
sealFrame(const FrameSpec &spec, std::uint8_t *frame,
          std::size_t payload_len)
{
    le::put(frame, spec.magic);
    le::put(frame + 4, spec.version);
    le::put(frame + 6, std::uint16_t{0});
    le::put(frame + 8, static_cast<std::uint32_t>(payload_len));
    le::put(frame + 12, frameCrc(frame, payload_len));
}

/**
 * Check that @p data[0, size) is exactly one frame of @p spec, in
 * this order: Truncated (short header), BadMagic, BadVersion (before
 * the CRC: a future version may change its domain), Malformed (payload
 * over spec.maxPayload), Truncated (fewer bytes than the length
 * claims), Malformed (trailing bytes), BadCrc, Malformed (nonzero
 * reserved flags; after the CRC, so a flipped flags byte stays
 * BadCrc). On Ok, @p payload_len receives the payload length.
 */
inline FrameStatus
verifyFrame(const FrameSpec &spec, const std::uint8_t *data,
            std::size_t size, std::size_t *payload_len)
{
    if (size < kFrameHeaderSize)
        return FrameStatus::Truncated;
    if (le::get<std::uint32_t>(data) != spec.magic)
        return FrameStatus::BadMagic;
    if (le::get<std::uint16_t>(data + 4) != spec.version)
        return FrameStatus::BadVersion;
    std::uint32_t len = le::get<std::uint32_t>(data + 8);
    if (len > spec.maxPayload)
        return FrameStatus::Malformed;
    if (len > size - kFrameHeaderSize)
        return FrameStatus::Truncated;
    if (len < size - kFrameHeaderSize)
        return FrameStatus::Malformed;
    if (frameCrc(data, len) != le::get<std::uint32_t>(data + 12))
        return FrameStatus::BadCrc;
    if (le::get<std::uint16_t>(data + 6) != 0)
        return FrameStatus::Malformed;
    *payload_len = len;
    return FrameStatus::Ok;
}

} // namespace stm

#endif // STM_SUPPORT_FRAME_CODEC_HH
