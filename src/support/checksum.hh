/**
 * @file
 * Shared integrity checksums: CRC32 (IEEE 802.3, reflected) and the
 * FNV-1a 64-bit hash.
 *
 * Every support/frame_codec format (the fleet wire frame, the trace
 * dump, the ranker snapshot) and the write-ahead log record seal
 * their bytes with the same CRC, and key deduplication runs on the
 * same canonical hash; the implementations live here so the formats
 * cannot drift apart.
 *
 * On x86 CPUs with PCLMULQDQ, crc32Update folds the 16-byte multiple
 * of any input of 64 bytes or more with carry-less multiplies and
 * finishes the tail with slicing-by-8 tables; shorter inputs, other
 * CPUs and non-x86 builds use the tables throughout. The path is
 * chosen once, by runtime CPU detection, and both give identical
 * values.
 */

#ifndef STM_SUPPORT_CHECKSUM_HH
#define STM_SUPPORT_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace stm
{

/** CRC32 (IEEE 802.3, reflected polynomial) of @p size bytes. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/**
 * Streaming CRC32: fold @p size bytes into a running value. Start
 * from crc32Init() and finish with crc32Final().
 */
constexpr std::uint32_t
crc32Init()
{
    return 0xFFFFFFFFu;
}

std::uint32_t crc32Update(std::uint32_t crc, const std::uint8_t *data,
                          std::size_t size);

namespace detail
{

/**
 * The slicing-by-8 table path alone, whatever the CPU. crc32Update
 * uses it for tails and short inputs; tests call it to check the
 * table path on hosts where the folded path takes the bulk.
 */
std::uint32_t crc32UpdateTable(std::uint32_t crc,
                               const std::uint8_t *data,
                               std::size_t size);

} // namespace detail

constexpr std::uint32_t
crc32Final(std::uint32_t crc)
{
    return crc ^ 0xFFFFFFFFu;
}

/** FNV-1a offset basis / prime (64-bit). */
constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ull;

/** FNV-1a 64-bit hash of @p size bytes, continuing from @p seed. */
constexpr std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size,
      std::uint64_t seed = kFnv1aBasis)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= kFnv1aPrime;
    }
    return h;
}

} // namespace stm

#endif // STM_SUPPORT_CHECKSUM_HH
