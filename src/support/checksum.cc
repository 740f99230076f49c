#include "support/checksum.hh"

#include <array>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define STM_CRC_CLMUL 1
#include <immintrin.h>
#else
#define STM_CRC_CLMUL 0
#endif

namespace stm
{

namespace
{

/**
 * CRC32 lookup tables for the reflected IEEE 802.3 polynomial,
 * slicing-by-8: table[0] is the classic byte-wise table; table[k] is
 * table[0] composed k more times, i.e. the effect of a byte followed
 * by k zero bytes. One iteration then folds 8 input bytes with 8
 * independent table loads instead of 8 serial byte steps — the CRC
 * values are identical to the byte-wise algorithm, only the
 * factoring of the polynomial division changes.
 */
std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = tables[k - 1][n];
            tables[k][n] = tables[0][c & 0xFFu] ^ (c >> 8);
        }
    }
    return tables;
}

const std::array<std::array<std::uint32_t, 256>, 8> &
crcTables()
{
    static const auto tables = makeCrcTables();
    return tables;
}

#if STM_CRC_CLMUL

#define STM_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

STM_CLMUL_TARGET inline __m128i
loadBlock(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Move lane @p x forward by @p k's distance and add @p next. */
STM_CLMUL_TARGET inline __m128i
foldLane(__m128i x, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * Carry-less-multiply folding (Gopal et al., "Fast CRC Computation
 * for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009),
 * in the bit-reflected domain of the IEEE polynomial P.
 *
 * A 128-bit lane holding the running remainder's contribution can be
 * moved forward by n bits without dividing: multiply its two 64-bit
 * halves by x^(n+64) mod P and x^n mod P (reflected, pre-shifted by
 * one bit) and XOR the two products into the lane n bits ahead. Four
 * independent lanes fold 64 bytes per step, so the multiplier
 * latency overlaps; the lanes then fold into one, one 16-byte block
 * at a time, and the final 128 bits reduce to 64, then to 32 by
 * Barrett reduction. The result is the same remainder the table
 * walk computes, so every CRC value is bit-identical.
 *
 * @p size is a multiple of 16 and at least 64. Loads are unaligned.
 */
STM_CLMUL_TARGET std::uint32_t
crc32Fold(std::uint32_t crc, const std::uint8_t *data,
          std::size_t size)
{
    // Fold distances: {x^(512+32), x^(512-32)} steps a lane 64 bytes,
    // {x^(128+32), x^(128-32)} one 16-byte block; x^64 takes 96 bits
    // to 64. Then Barrett's {P, floor(x^64 / P)} finish the division.
    const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
    const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
    const __m128i barrett = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
    const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

    __m128i x0 = _mm_xor_si128(loadBlock(data),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x1 = loadBlock(data + 16);
    __m128i x2 = loadBlock(data + 32);
    __m128i x3 = loadBlock(data + 48);
    data += 64;
    size -= 64;
    for (; size >= 64; data += 64, size -= 64) {
        x0 = foldLane(x0, k1k2, loadBlock(data));
        x1 = foldLane(x1, k1k2, loadBlock(data + 16));
        x2 = foldLane(x2, k1k2, loadBlock(data + 32));
        x3 = foldLane(x3, k1k2, loadBlock(data + 48));
    }

    x0 = foldLane(x0, k3k4, x1);
    x0 = foldLane(x0, k3k4, x2);
    x0 = foldLane(x0, k3k4, x3);
    for (; size >= 16; data += 16, size -= 16)
        x0 = foldLane(x0, k3k4, loadBlock(data));

    // 128 -> 64 bits: the low half moves 64 bits up onto the high.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    // 96 -> 64 bits: the low 32 bits move up onto the rest.
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

    // Barrett: q = (low 32 bits) * floor(x^64 / P), then subtract q*P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                                     barrett, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

/**
 * Whether this CPU has PCLMULQDQ and SSE4.1. Decided once, on first
 * use: a namespace-scope initialiser could run before libgcc's CPU
 * probe, so the probe is forced here.
 */
bool
haveClmul()
{
    static const bool ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return ok;
}

#endif // STM_CRC_CLMUL

} // namespace

namespace detail
{

std::uint32_t
crc32UpdateTable(std::uint32_t crc, const std::uint8_t *data,
                 std::size_t size)
{
    const auto &t = crcTables();
    while (size >= 8) {
        // Endian-neutral slicing-by-8: fold the running CRC into the
        // first four bytes, then look all eight bytes up in parallel.
        std::uint32_t lo =
            crc ^ (static_cast<std::uint32_t>(data[0]) |
                   (static_cast<std::uint32_t>(data[1]) << 8) |
                   (static_cast<std::uint32_t>(data[2]) << 16) |
                   (static_cast<std::uint32_t>(data[3]) << 24));
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^
              t[0][data[7]];
        data += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc;
}

} // namespace detail

std::uint32_t
crc32Update(std::uint32_t crc, const std::uint8_t *data,
            std::size_t size)
{
#if STM_CRC_CLMUL
    if (size >= 64 && haveClmul()) {
        std::size_t bulk = size & ~std::size_t{15};
        crc = crc32Fold(crc, data, bulk);
        data += bulk;
        size -= bulk;
    }
#endif
    return detail::crc32UpdateTable(crc, data, size);
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    return crc32Final(crc32Update(crc32Init(), data, size));
}

} // namespace stm
