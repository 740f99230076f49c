/**
 * @file
 * Whole-file reads for the binary formats (snapshots, WAL segments,
 * trace dumps): one buffer sized from the file's length, filled by
 * one read, instead of a byte-at-a-time stream copy.
 */

#ifndef STM_SUPPORT_FILE_IO_HH
#define STM_SUPPORT_FILE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace stm
{

/**
 * Replace @p out with the contents of @p path. Returns false (and
 * leaves @p out empty) when the file cannot be opened or the read
 * fails. A file that shrinks between sizing and reading yields the
 * bytes that were there: decoders treat a short buffer as truncation.
 */
bool readWholeFile(const std::string &path,
                   std::vector<std::uint8_t> *out);

} // namespace stm

#endif // STM_SUPPORT_FILE_IO_HH
