/**
 * @file
 * Whole-file reads for the binary formats (snapshots, WAL segments,
 * trace dumps): one buffer sized from the file's length, filled by
 * one read, instead of a byte-at-a-time stream copy.
 */

#ifndef STM_SUPPORT_FILE_IO_HH
#define STM_SUPPORT_FILE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace stm
{

/**
 * A byte buffer in its own anonymous mapping, unmapped on
 * destruction. For large, short-lived images such as durable
 * snapshots: the malloc heap keeps a freed block's pages and fits
 * the next block wherever a hole happens to be free, so the process
 * footprint would depend on its whole allocation history.
 */
class PageBuffer
{
  public:
    /** @p size zero-filled bytes; throws std::bad_alloc on failure. */
    explicit PageBuffer(std::size_t size = 0) { resize(size); }
    ~PageBuffer();
    PageBuffer(const PageBuffer &) = delete;
    PageBuffer &operator=(const PageBuffer &) = delete;

    /**
     * Make size() @p size. Growing past the mapping maps fresh
     * zero-filled pages and drops the contents; shrinking keeps the
     * first @p size bytes.
     */
    void resize(std::size_t size);

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t mapped_ = 0;
};

/**
 * Replace @p out with the contents of @p path. Returns false (and
 * leaves @p out empty) when the file cannot be opened or the read
 * fails. A file that shrinks between sizing and reading yields the
 * bytes that were there: decoders treat a short buffer as truncation.
 * @p Buffer is std::vector<std::uint8_t> or PageBuffer.
 */
template <typename Buffer>
bool readWholeFile(const std::string &path, Buffer *out);

} // namespace stm

#endif // STM_SUPPORT_FILE_IO_HH
