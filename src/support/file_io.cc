#include "support/file_io.hh"

#include <sys/mman.h>

#include <fstream>
#include <new>

namespace stm
{

PageBuffer::~PageBuffer()
{
    if (data_)
        munmap(data_, mapped_);
}

void
PageBuffer::resize(std::size_t size)
{
    if (size > mapped_) {
        if (data_)
            munmap(data_, mapped_);
        data_ = nullptr;
        size_ = mapped_ = 0;
        // Populated up front: every user fills or reads the whole
        // image, and one populating call is cheaper than a fault per
        // page.
        void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<std::uint8_t *>(p);
        mapped_ = size;
    }
    size_ = size;
}

template <typename Buffer>
bool
readWholeFile(const std::string &path, Buffer *out)
{
    out->resize(0);
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return false;
    std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0))
        return false;
    out->resize(static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char *>(out->data()), size);
    if (is.bad()) {
        out->resize(0);
        return false;
    }
    out->resize(static_cast<std::size_t>(is.gcount()));
    return true;
}

template bool readWholeFile(const std::string &,
                            std::vector<std::uint8_t> *);
template bool readWholeFile(const std::string &, PageBuffer *);

} // namespace stm
