#include "support/file_io.hh"

#include <fstream>

namespace stm
{

bool
readWholeFile(const std::string &path, std::vector<std::uint8_t> *out)
{
    out->clear();
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return false;
    std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0))
        return false;
    out->resize(static_cast<std::size_t>(size));
    is.read(reinterpret_cast<char *>(out->data()), size);
    if (is.bad()) {
        out->clear();
        return false;
    }
    out->resize(static_cast<std::size_t>(is.gcount()));
    return true;
}

} // namespace stm
