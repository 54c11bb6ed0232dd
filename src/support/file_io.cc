#include "support/file_io.hh"

#include <filesystem>
#include <fstream>

#include "support/stats.hh"

namespace icp
{

namespace
{

const Timer io_read_timer = Metrics::global().timer("io.read");
const Timer io_write_timer = Metrics::global().timer("io.write");

} // namespace

bool
readFile(const std::string &path, std::vector<std::uint8_t> &bytes)
{
    const ScopedTimer timer(io_read_timer);
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (!in || ec)
        return false;
    bytes.resize(size);
    in.read(reinterpret_cast<char *>(bytes.data()),
            static_cast<std::streamsize>(size));
    return in.gcount() == static_cast<std::streamsize>(size);
}

bool
writeFile(const std::string &path,
          const std::vector<std::uint8_t> &bytes)
{
    const ScopedTimer timer(io_write_timer);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

} // namespace icp
