/**
 * @file
 * Whole-file reads and writes, timed as the `io.read` and `io.write`
 * spans of the process metrics registry.
 */

#ifndef ICP_SUPPORT_FILE_IO_HH
#define ICP_SUPPORT_FILE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace icp
{

/** Read all of @p path into @p bytes; false when unreadable. */
bool readFile(const std::string &path, std::vector<std::uint8_t> &bytes);

/** Replace @p path with @p bytes; false when it cannot be written. */
bool writeFile(const std::string &path,
               const std::vector<std::uint8_t> &bytes);

} // namespace icp

#endif // ICP_SUPPORT_FILE_IO_HH
