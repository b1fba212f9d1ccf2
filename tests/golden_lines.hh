/**
 * @file
 * Raw lines of a checked-in JSONL golden. Value equality with the
 * parsed golden lets a formatting drift through (`5e-01` for `0.5`
 * parses to the same double), so golden tests also compare each
 * record's dump() with its line, byte for byte.
 */

#ifndef SPECFETCH_TESTS_GOLDEN_LINES_HH_
#define SPECFETCH_TESTS_GOLDEN_LINES_HH_

#include <fstream>
#include <string>
#include <vector>

namespace specfetch {

/** The non-empty lines of @p path, without their newlines. */
inline std::vector<std::string>
readGoldenLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

} // namespace specfetch

#endif // SPECFETCH_TESTS_GOLDEN_LINES_HH_
