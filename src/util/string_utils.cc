#include "util/string_utils.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace specfetch {

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (;;) {
        size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
trim(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::string
toLower(const std::string &text)
{
    std::string out = text;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
formatFixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
formatWithCommas(uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count != 0 && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return std::string(out.rbegin(), out.rend());
}

std::string
hexString(uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    if (value == 0)
        return "0x0";
    std::string out;
    while (value != 0) {
        out.push_back(digits[value & 0xFu]);
        value >>= 4;
    }
    out += "x0";
    return std::string(out.rbegin(), out.rend());
}

namespace {

bool
parseScaled(const std::string &text, uint64_t kilo, uint64_t &out)
{
    std::string t = trim(text);
    if (t.empty())
        return false;

    uint64_t multiplier = 1;
    char last = static_cast<char>(
        std::toupper(static_cast<unsigned char>(t.back())));
    if (last == 'K' || last == 'M' || last == 'G' || last == 'B') {
        if (last == 'B') {
            // Allow "KB"/"MB"/"GB" by dropping the B and retrying.
            t.pop_back();
            if (t.empty())
                return false;
            last = static_cast<char>(
                std::toupper(static_cast<unsigned char>(t.back())));
        }
        if (last == 'K')
            multiplier = kilo;
        else if (last == 'M')
            multiplier = kilo * kilo;
        else if (last == 'G')
            multiplier = kilo * kilo * kilo;
        if (multiplier != 1)
            t.pop_back();
        if (t.empty())
            return false;
    }

    // strtoull would silently wrap "-5" to a huge value; these
    // parsers are documented non-negative, so require a leading digit.
    if (!std::isdigit(static_cast<unsigned char>(t.front())))
        return false;

    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(t.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE)
        return false;
    // Refuse a scaled value that would wrap rather than return it
    // modulo 2^64.
    if (v > std::numeric_limits<uint64_t>::max() / multiplier)
        return false;
    out = static_cast<uint64_t>(v) * multiplier;
    return true;
}

} // namespace

bool
parseCount(const std::string &text, uint64_t &out)
{
    return parseScaled(text, 1000, out);
}

bool
parseSize(const std::string &text, uint64_t &out)
{
    return parseScaled(text, 1024, out);
}

bool
parseBool(const std::string &text, bool &out)
{
    std::string t = toLower(trim(text));
    if (t == "true" || t == "yes" || t == "on" || t == "1") {
        out = true;
        return true;
    }
    if (t == "false" || t == "no" || t == "off" || t == "0") {
        out = false;
        return true;
    }
    return false;
}

} // namespace specfetch
