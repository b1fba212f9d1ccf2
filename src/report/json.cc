#include "report/json.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace specfetch {

JsonValue
JsonValue::boolean(bool value)
{
    JsonValue v;
    v.payload = value;
    return v;
}

JsonValue
JsonValue::integer(uint64_t value)
{
    JsonValue v;
    v.payload = value;
    return v;
}

JsonValue
JsonValue::number(double value)
{
    JsonValue v;
    v.payload = value;
    return v;
}

JsonValue
JsonValue::string(std::string value)
{
    JsonValue v;
    v.payload = std::move(value);
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.payload = Members();
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.payload = Elements();
    return v;
}

JsonValue
JsonValue::raw(std::string text)
{
    JsonValue v;
    v.payload = RawText{std::move(text)};
    return v;
}

bool
JsonValue::asBool() const
{
    const bool *value = std::get_if<bool>(&payload);
    panic_if(!value, "JsonValue: not a bool");
    return *value;
}

uint64_t
JsonValue::asUint() const
{
    const uint64_t *value = std::get_if<uint64_t>(&payload);
    panic_if(!value, "JsonValue: not an integer");
    return *value;
}

double
JsonValue::asDouble() const
{
    if (const uint64_t *value = std::get_if<uint64_t>(&payload))
        return static_cast<double>(*value);
    const double *value = std::get_if<double>(&payload);
    panic_if(!value, "JsonValue: not a number");
    return *value;
}

const std::string &
JsonValue::asString() const
{
    const std::string *value = std::get_if<std::string>(&payload);
    panic_if(!value, "JsonValue: not a string");
    return *value;
}

const JsonValue::Members &
JsonValue::members() const
{
    static const Members kNone;
    const Members *members = std::get_if<Members>(&payload);
    return members ? *members : kNone;
}

const JsonValue::Elements &
JsonValue::elements() const
{
    static const Elements kNone;
    const Elements *elements = std::get_if<Elements>(&payload);
    return elements ? *elements : kNone;
}

JsonValue &
JsonValue::set(std::string key, JsonValue value)
{
    Members *members = std::get_if<Members>(&payload);
    panic_if(!members, "JsonValue: set on non-object");
    for (auto &[name, member] : *members) {
        if (name == key) {
            member = std::move(value);
            return *this;
        }
    }
    members->emplace_back(std::move(key), std::move(value));
    return *this;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[name, member] : members()) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

bool
JsonValue::remove(const std::string &key)
{
    Members *members = std::get_if<Members>(&payload);
    if (!members)
        return false;
    for (auto it = members->begin(); it != members->end(); ++it) {
        if (it->first == key) {
            members->erase(it);
            return true;
        }
    }
    return false;
}

JsonValue &
JsonValue::push(JsonValue value)
{
    Elements *elements = std::get_if<Elements>(&payload);
    panic_if(!elements, "JsonValue: push on non-array");
    elements->push_back(std::move(value));
    return *this;
}

const JsonValue &
JsonValue::at(size_t index) const
{
    const Elements *elements = std::get_if<Elements>(&payload);
    panic_if(!elements, "JsonValue: at() on non-array");
    panic_if(index >= elements->size(),
             "JsonValue: index %zu out of range", index);
    return (*elements)[index];
}

void
JsonValue::reserve(size_t count)
{
    if (Members *members = std::get_if<Members>(&payload))
        members->reserve(count);
    else if (Elements *elements = std::get_if<Elements>(&payload))
        elements->reserve(count);
}

namespace {

/**
 * For each byte: 0 when it is copied verbatim, otherwise the character
 * that follows the backslash in its RFC 8259 escape ('u' for \u00XX).
 */
constexpr std::array<char, 256> kEscapes = [] {
    std::array<char, 256> table{};
    for (size_t c = 0; c < 0x20; ++c)
        table[c] = 'u';
    table['"'] = '"';
    table['\\'] = '\\';
    table['\b'] = 'b';
    table['\f'] = 'f';
    table['\n'] = 'n';
    table['\r'] = 'r';
    table['\t'] = 't';
    return table;
}();

/** Append @p text quoted and escaped per RFC 8259. */
void
appendEscaped(std::string &out, const std::string &text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    const char *src = text.data();
    const char *end = src + text.size();
    for (;;) {
        // Copy the run of plain characters in one append.
        const char *run = src;
        while (src != end && !kEscapes[static_cast<unsigned char>(*src)])
            ++src;
        out.append(run, src);
        if (src == end)
            break;
        const unsigned char c = static_cast<unsigned char>(*src++);
        const char escaped[] = {'\\', kEscapes[c], '0', '0',
                                kHex[c >> 4], kHex[c & 0xF]};
        out.append(escaped, kEscapes[c] == 'u' ? 6 : 2);
    }
    out.push_back('"');
}

} // namespace

void
JsonValue::appendUint(std::string &out, uint64_t value)
{
    char buf[20]; // holds any uint64_t
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/** Shortest exact decimal form; always round-trips to the same bits. */
void
JsonValue::appendDouble(std::string &out, double value)
{
    // Bare "inf"/"nan" are not JSON; export as null-adjacent zero so
    // consumers never see invalid documents.
    if (!std::isfinite(value)) {
        out += "0.0";
        return;
    }
    char buf[32];
    char *end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out.append(buf, end);
    // Integral doubles must keep a decimal point, or they would
    // re-parse as Uint and break kind-strict round-trips.
    if (std::find_if(buf, end, [](char c) {
            return c == '.' || c == 'e' || c == 'E';
        }) == end) {
        out += ".0";
    }
}

std::string
JsonValue::escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    appendEscaped(out, text);
    return out;
}

void
JsonValue::dumpTo(std::string &out) const
{
    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += asBool() ? "true" : "false";
        break;
      case Kind::Uint:
        appendUint(out, asUint());
        break;
      case Kind::Double:
        appendDouble(out, asDouble());
        break;
      case Kind::String:
        appendEscaped(out, asString());
        break;
      case Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &[name, member] : members()) {
            if (!first)
                out.push_back(',');
            first = false;
            appendEscaped(out, name);
            out.push_back(':');
            member.dumpTo(out);
        }
        out.push_back('}');
        break;
      }
      case Kind::Array: {
        out.push_back('[');
        bool first = true;
        for (const JsonValue &element : elements()) {
            if (!first)
                out.push_back(',');
            first = false;
            element.dumpTo(out);
        }
        out.push_back(']');
        break;
      }
      case Kind::Raw:
        out += std::get_if<RawText>(&payload)->text;
        break;
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

bool
operator==(const JsonValue &a, const JsonValue &b)
{
    const bool raw_a = a.kind() == JsonValue::Kind::Raw;
    const bool raw_b = b.kind() == JsonValue::Kind::Raw;
    // Alternatives compare only within one kind, so integer(1) !=
    // number(1.0); doubles compare with ==, as they always have.
    if (!raw_a && !raw_b)
        return a.payload == b.payload;
    if (raw_a && raw_b && a.payload == b.payload)
        return true;
    // A Raw side compares as the value its text encodes.
    auto decoded = [](const JsonValue &raw,
                      JsonValue &out) -> const JsonValue & {
        const std::string &text =
            std::get_if<JsonValue::RawText>(&raw.payload)->text;
        panic_if(!JsonValue::parse(text, out),
                 "JsonValue: raw text is not JSON: %s", text.c_str());
        return out;
    };
    JsonValue parsed_a, parsed_b;
    return (raw_a ? decoded(a, parsed_a) : a).payload ==
           (raw_b ? decoded(b, parsed_b) : b).payload;
}

namespace {

/** Strict single-document parser over a character range. */
class Parser
{
  public:
    Parser(const std::string &_text, std::string *_error)
        : text(_text), error(_error)
    {}

    bool
    run(JsonValue &out)
    {
        skipWhitespace();
        if (!parseValue(out))
            return false;
        skipWhitespace();
        if (pos != text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error)
            *error = message + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(const char *word, JsonValue value, JsonValue &out)
    {
        size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) != 0)
            return fail("invalid literal");
        pos += len;
        out = std::move(value);
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        switch (c) {
          case '{': return nested(&Parser::parseObject, out);
          case '[': return nested(&Parser::parseArray, out);
          case '"': {
            std::string value;
            if (!parseString(value))
                return false;
            out = JsonValue::string(std::move(value));
            return true;
          }
          case 't': return literal("true", JsonValue::boolean(true), out);
          case 'f': return literal("false", JsonValue::boolean(false), out);
          case 'n': return literal("null", JsonValue::null(), out);
          default:  return parseNumber(out);
        }
    }

    /**
     * Run a container parser one level deeper; the bound keeps
     * hostile input from exhausting the stack through recursion.
     */
    bool
    nested(bool (Parser::*parseContainer)(JsonValue &), JsonValue &out)
    {
        if (depth == JsonValue::kMaxParseDepth)
            return fail("nesting too deep");
        ++depth;
        bool ok = (this->*parseContainer)(out);
        --depth;
        return ok;
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos; // '{'
        out = JsonValue::object();
        skipWhitespace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWhitespace();
            std::string key;
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            skipWhitespace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.set(std::move(key), std::move(value));
            skipWhitespace();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos; // '['
        out = JsonValue::array();
        skipWhitespace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWhitespace();
            JsonValue element;
            if (!parseValue(element))
                return false;
            out.push(std::move(element));
            skipWhitespace();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    /** Append @p codepoint (BMP only) as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned codepoint)
    {
        if (codepoint < 0x80) {
            out.push_back(static_cast<char>(codepoint));
        } else if (codepoint < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
        }
    }

    bool
    parseString(std::string &value)
    {
        ++pos; // '"'
        for (;;) {
            if (pos >= text.size())
                return fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                break;
            if (c != '\\') {
                value.push_back(c);
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            char esc = text[pos++];
            switch (esc) {
              case '"':  value.push_back('"'); break;
              case '\\': value.push_back('\\'); break;
              case '/':  value.push_back('/'); break;
              case 'b':  value.push_back('\b'); break;
              case 'f':  value.push_back('\f'); break;
              case 'n':  value.push_back('\n'); break;
              case 'r':  value.push_back('\r'); break;
              case 't':  value.push_back('\t'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned codepoint = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    codepoint <<= 4;
                    if (h >= '0' && h <= '9')
                        codepoint |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        codepoint |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        codepoint |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                if (codepoint >= 0xD800 && codepoint <= 0xDFFF)
                    return fail("surrogate escapes unsupported");
                appendUtf8(value, codepoint);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos;
        bool negative = false;
        bool integral = true;
        if (pos < text.size() && text[pos] == '-') {
            negative = true;
            ++pos;
        }
        if (pos >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[pos]))) {
            return fail("invalid number");
        }
        if (text[pos] == '0' && pos + 1 < text.size() &&
            std::isdigit(static_cast<unsigned char>(text[pos + 1]))) {
            return fail("leading zero in number");
        }
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
        if (pos < text.size() && text[pos] == '.') {
            integral = false;
            ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos]))) {
                return fail("digits required after '.'");
            }
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            integral = false;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-')) {
                ++pos;
            }
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos]))) {
                return fail("digits required in exponent");
            }
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            }
        }
        std::string token = text.substr(start, pos - start);
        if (integral && !negative) {
            uint64_t value = 0;
            auto [ptr, ec] = std::from_chars(
                token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size()) {
                out = JsonValue::integer(value);
                return true;
            }
        }
        double value = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(value)) {
            pos = start;
            return fail("number out of range");
        }
        out = JsonValue::number(value);
        return true;
    }

    const std::string &text;
    std::string *error;
    size_t pos = 0;
    size_t depth = 0;
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue &out, std::string *error)
{
    return Parser(text, error).run(out);
}

} // namespace specfetch
