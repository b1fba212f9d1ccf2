/**
 * @file
 * Minimal JSON document model for the results-export layer: an ordered
 * value tree, a deterministic compact serializer, and a strict
 * recursive-descent parser for round-trip tests and golden-file
 * comparison.
 *
 * Design constraints (they shape the API):
 *  - serialization must be byte-deterministic so golden files can be
 *    compared exactly: object members keep insertion order, integers
 *    print as integers, and doubles use shortest round-trip form;
 *  - unsigned 64-bit counters must survive a round trip without
 *    passing through double (budgets can push slot clocks past 2^53);
 *  - a hot encoder may write a subtree's text itself and hand it over
 *    as one pre-encoded node (Kind::Raw), using the same number
 *    formatters dump() uses, so its bytes cannot drift.
 */

#ifndef SPECFETCH_REPORT_JSON_HH_
#define SPECFETCH_REPORT_JSON_HH_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace specfetch {

/**
 * One JSON value; objects preserve member insertion order. The node is
 * a single tagged payload (40 bytes with libstdc++), so a large record
 * tree costs one small node per value.
 *
 * A Raw node holds pre-encoded JSON text that dump() appends verbatim.
 * Only in-tree encoders create one, and its text must be canonical:
 * exactly what dump() of its parse would print. parse() never yields
 * Raw; members(), find() and size() treat it as a scalar, and equality
 * compares the value its text encodes, so a raw row equals its parsed
 * golden.
 */
class JsonValue
{
  public:
    using Members = std::vector<std::pair<std::string, JsonValue>>;
    using Elements = std::vector<JsonValue>;

    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Uint,    ///< non-negative integer, exact uint64
        Double,  ///< any other number
        String,
        Object,
        Array,
        Raw,     ///< pre-encoded canonical JSON text
    };

    JsonValue() = default;

    /** @name Constructors for each kind @{ */
    static JsonValue null() { return JsonValue(); }
    static JsonValue boolean(bool value);
    static JsonValue integer(uint64_t value);
    static JsonValue number(double value);
    static JsonValue string(std::string value);
    static JsonValue object();
    static JsonValue array();
    /** Pre-encoded JSON; @p text must be canonical (see above). */
    static JsonValue raw(std::string text);
    /** @} */

    Kind kind() const { return static_cast<Kind>(payload.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isUint() const { return kind() == Kind::Uint; }
    bool isNumber() const
    {
        return kind() == Kind::Uint || kind() == Kind::Double;
    }
    bool isString() const { return kind() == Kind::String; }
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }

    /** @name Scalar access (panics on kind mismatch) @{ */
    bool asBool() const;
    uint64_t asUint() const;
    /** Numeric value of Uint or Double. */
    double asDouble() const;
    const std::string &asString() const;
    /** @} */

    /** @name Object interface @{ */
    /** Append (or overwrite) a member; returns *this for chaining. */
    JsonValue &set(std::string key, JsonValue value);
    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;
    /** Drop a member if present; true when something was removed. */
    bool remove(const std::string &key);
    /** The members in insertion order; empty unless an object. */
    const Members &members() const;
    /** @} */

    /** @name Array interface @{ */
    JsonValue &push(JsonValue value);
    /** Element count; 0 unless an array. */
    size_t size() const { return elements().size(); }
    const JsonValue &at(size_t index) const;
    /** The elements in order; empty unless an array. */
    const Elements &elements() const;
    /** @} */

    /**
     * Reserve room for @p count members (object) or elements (array),
     * so code that knows the final size grows the node once; no-op on
     * scalars.
     */
    void reserve(size_t count);

    /** Compact deterministic serialization (no whitespace). */
    std::string dump() const;

    /**
     * Append the compact serialization to @p out without clearing it
     * (dump() is this into an empty string).
     */
    void dumpTo(std::string &out) const;

    /** Deepest array/object nesting parse() accepts. */
    static constexpr size_t kMaxParseDepth = 512;

    /**
     * Parse one JSON document (leading/trailing whitespace allowed,
     * nothing else may follow). Returns false and fills @p error (when
     * given) on malformed input, on nesting deeper than
     * kMaxParseDepth, on leading zeros, and on numbers outside the
     * finite double range.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string *error = nullptr);

    /** Quote + escape a string per RFC 8259 (used by dump()). */
    static std::string escape(const std::string &text);

    /** @name dump()'s number formatters, for encoders of Raw text @{ */
    /** Append @p value as a decimal integer. */
    static void appendUint(std::string &out, uint64_t value);
    /**
     * Append @p value in its shortest round-trip form, with ".0" on
     * integral values so they re-parse as Double; non-finite values
     * print as 0.0.
     */
    static void appendDouble(std::string &out, double value);
    /** @} */

    /**
     * Deep structural equality; numbers compare exactly by kind. A Raw
     * node compares as the value its text encodes.
     */
    friend bool operator==(const JsonValue &a, const JsonValue &b);
    friend bool operator!=(const JsonValue &a, const JsonValue &b)
    {
        return !(a == b);
    }

  private:
    /** Raw's payload; a distinct type so Raw is not a String. */
    struct RawText
    {
        std::string text;
        bool operator==(const RawText &) const = default;
    };

    /** Alternatives in Kind order: kind() is the index. */
    std::variant<std::monostate, bool, uint64_t, double, std::string,
                 Members, Elements, RawText>
        payload;
};

} // namespace specfetch

#endif // SPECFETCH_REPORT_JSON_HH_
