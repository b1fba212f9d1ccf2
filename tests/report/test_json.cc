/**
 * @file
 * JsonValue serializer/parser tests: construction, escaping, exact
 * integer round-trips, structural equality, the container views of
 * every kind, in-place serialization, malformed-input rejection
 * (including the nesting bound), and the pre-encoded Raw kind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "report/json.hh"

using namespace specfetch;

TEST(Json, ScalarKinds)
{
    EXPECT_TRUE(JsonValue::null().isNull());
    EXPECT_TRUE(JsonValue::boolean(true).asBool());
    EXPECT_FALSE(JsonValue::boolean(false).asBool());
    EXPECT_EQ(JsonValue::integer(42).asUint(), 42u);
    EXPECT_DOUBLE_EQ(JsonValue::number(1.5).asDouble(), 1.5);
    EXPECT_EQ(JsonValue::string("hi").asString(), "hi");
    // Uint also reads as a double.
    EXPECT_DOUBLE_EQ(JsonValue::integer(7).asDouble(), 7.0);

    // kind() is the payload's index, so the constructors pin its order.
    using Kind = JsonValue::Kind;
    EXPECT_EQ(JsonValue().kind(), Kind::Null);
    EXPECT_EQ(JsonValue::boolean(false).kind(), Kind::Bool);
    EXPECT_EQ(JsonValue::integer(0).kind(), Kind::Uint);
    EXPECT_EQ(JsonValue::number(0.0).kind(), Kind::Double);
    EXPECT_EQ(JsonValue::string("").kind(), Kind::String);
    EXPECT_EQ(JsonValue::object().kind(), Kind::Object);
    EXPECT_EQ(JsonValue::array().kind(), Kind::Array);
}

TEST(Json, DumpCompactDeterministic)
{
    JsonValue obj = JsonValue::object();
    obj.set("b", JsonValue::integer(1))
        .set("a", JsonValue::string("x"))
        .set("nested",
             JsonValue::object().set("flag", JsonValue::boolean(false)));
    // Insertion order is preserved; no whitespace.
    EXPECT_EQ(obj.dump(), "{\"b\":1,\"a\":\"x\",\"nested\":{\"flag\":false}}");
}

TEST(Json, SetOverwritesInPlace)
{
    JsonValue obj = JsonValue::object();
    obj.set("k", JsonValue::integer(1));
    obj.set("k", JsonValue::integer(2));
    ASSERT_EQ(obj.members().size(), 1u);
    EXPECT_EQ(obj.find("k")->asUint(), 2u);

    // Keys past the small-string limit are moved in, and an overwrite
    // keeps the member's original position.
    std::string first = "first_instruction";
    std::string second = "memory_transactions";
    obj.set(std::move(first), JsonValue::integer(1))
        .set(std::move(second), JsonValue::integer(2))
        .set("first_instruction", JsonValue::string("again"));
    EXPECT_EQ(obj.dump(), "{\"k\":2,\"first_instruction\":\"again\","
                          "\"memory_transactions\":2}");
}

TEST(Json, EscapingSpecialCharacters)
{
    EXPECT_EQ(JsonValue::escape("plain"), "\"plain\"");
    EXPECT_EQ(JsonValue::escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(JsonValue::escape("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(JsonValue::escape("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(JsonValue::escape("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(JsonValue::escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, EscapedStringsRoundTrip)
{
    std::string nasty = "quote\" slash\\ nl\n tab\t ctrl\x02 end";
    JsonValue original = JsonValue::string(nasty);
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(original.dump(), parsed));
    EXPECT_EQ(parsed.asString(), nasty);
}

TEST(Json, LargeIntegersAreExact)
{
    // Larger than 2^53: would be corrupted through a double.
    uint64_t big = 9'007'199'254'740'995ull;
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(JsonValue::integer(big).dump(), parsed));
    ASSERT_TRUE(parsed.isUint());
    EXPECT_EQ(parsed.asUint(), big);
}

TEST(Json, DoublesRoundTripExactly)
{
    for (double value : {0.1, 1.0 / 3.0, 2.875, 1e-20, 3.5e18}) {
        JsonValue parsed;
        ASSERT_TRUE(
            JsonValue::parse(JsonValue::number(value).dump(), parsed));
        EXPECT_EQ(parsed.asDouble(), value);
    }
}

TEST(Json, NestedDocumentRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::string("run"))
        .set("count", JsonValue::integer(123456789))
        .set("rate", JsonValue::number(0.0625))
        .set("ok", JsonValue::boolean(true))
        .set("missing", JsonValue::null())
        .set("list", JsonValue::array()
                         .push(JsonValue::integer(1))
                         .push(JsonValue::string("two"))
                         .push(JsonValue::object().set(
                             "three", JsonValue::integer(3))));
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc.dump(), parsed, &error)) << error;
    EXPECT_EQ(parsed, doc);
    EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(Json, ParseAcceptsWhitespace)
{
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse("  { \"a\" : [ 1 , 2 ] }\n", parsed));
    EXPECT_EQ(parsed.find("a")->size(), 2u);
    EXPECT_EQ(parsed.find("a")->at(1).asUint(), 2u);
}

TEST(Json, ParseNegativeAndExponentNumbers)
{
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse("[-2.5, 1e3, -7, 0, -0.5e1, 1e-400]",
                                 parsed));
    EXPECT_DOUBLE_EQ(parsed.at(0).asDouble(), -2.5);
    EXPECT_DOUBLE_EQ(parsed.at(1).asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(parsed.at(2).asDouble(), -7.0);
    EXPECT_EQ(parsed.at(3), JsonValue::integer(0));
    EXPECT_DOUBLE_EQ(parsed.at(4).asDouble(), -5.0);
    // Underflow rounds towards zero and stays finite, so it parses.
    EXPECT_EQ(parsed.at(5).asDouble(), 0.0);
}

TEST(Json, ParseRejectsMalformedInput)
{
    // Far past the nesting bound: rejected, not a stack overflow.
    std::string deepObjects;
    for (int i = 0; i < 200'000; ++i)
        deepObjects += "{\"a\":";
    JsonValue out;
    for (const std::string &bad : std::vector<std::string>{
             "", "{", "}", "{\"a\":}", "{\"a\" 1}", "[1,]", "tru",
             "\"open", "{\"a\":1} trailing", "01a", "1.", "--3",
             "{'a':1}", "\"bad\\q\"", "\"\\u12g4\"", "01", "-01", "00",
             "[01]", "-00.5", "1e400", "-1e400", "[1e999]",
             std::string(200'000, '['), deepObjects}) {
        std::string error;
        EXPECT_FALSE(JsonValue::parse(bad, out, &error))
            << "accepted: " << bad.substr(0, 40);
        EXPECT_FALSE(error.empty());
    }
}

TEST(Json, ParseBoundsNestingDepth)
{
    const size_t limit = JsonValue::kMaxParseDepth;
    JsonValue parsed;
    std::string error;
    std::string deepest = std::string(limit, '[') + std::string(limit, ']');
    EXPECT_TRUE(JsonValue::parse(deepest, parsed, &error)) << error;

    std::string tooDeep =
        std::string(limit + 1, '[') + std::string(limit + 1, ']');
    EXPECT_FALSE(JsonValue::parse(tooDeep, parsed, &error));
    EXPECT_EQ(error, "nesting too deep at offset " + std::to_string(limit));
}

TEST(Json, EqualityIsStructural)
{
    JsonValue a = JsonValue::object().set("x", JsonValue::integer(1));
    JsonValue b = JsonValue::object().set("x", JsonValue::integer(1));
    JsonValue c = JsonValue::object().set("x", JsonValue::integer(2));
    JsonValue d = JsonValue::object().set("y", JsonValue::integer(1));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    // Kind matters: integer 1 != double 1.0 (golden files must not
    // silently change numeric kind).
    EXPECT_NE(JsonValue::integer(1), JsonValue::number(1.0));
    EXPECT_NE(JsonValue::integer(0), JsonValue::boolean(false));
    EXPECT_NE(JsonValue::string("1"), JsonValue::integer(1));
    EXPECT_NE(JsonValue::null(), JsonValue::object());
    EXPECT_NE(JsonValue::object(), JsonValue::array());
    EXPECT_EQ(JsonValue(), JsonValue::null());
}

TEST(Json, RemoveMember)
{
    JsonValue obj = JsonValue::object();
    obj.set("keep", JsonValue::integer(1))
        .set("drop", JsonValue::integer(2));
    EXPECT_TRUE(obj.remove("drop"));
    EXPECT_FALSE(obj.remove("drop"));
    EXPECT_EQ(obj.find("drop"), nullptr);
    EXPECT_NE(obj.find("keep"), nullptr);
}

TEST(Json, ContainerViewsOfOtherKindsAreEmpty)
{
    for (const JsonValue &value :
         {JsonValue::null(), JsonValue::boolean(true),
          JsonValue::integer(7), JsonValue::number(2.5),
          JsonValue::string("text"), JsonValue::array()}) {
        EXPECT_TRUE(value.members().empty());
        EXPECT_EQ(value.find("text"), nullptr);
    }
    for (const JsonValue &value :
         {JsonValue::null(), JsonValue::boolean(true),
          JsonValue::integer(7), JsonValue::number(2.5),
          JsonValue::string("text"), JsonValue::object()}) {
        EXPECT_TRUE(value.elements().empty());
        EXPECT_EQ(value.size(), 0u);
    }
}

TEST(Json, DumpToAppendsWithoutClearing)
{
    JsonValue doc = JsonValue::array()
                        .push(JsonValue::integer(1))
                        .push(JsonValue::number(2.0))
                        .push(JsonValue::string("a\"b"));
    std::string out = "prefix:";
    doc.dumpTo(out);
    EXPECT_EQ(out, "prefix:" + doc.dump());
    doc.dumpTo(out);
    EXPECT_EQ(out, "prefix:" + doc.dump() + doc.dump());
    EXPECT_EQ(doc.dump(), "[1,2.0,\"a\\\"b\"]");
}

TEST(Json, NumbersSerializeDeterministically)
{
    EXPECT_EQ(JsonValue::integer(0).dump(), "0");
    EXPECT_EQ(JsonValue::integer(UINT64_MAX).dump(), "18446744073709551615");
    EXPECT_EQ(JsonValue::number(0.0).dump(), "0.0");
    EXPECT_EQ(JsonValue::number(-0.0).dump(), "-0.0");
    EXPECT_EQ(JsonValue::number(3.0).dump(), "3.0");
    EXPECT_EQ(JsonValue::number(0.1).dump(), "0.1");
    EXPECT_EQ(JsonValue::number(1e20).dump(), "1e+20");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(JsonValue::number(inf).dump(), "0.0");
    EXPECT_EQ(JsonValue::number(-inf).dump(), "0.0");
    EXPECT_EQ(JsonValue::number(std::nan("")).dump(), "0.0");
}

TEST(Json, CopyOfNestedDocumentIsDeepAndEqual)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::string("run"))
        .set("rate", JsonValue::number(0.25))
        .set("list", JsonValue::array()
                         .push(JsonValue::integer(1))
                         .push(JsonValue::object().set(
                             "deep", JsonValue::array().push(
                                         JsonValue::boolean(true)))));
    JsonValue copy = doc;
    EXPECT_EQ(copy, doc);
    EXPECT_EQ(copy.dump(), doc.dump());
    copy.set("name", JsonValue::string("changed"));
    EXPECT_NE(copy, doc);
    EXPECT_EQ(doc.find("name")->asString(), "run");
}

// The node stays one small tagged payload with Raw added (libstdc++'s
// 32-byte std::string sets the size; other libraries differ).
#if defined(__GLIBCXX__)
static_assert(sizeof(JsonValue) == 40, "JsonValue grew");
#endif

namespace {

/** A canonical object row and its DOM, as an epoch encoder makes. */
constexpr const char *kRawRow =
    "{\"n\":18446744073709551615,\"x\":0.5,\"ok\":true,"
    "\"parts\":{\"a\":1,\"b\":2.0},\"tags\":[\"t\",null]}";

JsonValue
rawRowDom()
{
    JsonValue dom = JsonValue::object();
    dom.set("n", JsonValue::integer(UINT64_MAX))
        .set("x", JsonValue::number(0.5))
        .set("ok", JsonValue::boolean(true))
        .set("parts", JsonValue::object()
                          .set("a", JsonValue::integer(1))
                          .set("b", JsonValue::number(2.0)))
        .set("tags", JsonValue::array()
                         .push(JsonValue::string("t"))
                         .push(JsonValue::null()));
    return dom;
}

} // namespace

TEST(JsonRaw, DumpIsVerbatimAndKindIsRaw)
{
    JsonValue raw = JsonValue::raw(kRawRow);
    EXPECT_EQ(raw.kind(), JsonValue::Kind::Raw);
    EXPECT_FALSE(raw.isObject());
    EXPECT_FALSE(raw.isString());
    EXPECT_EQ(raw.dump(), kRawRow);

    // Inside a container it is appended in place like any member.
    JsonValue doc = JsonValue::array().push(JsonValue::integer(1)).push(raw);
    EXPECT_EQ(doc.dump(), std::string("[1,") + kRawRow + "]");
    std::string out = "prefix:";
    raw.dumpTo(out);
    EXPECT_EQ(out, std::string("prefix:") + kRawRow);
}

TEST(JsonRaw, EqualsTheParsedDomOfItsText)
{
    JsonValue raw = JsonValue::raw(kRawRow);
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(kRawRow, parsed));
    EXPECT_EQ(parsed, rawRowDom());
    EXPECT_EQ(raw, parsed);
    EXPECT_EQ(parsed, raw);
    EXPECT_EQ(raw, rawRowDom());

    // A different value, however close, differs: a changed member,
    // a changed numeric kind, or a missing member.
    JsonValue changed = rawRowDom();
    changed.set("x", JsonValue::number(0.25));
    EXPECT_NE(raw, changed);
    EXPECT_NE(changed, raw);
    JsonValue rekinded = rawRowDom();
    rekinded.set("parts", JsonValue::object()
                              .set("a", JsonValue::integer(1))
                              .set("b", JsonValue::integer(2)));
    EXPECT_NE(raw, rekinded);
    JsonValue shorter = rawRowDom();
    shorter.remove("tags");
    EXPECT_NE(raw, shorter);
    EXPECT_NE(JsonValue::raw("1"), JsonValue::number(1.0));
    EXPECT_EQ(JsonValue::raw("1"), JsonValue::integer(1));

    // Nested raw nodes compare through their containers too.
    JsonValue holder = JsonValue::array().push(raw);
    JsonValue golden = JsonValue::array().push(rawRowDom());
    EXPECT_EQ(holder, golden);
    EXPECT_NE(holder, JsonValue::array().push(changed));
}

TEST(JsonRaw, RawsCompareByValue)
{
    EXPECT_EQ(JsonValue::raw(kRawRow), JsonValue::raw(kRawRow));
    EXPECT_EQ(JsonValue::raw("[1,2]"), JsonValue::raw("[1, 2]"));
    EXPECT_NE(JsonValue::raw("[1,2]"), JsonValue::raw("[1,3]"));
    EXPECT_NE(JsonValue::raw("{\"a\":1}"), JsonValue::raw("{\"a\":1.0}"));
}

TEST(JsonRaw, ContainerViewsTreatItAsAScalar)
{
    JsonValue raw = JsonValue::raw(kRawRow);
    EXPECT_TRUE(raw.members().empty());
    EXPECT_EQ(raw.find("n"), nullptr);
    EXPECT_EQ(raw.size(), 0u);
    EXPECT_TRUE(raw.elements().empty());
    EXPECT_FALSE(raw.remove("n"));
    raw.reserve(8); // no-op, as on every scalar
    EXPECT_EQ(raw.dump(), kRawRow);

    JsonValue array = JsonValue::raw("[1,2,3]");
    EXPECT_EQ(array.size(), 0u);
    EXPECT_TRUE(array.elements().empty());
}

TEST(JsonRaw, ParseNeverYieldsRaw)
{
    for (const char *text :
         {kRawRow, "[1,{\"a\":[2.5,\"s\"]}]", "7", "\"s\"", "null"}) {
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(text, parsed)) << text;
        std::vector<const JsonValue *> pending{&parsed};
        while (!pending.empty()) {
            const JsonValue *node = pending.back();
            pending.pop_back();
            EXPECT_NE(node->kind(), JsonValue::Kind::Raw) << text;
            for (const auto &member : node->members())
                pending.push_back(&member.second);
            for (const JsonValue &element : node->elements())
                pending.push_back(&element);
        }
    }
}

TEST(JsonRaw, CopyAndMoveKeepTheText)
{
    JsonValue raw = JsonValue::raw(kRawRow);
    JsonValue copy = raw;
    EXPECT_EQ(copy.kind(), JsonValue::Kind::Raw);
    EXPECT_EQ(copy.dump(), kRawRow);
    EXPECT_EQ(raw.dump(), kRawRow);

    JsonValue moved = std::move(copy);
    EXPECT_EQ(moved.kind(), JsonValue::Kind::Raw);
    EXPECT_EQ(moved.dump(), kRawRow);

    JsonValue assigned = JsonValue::integer(3);
    assigned = raw;
    EXPECT_EQ(assigned.dump(), kRawRow);
    assigned = JsonValue::integer(3);
    EXPECT_EQ(assigned.dump(), "3");
    EXPECT_EQ(raw.dump(), kRawRow);
}

TEST(JsonRaw, NumberFormattersMatchDump)
{
    for (uint64_t value : {uint64_t{0}, uint64_t{7}, uint64_t{1} << 53,
                           UINT64_MAX - 1, UINT64_MAX}) {
        // Appends after what is already there, like dumpTo().
        std::string out = "x", want = "x";
        JsonValue::appendUint(out, value);
        JsonValue::integer(value).dumpTo(want);
        EXPECT_EQ(out, want);
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (double value : {0.0, -0.0, 1.0, 0.5, 0.1, 1e20, 3.6900000000000004,
                         1e-300, inf, std::nan("")}) {
        std::string out = "x", want = "x";
        JsonValue::appendDouble(out, value);
        JsonValue::number(value).dumpTo(want);
        EXPECT_EQ(out, want);
    }
}
