/**
 * @file
 * Checksum-layer tests: the CRC-32 must match the standard IEEE
 * check value (interoperability with any external tool reading the
 * result store), hash64 must be deterministic, seed-separable and
 * avalanche-sensitive, and the hex tag must round-trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/checksum.hh"

using namespace specfetch;

TEST(Crc32, MatchesTheStandardCheckValue)
{
    // The canonical CRC-32/IEEE test vector.
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero)
{
    EXPECT_EQ(crc32(std::string()), 0u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SingleBitFlipChangesTheTag)
{
    std::string text = "the quick brown fox jumps over the lazy dog";
    uint32_t clean = crc32(text);
    for (size_t byte = 0; byte < text.size(); ++byte) {
        std::string flipped = text;
        flipped[byte] = static_cast<char>(flipped[byte] ^ 0x01);
        EXPECT_NE(crc32(flipped), clean) << "byte " << byte;
    }
}

TEST(CrcHex, RoundTripsAndIsFixedWidth)
{
    for (uint32_t value : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu, 0x00000300u}) {
        std::string hex = crcHex(value);
        EXPECT_EQ(hex.size(), 8u) << hex;
        uint32_t back = 0;
        ASSERT_TRUE(parseCrcHex(hex, back)) << hex;
        EXPECT_EQ(back, value);
    }
}

TEST(CrcHex, ParserRejectsGarbage)
{
    uint32_t out;
    EXPECT_FALSE(parseCrcHex("", out));
    EXPECT_FALSE(parseCrcHex("1234567", out));      // too short
    EXPECT_FALSE(parseCrcHex("123456789", out));    // too long
    EXPECT_FALSE(parseCrcHex("1234567g", out));     // non-hex
    EXPECT_FALSE(parseCrcHex("0x123456", out));     // no prefix form
}

TEST(Hash64, DeterministicAcrossCalls)
{
    std::string text = "record-once/replay-many";
    EXPECT_EQ(hash64(text), hash64(text));
    EXPECT_EQ(hash64(text, 7), hash64(text, 7));
}

TEST(Hash64, SeedSeparatesFamilies)
{
    std::string text = "identical input";
    EXPECT_NE(hash64(text, 1), hash64(text, 2));
}

TEST(Hash64, SensitiveToEveryByte)
{
    // All lengths through a few lanes plus tails, so both the 8-byte
    // lane path and the tail path are covered.
    for (size_t len : {1u, 3u, 7u, 8u, 9u, 16u, 17u, 31u}) {
        std::vector<uint8_t> bytes(len, 0xA5);
        uint64_t clean = hash64(bytes.data(), bytes.size());
        for (size_t i = 0; i < len; ++i) {
            bytes[i] ^= 0x10;
            EXPECT_NE(hash64(bytes.data(), bytes.size()), clean)
                << "len " << len << " byte " << i;
            bytes[i] ^= 0x10;
        }
    }
}

TEST(Hash64, EmptyInputsWithDistinctSeedsDiffer)
{
    EXPECT_NE(hash64(nullptr, 0, 1), hash64(nullptr, 0, 2));
}
