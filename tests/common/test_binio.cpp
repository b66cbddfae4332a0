// Byte-level tests for the buffer-backed binary codec (common/binio.hpp):
// the exact little-endian encoding of every primitive (these bytes are the
// snapshot and journal formats, so they are pinned literally), bounds
// checking on every truncation, the length-field bound, and the stream
// edge helpers read_all / write_all.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/binio.hpp"

namespace mlfs {
namespace {

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    if (!out.empty()) out += ' ';
    out += digits[b >> 4];
    out += digits[b & 0xf];
  }
  return out;
}

template <typename Write>
std::string encode(Write&& write) {
  std::string bytes;
  io::BinWriter w(bytes);
  write(w);
  return bytes;
}

TEST(BinWriter, PinsLittleEndianIntegers) {
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.u8(0xab); })), "ab");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.u32(0x01020304u); })), "04 03 02 01");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.u64(0x0102030405060708ull); })),
            "08 07 06 05 04 03 02 01");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.i64(-2); })), "fe ff ff ff ff ff ff ff");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) {
              w.boolean(true);
              w.boolean(false);
            })),
            "01 00");
}

TEST(BinWriter, PinsIeee754BitPatternsIncludingSpecials) {
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.f64(1.0); })), "00 00 00 00 00 00 f0 3f");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.f64(-0.0); })), "00 00 00 00 00 00 00 80");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.f64(std::numeric_limits<double>::infinity()); })),
            "00 00 00 00 00 00 f0 7f");
  EXPECT_EQ(
      hex(encode([](io::BinWriter& w) { w.f64(-std::numeric_limits<double>::infinity()); })),
      "00 00 00 00 00 00 f0 ff");
  // NaN payloads travel verbatim: a quiet NaN with a low payload bit and a
  // negative NaN with a distinctive mantissa.
  const double quiet = std::bit_cast<double>(0x7ff8000000000001ull);
  const double negative = std::bit_cast<double>(0xfff00000deadbeefull);
  EXPECT_EQ(hex(encode([&](io::BinWriter& w) { w.f64(quiet); })), "01 00 00 00 00 00 f8 7f");
  EXPECT_EQ(hex(encode([&](io::BinWriter& w) { w.f64(negative); })),
            "ef be ad de 00 00 f0 ff");
}

TEST(BinWriter, PinsLengthPrefixedStringsAndVectors) {
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.str("ab"); })),
            "02 00 00 00 00 00 00 00 61 62");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.str(""); })), "00 00 00 00 00 00 00 00");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.vec_f64({1.0, -0.0}); })),
            "02 00 00 00 00 00 00 00 "
            "00 00 00 00 00 00 f0 3f "
            "00 00 00 00 00 00 00 80");
  EXPECT_EQ(hex(encode([](io::BinWriter& w) { w.vec_u64({7}); })),
            "01 00 00 00 00 00 00 00 07 00 00 00 00 00 00 00");
}

TEST(BinWriter, BackPatchesFieldsInPlace) {
  std::string bytes = "xy";
  io::BinWriter w(bytes);  // appends after existing content
  w.u32(0);
  w.u64(0);
  w.u8(0x55);
  EXPECT_EQ(w.size(), 2u + 4u + 8u + 1u);
  w.patch_u32(2, 0xa1b2c3d4u);
  w.patch_u64(6, 9);
  EXPECT_EQ(hex(bytes), "78 79 d4 c3 b2 a1 09 00 00 00 00 00 00 00 55");
  EXPECT_THROW(w.patch_u64(8, 1), ContractViolation);  // would run past the end
}

TEST(BinReader, RoundTripsEveryPrimitiveBitExactly) {
  const double quiet = std::bit_cast<double>(0x7ff8000000000001ull);
  const std::string bytes = encode([&](io::BinWriter& w) {
    w.u8(200);
    w.u32(0xdeadbeefu);
    w.u64(~0ull);
    w.i64(std::numeric_limits<std::int64_t>::min());
    w.f64(-0.0);
    w.f64(quiet);
    w.f64(-std::numeric_limits<double>::infinity());
    w.str("payload");
    w.vec_f64({0.5, -0.0});
    w.boolean(true);
  });
  io::BinReader r(bytes);
  EXPECT_EQ(r.u8(), 200u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~0ull);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x8000000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x7ff8000000000001ull);
  EXPECT_EQ(r.f64(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.str(), "payload");
  const std::vector<double> v = r.vec_f64();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 0.5);
  EXPECT_TRUE(std::signbit(v[1]));
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.pos(), bytes.size());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinReader, TruncationAtEveryByteThrows) {
  const std::string bytes = encode([](io::BinWriter& w) {
    w.u8(1);
    w.u32(2);
    w.u64(3);
    w.i64(-4);
    w.f64(5.5);
    w.str("six");
    w.vec_f64({7.0, 8.0});
    w.vec_u64({9});
    w.boolean(true);
  });
  const auto read_all_fields = [](io::BinReader& r) {
    (void)r.u8();
    (void)r.u32();
    (void)r.u64();
    (void)r.i64();
    (void)r.f64();
    (void)r.str();
    (void)r.vec_f64();
    (void)r.vec_u64();
    (void)r.boolean();
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    io::BinReader r(std::string_view(bytes).substr(0, len));
    try {
      read_all_fields(r);
      ADD_FAILURE() << "prefix length " << len << " read without error";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("past end"), std::string::npos) << "prefix " << len;
    }
  }
  io::BinReader whole(bytes);
  read_all_fields(whole);
  EXPECT_TRUE(whole.at_end());
  EXPECT_THROW(whole.u8(), ContractViolation);
}

TEST(BinReader, OversizedLengthRejectedBeforeAllocation) {
  // One past the bound: rejected as implausible, not as a read past the
  // end, so the check ran before anything tried to size a container.
  const std::string huge = encode([](io::BinWriter& w) { w.u64((1ull << 32) + 1); });
  for (int kind = 0; kind < 3; ++kind) {
    io::BinReader r(huge);
    try {
      if (kind == 0) (void)r.str();
      if (kind == 1) (void)r.vec_f64();
      if (kind == 2) (void)r.vec_u64();
      ADD_FAILURE() << "oversized length accepted (kind " << kind << ")";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("implausibly large"), std::string::npos)
          << e.what();
    }
  }
  // Exactly the bound is plausible; with no bytes behind it, the read then
  // fails as an underrun.
  const std::string at_bound = encode([](io::BinWriter& w) { w.u64(1ull << 32); });
  io::BinReader r(at_bound);
  try {
    (void)r.str();
    ADD_FAILURE() << "underrun accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("past end"), std::string::npos) << e.what();
  }
}

TEST(BinReader, ViewServesRawBytesWithoutCopying) {
  const std::string bytes = "headerBODY";
  io::BinReader r(bytes);
  const std::string_view head = r.view(6);
  EXPECT_EQ(head, "header");
  EXPECT_EQ(head.data(), bytes.data());
  EXPECT_EQ(r.pos(), 6u);
  EXPECT_EQ(r.view(4), "BODY");
  EXPECT_THROW(r.view(1), ContractViolation);
}

TEST(BinStreams, ReadAllTakesTheRemainderOfTheStream) {
  std::string big(100000, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 7);

  std::istringstream is(big, std::ios::binary);
  is.ignore(10);
  EXPECT_EQ(io::read_all(is), big.substr(10));
  EXPECT_EQ(io::read_all(is), "");

  std::istringstream empty;
  EXPECT_EQ(io::read_all(empty), "");
}

TEST(BinStreams, WriteAllRoundTripsThroughReadAll) {
  const std::string bytes = encode([](io::BinWriter& w) {
    w.u64(42);
    w.str(std::string("a\0b", 3));
  });
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_EQ(io::write_all(ss, bytes), bytes.size());
  ASSERT_TRUE(ss.good());
  EXPECT_EQ(io::read_all(ss), bytes);
}

}  // namespace
}  // namespace mlfs
