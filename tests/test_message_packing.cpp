#include <gtest/gtest.h>

#include "core/message.hpp"
#include "core/packing.hpp"
#include "dsp/rng.hpp"

namespace spi::core {
namespace {

Bytes make_payload(std::size_t n, std::uint8_t start = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(start + i);
  return b;
}

TEST(Message, StaticRoundTrip) {
  const Bytes payload = make_payload(12);
  const Bytes wire = encode_static(7, payload);
  EXPECT_EQ(static_cast<std::int64_t>(wire.size()),
            kStaticHeaderBytes + static_cast<std::int64_t>(payload.size()));
  const Message m = decode_static(wire, 12);
  EXPECT_EQ(m.edge, 7);
  EXPECT_EQ(m.payload, payload);
}

TEST(Message, StaticLengthMismatchIsFramingError) {
  const Bytes wire = encode_static(7, make_payload(12));
  EXPECT_THROW(decode_static(wire, 11), std::runtime_error);
}

TEST(Message, DynamicRoundTrip) {
  for (std::size_t n : {0u, 1u, 17u, 4096u}) {
    const Bytes payload = make_payload(n);
    const Bytes wire = encode_dynamic(3, payload);
    EXPECT_EQ(static_cast<std::int64_t>(wire.size()),
              kDynamicHeaderBytes + static_cast<std::int64_t>(n));
    const Message m = decode_dynamic(wire);
    EXPECT_EQ(m.edge, 3);
    EXPECT_EQ(m.payload, payload);
  }
}

TEST(Message, WireBytesIncludeHeaders) {
  // Wire size = payload + the mode's header: edge id (static), edge id
  // + size (dynamic) — the per-message overhead the timed model charges.
  EXPECT_EQ(static_cast<std::int64_t>(encode_static(1, make_payload(8)).size()),
            8 + kStaticHeaderBytes);
  EXPECT_EQ(static_cast<std::int64_t>(encode_dynamic(2, make_payload(8)).size()),
            8 + kDynamicHeaderBytes);
}

TEST(Message, DynamicSizeHeaderValidated) {
  Bytes wire = encode_dynamic(3, make_payload(8));
  wire.pop_back();  // truncate the frame
  EXPECT_THROW(decode_dynamic(wire), std::runtime_error);
}

TEST(Message, TruncatedHeaderThrows) {
  const Bytes tiny{1, 2};
  EXPECT_THROW(decode_static(tiny, 0), std::runtime_error);
  EXPECT_THROW(decode_dynamic(tiny), std::runtime_error);
}

TEST(Message, InvalidEdgeRejected) {
  EXPECT_THROW(encode_static(-1, {}), std::invalid_argument);
  EXPECT_THROW(encode_dynamic(-1, {}), std::invalid_argument);
  EXPECT_THROW(encode_delimited(-1, {}), std::invalid_argument);
}

TEST(Message, DelimitedRoundTripWithStuffing) {
  // Payload containing the delimiter and escape bytes must survive.
  Bytes payload{0x00, 0x7E, 0x7D, 0xFF, 0x7E, 0x7E};
  const Bytes wire = encode_delimited(9, payload);
  std::int64_t scanned = 0;
  const Message m = decode_delimited(wire, &scanned);
  EXPECT_EQ(m.edge, 9);
  EXPECT_EQ(m.payload, payload);
  // 4 stuffed bytes expand the frame: scan cost exceeds payload size.
  EXPECT_GT(scanned, static_cast<std::int64_t>(payload.size()));
}

TEST(Message, DelimitedScanCostIsLinearInPayload) {
  std::int64_t small = 0, large = 0;
  (void)decode_delimited(encode_delimited(1, make_payload(16)), &small);
  (void)decode_delimited(encode_delimited(1, make_payload(1024)), &large);
  EXPECT_GT(large, small);
  EXPECT_GE(large, 1024);  // every byte examined — the paper's FPGA objection
}

TEST(Message, DelimitedUnterminatedThrows) {
  Bytes wire = encode_delimited(1, make_payload(4));
  wire.pop_back();  // drop the delimiter
  EXPECT_THROW(decode_delimited(wire), std::runtime_error);
}

TEST(Message, DelimitedTrailingBytesThrow) {
  Bytes wire = encode_delimited(1, make_payload(4));
  wire.push_back(0x42);
  EXPECT_THROW(decode_delimited(wire), std::runtime_error);
}

TEST(Message, HeaderSizesMatchPaper) {
  // SPI_static: edge id only. SPI_dynamic: edge id + message size.
  EXPECT_EQ(kStaticHeaderBytes, 4);
  EXPECT_EQ(kDynamicHeaderBytes, 8);
}

// --- TokenPacker -----------------------------------------------------------

TEST(TokenPacker, RoundTrip) {
  const TokenPacker packer(4, 10);
  EXPECT_EQ(packer.max_packed_bytes(), 40);
  const Bytes raw = make_payload(12);  // 3 raw tokens
  const Bytes packed = packer.pack(raw, 3);
  EXPECT_EQ(packed, raw);
  const auto tokens = packer.unpack(packed);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1], make_payload(4, 4));
}

TEST(TokenPacker, ZeroTokensLegal) {
  const TokenPacker packer(8, 4);
  const Bytes packed = packer.pack({}, 0);
  EXPECT_TRUE(packed.empty());
  EXPECT_TRUE(packer.unpack(packed).empty());
}

TEST(TokenPacker, BoundViolationIsHardError) {
  const TokenPacker packer(4, 2);
  EXPECT_THROW((void)packer.pack(make_payload(12), 3), std::length_error);
  EXPECT_THROW((void)packer.count_of(12), std::length_error);
}

TEST(TokenPacker, SizeMismatchRejected) {
  const TokenPacker packer(4, 8);
  EXPECT_THROW((void)packer.pack(make_payload(10), 3), std::invalid_argument);
  EXPECT_THROW((void)packer.unpack(make_payload(10)), std::runtime_error);
  EXPECT_THROW((void)packer.pack(make_payload(4), -1), std::invalid_argument);
}

TEST(TokenPacker, ValidatesConstruction) {
  EXPECT_THROW(TokenPacker(0, 4), std::invalid_argument);
  EXPECT_THROW(TokenPacker(4, 0), std::invalid_argument);
}

class PackingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackingProperty, RandomRoundTrips) {
  dsp::Rng rng(GetParam());
  const std::int64_t raw_bytes = rng.uniform_int(1, 16);
  const std::int64_t bound = rng.uniform_int(1, 32);
  const TokenPacker packer(raw_bytes, bound);
  for (int round = 0; round < 20; ++round) {
    const std::int64_t count = rng.uniform_int(0, bound);
    Bytes raw(static_cast<std::size_t>(count * raw_bytes));
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const Bytes packed = packer.pack(raw, count);
    // Through the dynamic wire format and back.
    const Message m = decode_dynamic(encode_dynamic(5, packed));
    const auto tokens = packer.unpack(m.payload);
    ASSERT_EQ(static_cast<std::int64_t>(tokens.size()), count);
    Bytes reassembled;
    for (const Bytes& t : tokens) reassembled.insert(reassembled.end(), t.begin(), t.end());
    EXPECT_EQ(reassembled, raw);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingProperty, ::testing::Values(3, 9, 27, 81, 243));

}  // namespace
}  // namespace spi::core
