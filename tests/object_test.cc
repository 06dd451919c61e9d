#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/object.h"

namespace ditto::core {
namespace {

TEST(ObjectTest, HeaderIsEightBytes) {
  static_assert(sizeof(ObjectHeader) == 8);
  EXPECT_EQ(kChecksumOff, 8u) << "integrity word directly after the header";
  EXPECT_EQ(kExpiryOff, 16u) << "expiry word after the checksum";
  EXPECT_EQ(kExtWordsOff, 24u) << "extension words after the expiry word";
}

TEST(ObjectTest, EncodeDecodeRoundTrip) {
  std::vector<uint8_t> buf;
  EncodeObject("my-key", "my-value", nullptr, 0, &buf);
  EXPECT_EQ(buf.size() % dm::kBlockBytes, 0u) << "padded to block granularity";

  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_EQ(obj.key, "my-key");
  EXPECT_EQ(obj.value, "my-value");
  EXPECT_EQ(obj.header.ext_words, 0);
  EXPECT_EQ(obj.expiry_tick, 0u) << "no TTL by default";
}

TEST(ObjectTest, ExpiryTickRoundTripsAndCompares) {
  std::vector<uint8_t> buf;
  EncodeObject("k", "v", nullptr, 0, &buf, /*expiry_tick=*/123);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_EQ(obj.expiry_tick, 123u);
  EXPECT_FALSE(obj.ExpiredAt(122));
  EXPECT_TRUE(obj.ExpiredAt(123));
  EXPECT_TRUE(obj.ExpiredAt(10'000));
  // expiry 0 never expires.
  EncodeObject("k", "v", nullptr, 0, &buf, 0);
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_FALSE(obj.ExpiredAt(UINT64_MAX));
}

TEST(ObjectTest, ExtensionWordsPreserved) {
  const uint64_t ext[3] = {0xAAA, 0xBBB, 0xCCC};
  std::vector<uint8_t> buf;
  EncodeObject("k", "v", ext, 3, &buf);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  ASSERT_EQ(obj.header.ext_words, 3);
  EXPECT_EQ(obj.ext[0], 0xAAAu);
  EXPECT_EQ(obj.ext[1], 0xBBBu);
  EXPECT_EQ(obj.ext[2], 0xCCCu);
  EXPECT_EQ(obj.key, "k");
  EXPECT_EQ(obj.value, "v");
}

TEST(ObjectTest, EmptyKeyAndValue) {
  std::vector<uint8_t> buf;
  EncodeObject("", "", nullptr, 0, &buf);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_TRUE(obj.key.empty());
  EXPECT_TRUE(obj.value.empty());
}

TEST(ObjectTest, NullDataEmptyViewsEncode) {
  // A default-constructed string_view is empty with data() == nullptr —
  // unlike "" above, whose data() points at the literal. EncodeObject must
  // not hand that null pointer to memcpy even for a zero-byte copy (UB that
  // the UBSan leg traps via memcpy's nonnull attribute).
  std::vector<uint8_t> buf;
  EncodeObject(std::string_view(), std::string_view(), nullptr, 0, &buf);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_TRUE(obj.key.empty());
  EXPECT_TRUE(obj.value.empty());
}

TEST(ObjectTest, BlockCountMatchesSize) {
  EXPECT_EQ(ObjectBlocks(0, 0, 0), 1);       // 24-byte header+checksum+expiry
  EXPECT_EQ(ObjectBlocks(8, 32, 0), 1);      // exactly 64 bytes
  EXPECT_EQ(ObjectBlocks(8, 41, 0), 2);      // over one block
  EXPECT_EQ(ObjectBlocks(17, 232, 0), 5);    // the benches' KV pair
  EXPECT_EQ(ObjectBlocks(0, 0, 2), 1);       // 24 + 16 bytes of extensions
}

TEST(ObjectTest, DecodeRejectsTruncatedBuffers) {
  std::vector<uint8_t> buf;
  EncodeObject("some-key", std::string(100, 'x'), nullptr, 0, &buf);
  DecodedObject obj;
  EXPECT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_FALSE(DecodeObject(buf.data(), 4, &obj)) << "shorter than the header";
  EXPECT_FALSE(DecodeObject(buf.data(), 32, &obj)) << "header claims more than available";
}

// The self-verification contract behind the two-READ contended Get: a
// buffer whose immutable bytes were torn by a concurrent free/reuse fails
// DecodeObject, while the words that are legitimately rewritten in place
// after publication (expiry, extension metadata) stay outside the checksum.
TEST(ObjectTest, ChecksumRejectsTornBuffersButAllowsInPlaceWords) {
  std::vector<uint8_t> buf;
  EncodeObject("torn-key", std::string(64, 'v'), nullptr, 0, &buf, /*expiry_tick=*/5);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));

  // A single flipped value byte (another object's bytes bleeding in) fails.
  std::vector<uint8_t> torn = buf;
  torn[kExtWordsOff + 10] ^= 0x01;
  EXPECT_FALSE(DecodeObject(torn.data(), torn.size(), &obj));
  // A torn header word fails too.
  torn = buf;
  torn[0] ^= 0x01;
  EXPECT_FALSE(DecodeObject(torn.data(), torn.size(), &obj));

  // Expire's in-place expiry rewrite must NOT invalidate the object...
  std::vector<uint8_t> rearmed = buf;
  const uint64_t new_expiry = 999;
  std::memcpy(rearmed.data() + kExpiryOff, &new_expiry, 8);
  ASSERT_TRUE(DecodeObject(rearmed.data(), rearmed.size(), &obj));
  EXPECT_EQ(obj.expiry_tick, 999u);

  // ...and neither must TouchObject's in-place extension-word updates.
  std::vector<uint8_t> ext_buf;
  const uint64_t ext[2] = {1, 2};
  EncodeObject("k", "v", ext, 2, &ext_buf);
  const uint64_t updated[2] = {7, 8};
  std::memcpy(ext_buf.data() + kExtWordsOff, updated, sizeof(updated));
  ASSERT_TRUE(DecodeObject(ext_buf.data(), ext_buf.size(), &obj));
  EXPECT_EQ(obj.ext[0], 7u);
  EXPECT_EQ(obj.ext[1], 8u);
}

TEST(ObjectTest, ChecksumChangesWhenAnySingleByteFlips) {
  // ChecksumBytes folds four word lanes and a tail word; a flip in any of
  // them, at every length the lane/tail split can take, must show.
  std::vector<uint8_t> bytes(300);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(ditto::Mix64(i));
  }
  for (size_t len = 0; len <= bytes.size(); ++len) {
    const uint64_t clean = ditto::ChecksumBytes(bytes.data(), len);
    for (size_t at = 0; at < len; ++at) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        bytes[at] ^= flip;
        const uint64_t flipped = ditto::ChecksumBytes(bytes.data(), len);
        bytes[at] ^= flip;
        ASSERT_NE(flipped, clean) << "len=" << len << " at=" << at << " flip=" << int{flip};
      }
    }
  }
}

TEST(ObjectTest, DecodeRejectsAbsurdExtensionCount) {
  std::vector<uint8_t> buf(64, 0);
  ObjectHeader header{0, 0, 200};  // ext_words > kMaxExtensionWords
  std::memcpy(buf.data(), &header, sizeof(header));
  DecodedObject obj;
  EXPECT_FALSE(DecodeObject(buf.data(), buf.size(), &obj));
}

TEST(ObjectTest, LargeValuesUpToMaxRun) {
  // kMaxRunBlocks * 64 = 1024 bytes total; the 24-byte preamble + an 8-byte
  // key leave 992 for the value.
  const std::string key = "8bytekey";
  const std::string value(992, 'z');
  ASSERT_LE(ObjectBlocks(key.size(), value.size(), 0), dm::kMaxRunBlocks);
  std::vector<uint8_t> buf;
  EncodeObject(key, value, nullptr, 0, &buf);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_EQ(obj.value, value);
}

TEST(ObjectTest, BinarySafeKeysAndValues) {
  std::string key("k\0ey", 4);
  std::string value("v\0\xff\x01", 4);
  std::vector<uint8_t> buf;
  EncodeObject(key, value, nullptr, 0, &buf);
  DecodedObject obj;
  ASSERT_TRUE(DecodeObject(buf.data(), buf.size(), &obj));
  EXPECT_EQ(obj.key, key);
  EXPECT_EQ(obj.value, value);
}

}  // namespace
}  // namespace ditto::core
