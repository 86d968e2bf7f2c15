#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/io.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

std::string slurp(const std::shared_ptr<const io::Buffer>& buf) {
  return std::string(buf->data(), buf->size());
}

TEST(BufferTest, ReadFileRoundTripsBytes) {
  const std::string path = scratch_path("io_buffer_rt.bin");
  const std::string payload("ab\0cd\xFFz", 7);
  io::write_file(path, {payload.data(), payload.size()});
  const auto buf = io::Buffer::read_file(path);
  EXPECT_FALSE(buf->mapped());
  EXPECT_EQ(slurp(buf), payload);
}

TEST(BufferTest, MapFileSeesSameBytesAsRead) {
  const std::string path = scratch_path("io_buffer_map.bin");
  std::vector<char> payload(10000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>(i * 31 + 7);
  io::write_file(path, payload);
  const auto mapped = io::Buffer::map_file(path);
  const auto heap = io::Buffer::read_file(path);
  ASSERT_EQ(mapped->size(), heap->size());
  EXPECT_EQ(slurp(mapped), slurp(heap));
  EXPECT_EQ(mapped->mapped(), io::mmap_supported());
}

TEST(BufferTest, EmptyFileYieldsEmptyBuffer) {
  const std::string path = scratch_path("io_buffer_empty.bin");
  io::write_file(path, {});
  EXPECT_EQ(io::Buffer::read_file(path)->size(), 0u);
  EXPECT_EQ(io::Buffer::map_file(path)->size(), 0u);
}

TEST(BufferTest, MissingFileThrowsWithPath) {
  const std::string path = scratch_path("io_no_such_file.bin");
  for (const auto loader : {io::Buffer::read_file, io::Buffer::map_file}) {
    try {
      loader(path);
      ADD_FAILURE() << "missing file did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
}

TEST(BufferTest, MappingSurvivesUnlink) {
  // POSIX keeps a mapped file's pages alive after the name is gone; the
  // Buffer must stay readable until destruction.
  const std::string path = scratch_path("io_buffer_unlink.bin");
  const std::string payload(4096, 'q');
  io::write_file(path, {payload.data(), payload.size()});
  const auto buf = io::Buffer::map_file(path);
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_EQ(slurp(buf), payload);
}

TEST(ArrayRefTest, OwningAndViewingAgree) {
  const std::vector<double> xs{1.0, 2.5, -3.0};
  const io::ArrayRef<double> owned{std::vector<double>(xs)};
  EXPECT_FALSE(owned.is_view());
  ASSERT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned[1], 2.5);
  EXPECT_EQ(owned.to_vector(), xs);

  const io::ArrayRef<double> view{owned.span(), nullptr};
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.data(), owned.data());  // no copy
  EXPECT_EQ(view.to_vector(), xs);

  const io::ArrayRef<double> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
}

TEST(ArrayRefTest, ViewKeepsItsBufferAlive) {
  auto buf = io::Buffer::from_bytes({'a', 'b', 'c', 'd'});
  const char* raw = buf->data();
  io::ArrayRef<char> view{{raw, 4}, buf};
  buf.reset();  // the view holds the last reference now
  EXPECT_EQ(view.to_vector(), (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(ChecksumTest, SensitiveToEveryBitAndPosition) {
  std::vector<char> data(257);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>(i);
  const std::uint64_t base = bin::checksum64(data);
  EXPECT_EQ(bin::checksum64(data), base);  // deterministic
  for (const std::size_t pos : {0u, 7u, 8u, 100u, 255u, 256u}) {
    std::vector<char> flipped = data;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 1);
    EXPECT_NE(bin::checksum64(flipped), base) << "byte " << pos;
  }
  // Position-dependent: swapping two words changes the sum.
  std::vector<char> swapped = data;
  std::swap_ranges(swapped.begin(), swapped.begin() + 8, swapped.begin() + 8);
  EXPECT_NE(bin::checksum64(swapped), base);
  // Length-dependent: a truncated tail changes the sum.
  EXPECT_NE(bin::checksum64({data.data(), data.size() - 1}), base);
}

TEST(BinaryContainerTest, WriterReaderRoundTrip) {
  bin::Writer w;
  const std::vector<double> f64{1.5, -2.5, 1e300};
  const std::vector<std::int32_t> i32{-1, 0, 7};
  const std::string meta = "{\"k\":1}";
  EXPECT_EQ(w.add_array<double>(bin::Tag::kF64, f64), 0u);
  EXPECT_EQ(w.add_array<std::int32_t>(bin::Tag::kI32, i32), 1u);
  EXPECT_EQ(w.add_section(bin::Tag::kMeta, {meta.data(), meta.size()}, 1), 2u);
  const std::vector<char> file = w.finish();
  EXPECT_TRUE(bin::has_magic(file));

  const bin::Reader r(io::Buffer::from_bytes(std::vector<char>(file)));
  EXPECT_EQ(r.format_version(), bin::kFormatVersion);
  ASSERT_EQ(r.num_sections(), 3u);
  EXPECT_EQ(r.tag(0), bin::Tag::kF64);
  EXPECT_EQ(r.array<double>(0, bin::Tag::kF64).to_vector(), f64);
  EXPECT_EQ(r.array<std::int32_t>(1, bin::Tag::kI32).to_vector(), i32);
  const auto raw = r.section(2, bin::Tag::kMeta);
  EXPECT_EQ(std::string(raw.data(), raw.size()), meta);
  // Zero-copy: the typed view points into the reader's buffer.
  const auto view = r.array<double>(0, bin::Tag::kF64);
  EXPECT_TRUE(view.is_view());
  EXPECT_GE(reinterpret_cast<const char*>(view.data()), r.buffer()->data());
}

TEST(BinaryContainerTest, WriterOutputIsDeterministic) {
  const auto build = [] {
    bin::Writer w;
    const std::vector<std::uint64_t> xs{9, 8, 7};
    w.add_array<std::uint64_t>(bin::Tag::kU64, xs);
    return w.finish();
  };
  EXPECT_EQ(build(), build());
}

TEST(BinaryContainerTest, TagMismatchAndBadIndexThrow) {
  bin::Writer w;
  const std::vector<double> xs{1.0};
  w.add_array<double>(bin::Tag::kF64, xs);
  const bin::Reader r(io::Buffer::from_bytes(w.finish()));
  EXPECT_THROW(r.section(0, bin::Tag::kMeta), Error);   // wrong tag
  EXPECT_THROW(r.section(1, bin::Tag::kF64), Error);    // bad index
  EXPECT_THROW(r.array<double>(7, bin::Tag::kF64), Error);
}

TEST(BinaryContainerTest, ElementSizeMismatchThrows) {
  // A 9-byte kU8 section is not a whole number of doubles; reading it as
  // one must throw instead of slicing off a partial element.
  bin::Writer w;
  const std::vector<std::uint8_t> bytes(9, 0xAB);
  w.add_array<std::uint8_t>(bin::Tag::kU8, bytes);
  const bin::Reader r(io::Buffer::from_bytes(w.finish()));
  EXPECT_EQ(r.array<std::uint8_t>(0, bin::Tag::kU8).size(), 9u);
  EXPECT_THROW(r.array<std::uint64_t>(0, bin::Tag::kU8), Error);
}

TEST(BinaryContainerTest, NonPowerOfTwoAlignmentRejectedByWriter) {
  bin::Writer w;
  const std::string payload = "xyz";
  EXPECT_THROW(w.add_section(bin::Tag::kMeta, {payload.data(), 3}, 3), Error);
  EXPECT_THROW(w.add_section(bin::Tag::kMeta, {payload.data(), 3}, 0), Error);
}

TEST(BinaryContainerTest, HasMagicSniffsCorrectly) {
  bin::Writer w;
  const std::vector<std::uint8_t> xs{1};
  w.add_array<std::uint8_t>(bin::Tag::kU8, xs);
  EXPECT_TRUE(bin::has_magic(w.finish()));
  const std::string json = "{\"format\": \"accel-nasbench-v1\"}";
  EXPECT_FALSE(bin::has_magic({json.data(), json.size()}));
  EXPECT_FALSE(bin::has_magic({json.data(), 0}));
}

}  // namespace
}  // namespace anb
