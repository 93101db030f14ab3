#include "common/serialize.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "common/format.hpp"

namespace explora::common {

namespace {

// Packed doubles and fixed64 values are copied as native bytes.
static_assert(std::endian::native == std::endian::little,
              "the binary format assumes a little-endian host");

/// Varints are LEB128, at most 10 bytes for 64 bits; the 10th byte may
/// only carry the top bit of the value.
constexpr std::size_t kMaxVarintBytes = 10;

[[nodiscard]] std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

std::string to_string(WireType type) {
  switch (type) {
    case WireType::kVarint:
      return "varint";
    case WireType::kFixed64:
      return "fixed64";
    case WireType::kBytes:
      return "bytes";
  }
  return "unknown";
}

// ---- Writer ----------------------------------------------------------------

void Writer::header(const StreamFormat& format) {
  for (std::size_t i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(format.magic >> (8 * i)));
  }
  buffer_.push_back(format.major);
  buffer_.push_back(format.minor);
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::zigzag(std::int64_t v) { varint(zigzag_encode(v)); }

void Writer::fixed64(std::uint64_t v) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
  buffer_.insert(buffer_.end(), bytes, bytes + sizeof(v));
}

void Writer::f64(double v) { fixed64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(std::span<const std::uint8_t> v) {
  varint(v.size());
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void Writer::f64_list(std::span<const double> v) {
  varint(v.size_bytes());
  const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), raw, raw + v.size_bytes());
}

void Writer::tag(std::uint32_t field_id, WireType type) {
  varint((static_cast<std::uint64_t>(field_id) << 3) |
         static_cast<std::uint64_t>(type));
}

void Writer::u64_field(std::uint32_t field_id, std::uint64_t v) {
  tag(field_id, WireType::kVarint);
  varint(v);
}

void Writer::i64_field(std::uint32_t field_id, std::int64_t v) {
  tag(field_id, WireType::kVarint);
  zigzag(v);
}

void Writer::bool_field(std::uint32_t field_id, bool v) {
  tag(field_id, WireType::kVarint);
  varint(v ? 1 : 0);
}

void Writer::f64_field(std::uint32_t field_id, double v) {
  tag(field_id, WireType::kFixed64);
  f64(v);
}

void Writer::bytes_field(std::uint32_t field_id,
                         std::span<const std::uint8_t> v) {
  tag(field_id, WireType::kBytes);
  bytes(v);
}

void Writer::string_field(std::uint32_t field_id, std::string_view v) {
  bytes_field(field_id,
              std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
}

void Writer::f64_list_field(std::uint32_t field_id,
                            std::span<const double> v) {
  tag(field_id, WireType::kBytes);
  f64_list(v);
}

std::size_t Writer::begin_sized() {
  // One byte holds the length of a body under 128 bytes; end_sized moves
  // a longer body up to make room for the rest of its varint.
  buffer_.push_back(0);
  return buffer_.size() - 1;
}

void Writer::end_sized(std::size_t start) {
  std::uint64_t size = buffer_.size() - start - 1;
  std::uint8_t prefix[kMaxVarintBytes];
  std::size_t length = 0;
  while (size >= 0x80) {
    prefix[length++] = static_cast<std::uint8_t>(size) | 0x80u;
    size >>= 7;
  }
  prefix[length++] = static_cast<std::uint8_t>(size);
  buffer_[start] = prefix[0];
  const auto body = buffer_.begin() + static_cast<std::ptrdiff_t>(start) + 1;
  buffer_.insert(body, prefix + 1, prefix + length);
}

void Writer::raw(std::span<const std::uint8_t> v) {
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void Writer::truncate(std::size_t size) noexcept {
  if (size < buffer_.size()) buffer_.resize(size);
}

// ---- Reader ----------------------------------------------------------------

void Reader::throw_truncated() { throw SerializeError("truncated input"); }

void Reader::throw_invalid_tag(std::uint64_t raw) {
  const auto type_bits = static_cast<std::uint8_t>(raw & 0x7);
  if (type_bits > static_cast<std::uint8_t>(WireType::kBytes)) {
    throw SerializeError(
        common::format("unknown wire type {} on the wire", type_bits));
  }
  throw SerializeError(
      common::format("invalid field id {} on the wire", raw >> 3));
}

std::uint8_t Reader::header(const StreamFormat& format) {
  require(6);
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  const std::uint8_t major = data_[pos_ + 4];
  const std::uint8_t minor = data_[pos_ + 5];
  pos_ += 6;
  if (magic != format.magic) {
    throw SerializeError(common::format("bad {} magic", format.name));
  }
  if (major != format.major) {
    throw SerializeError(common::format(
        "incompatible {} format: input has major version {}, this reader "
        "supports major version {}",
        format.name, major, format.major));
  }
  return minor;
}

std::uint64_t Reader::varint_multibyte() {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    require(1);
    const std::uint8_t b = data_[pos_++];
    if (i == kMaxVarintBytes - 1 && (b & ~std::uint8_t{1}) != 0) {
      throw SerializeError("varint overflows 64 bits");
    }
    value |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
    if ((b & 0x80) == 0) return value;
  }
  throw SerializeError("varint longer than 10 bytes");
}

std::int64_t Reader::zigzag() { return zigzag_decode(varint()); }

std::uint64_t Reader::fixed64() {
  require(sizeof(std::uint64_t));
  std::uint64_t value;
  std::memcpy(&value, data_.data() + pos_, sizeof(value));
  pos_ += sizeof(value);
  return value;
}

double Reader::f64() { return std::bit_cast<double>(fixed64()); }

std::span<const std::uint8_t> Reader::f64_list_bytes() {
  const auto raw = bytes();
  if (raw.size() % sizeof(double) != 0) {
    throw SerializeError(common::format(
        "packed double list of {} bytes is not a multiple of 8", raw.size()));
  }
  return raw;
}

std::vector<double> Reader::f64_list() {
  const auto raw = f64_list_bytes();
  std::vector<double> out(raw.size() / sizeof(double));
  // Empty list: data() may be null, and memcpy(null, .., 0) is UB.
  if (!out.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

void Reader::skip(WireType type) {
  switch (type) {
    case WireType::kVarint:
      (void)varint();
      return;
    case WireType::kFixed64:
      (void)fixed64();
      return;
    case WireType::kBytes:
      (void)bytes();
      return;
  }
  throw SerializeError("unknown wire type in skip");
}

// ---- files -------------------------------------------------------------------

void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path.string() + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw SerializeError(common::format("cannot open '{}' for writing", tmp));
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  // fclose flushes the buffered tail; its failure counts as a short write.
  const bool flushed = std::fclose(file) == 0;
  std::error_code ec;
  if (written != bytes.size() || !flushed) {
    std::filesystem::remove(tmp, ec);
    throw SerializeError(common::format("short write to '{}'", tmp));
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw SerializeError(common::format("cannot move '{}' into place at '{}'",
                                        tmp, path.string()));
  }
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw SerializeError(
        common::format("cannot open '{}' for reading", path.string()));
  }
  // Read straight into the buffer, doubling it until a short read. The
  // file size only sizes the first attempt: a directory has none, and a
  // file may change between the size query and the read.
  std::error_code ec;
  const std::uintmax_t size_hint = std::filesystem::file_size(path, ec);
  std::vector<std::uint8_t> bytes(ec ? 4096 : size_hint + 1);
  std::size_t size = 0;
  while (true) {
    size += std::fread(bytes.data() + size, 1, bytes.size() - size, file);
    if (size < bytes.size()) break;
    bytes.resize(2 * bytes.size());
  }
  bytes.resize(size);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    throw SerializeError(
        common::format("error reading '{}'", path.string()));
  }
  return bytes;
}

}  // namespace explora::common
