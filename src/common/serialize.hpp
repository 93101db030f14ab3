// The project's one binary format (DESIGN.md §13): varint / zigzag /
// fixed64 / length-prefixed bytes / packed doubles, a six-byte stream
// header and atomic whole-file I/O. RIC frames and `.etrace` files add a
// tagged field grammar on top (oran/wire); model weights are written as
// an untagged sequence of the same primitives. Every read is bounds-
// checked against the remaining input and every failure — malformed or
// truncated input, a foreign magic, an incompatible major version, an
// I/O error — throws SerializeError; malformed input can never touch
// memory out of bounds.
//
//   header  := magic:u32le major:u8 minor:u8
//   varint  := LEB128, at most 10 bytes
//   zigzag  := varint of (v << 1) ^ (v >> 63)
//   fixed64 := 8 bytes little-endian
//   bytes   := len:varint byte[len]
//   f64s    := bytes holding len / 8 little-endian IEEE-754 doubles
//   tag     := varint of field_id << 3 | wire_type      (field_id >= 1)
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace explora::common {

/// Thrown on malformed input, truncated files or version mismatches.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Identity of one binary stream kind, written as its six-byte header.
/// Readers reject a different magic or major version; a newer minor only
/// adds content an older reader can skip.
struct StreamFormat {
  const char* name;  ///< names the format in error messages
  std::uint32_t magic;
  std::uint8_t major;
  std::uint8_t minor;
};

/// The three value encodings a field tag can announce.
enum class WireType : std::uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kBytes = 2,
};

[[nodiscard]] std::string to_string(WireType type);

/// Append-only encoder.
class Writer {
 public:
  /// Stream header: magic, major and minor version.
  void header(const StreamFormat& format);

  void varint(std::uint64_t v);
  /// ZigZag-encoded signed varint (small magnitudes stay small).
  void zigzag(std::int64_t v);
  void fixed64(std::uint64_t v);
  void f64(double v);
  /// Length-prefixed bytes.
  void bytes(std::span<const std::uint8_t> v);
  /// Packed doubles: length-prefixed size * 8 raw little-endian values.
  void f64_list(std::span<const double> v);
  void tag(std::uint32_t field_id, WireType type);

  void u64_field(std::uint32_t field_id, std::uint64_t v);
  void i64_field(std::uint32_t field_id, std::int64_t v);
  void bool_field(std::uint32_t field_id, bool v);
  void f64_field(std::uint32_t field_id, double v);
  void bytes_field(std::uint32_t field_id, std::span<const std::uint8_t> v);
  void string_field(std::uint32_t field_id, std::string_view v);
  void f64_list_field(std::uint32_t field_id, std::span<const double> v);

  /// Starts a length-prefixed value written in place, for a body whose
  /// size is known only once it is written: returns the offset that
  /// end_sized takes. Write the body, then call end_sized.
  [[nodiscard]] std::size_t begin_sized();
  /// Ends the value begin_sized started at `start`, writing its length
  /// prefix; same bytes as bytes() over the body.
  void end_sized(std::size_t start);
  /// Appends bytes as they are, with no length prefix.
  void raw(std::span<const std::uint8_t> v);
  /// Drops every byte past the first `size`.
  void truncate(std::size_t size) noexcept;

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const& noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  /// Empties the buffer, keeping its capacity for the next encode.
  void clear() noexcept { buffer_.clear(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Strict sequential decoder over a borrowed byte span. The span must
/// outlive the reader.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Validates magic and major version; returns the stream's minor.
  std::uint8_t header(const StreamFormat& format);

  [[nodiscard]] std::uint64_t varint() {
    // One-byte varints (tags, short lengths, small values) are most of
    // the stream; the general loop and its errors live out of line.
    if (pos_ < data_.size() && data_[pos_] < 0x80) return data_[pos_++];
    return varint_multibyte();
  }
  [[nodiscard]] std::int64_t zigzag();
  [[nodiscard]] std::uint64_t fixed64();
  [[nodiscard]] double f64();
  /// Length-prefixed bytes; the returned span borrows from the input.
  [[nodiscard]] std::span<const std::uint8_t> bytes() {
    const std::uint64_t size = varint();
    require(size);
    const auto out = data_.subspan(pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return out;
  }
  /// Packed doubles; throws unless the length is a multiple of 8.
  [[nodiscard]] std::vector<double> f64_list();
  /// The raw little-endian bytes of a packed double list, borrowed from
  /// the input, for callers that copy them into storage of their own;
  /// throws unless the length is a multiple of 8.
  [[nodiscard]] std::span<const std::uint8_t> f64_list_bytes();

  struct Tag {
    std::uint32_t field_id = 0;
    WireType type = WireType::kVarint;
  };
  /// Reads and validates one field tag (field_id >= 1, known wire type).
  [[nodiscard]] Tag tag() {
    const std::uint64_t raw = varint();
    const std::uint64_t type_bits = raw & 0x7;
    const std::uint64_t field_id = raw >> 3;
    if (type_bits > static_cast<std::uint64_t>(WireType::kBytes) ||
        field_id == 0 || field_id > 0xFFFFFFFFull) {
      throw_invalid_tag(raw);
    }
    return Tag{static_cast<std::uint32_t>(field_id),
               static_cast<WireType>(type_bits)};
  }
  /// Skips one value of the given wire type (unknown-field tolerance).
  void skip(WireType type);

  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  void require(std::size_t n) const {
    // Overflow-safe: compare against the remaining bytes, never pos_ + n.
    if (n > remaining()) throw_truncated();
  }
  [[nodiscard]] std::uint64_t varint_multibyte();
  [[noreturn]] static void throw_truncated();
  [[noreturn]] static void throw_invalid_tag(std::uint64_t raw);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Writes `bytes` to `path` atomically: a `<path>.tmp` sibling is written,
/// flushed and renamed into place. Throws SerializeError on any failure
/// and leaves no temp file behind. The parent directory must exist.
void write_file_atomic(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes);

/// Reads a whole file. Throws SerializeError when it cannot be opened or
/// read (including when `path` names a directory).
[[nodiscard]] std::vector<std::uint8_t> read_file(
    const std::filesystem::path& path);

}  // namespace explora::common
