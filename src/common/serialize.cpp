#include "common/serialize.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <system_error>

#include "common/format.hpp"

namespace explora::common {

namespace {

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host");

template <typename T>
void append_raw(std::vector<std::uint8_t>& buffer, T value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  buffer.insert(buffer.end(), bytes, bytes + sizeof(T));
}

}  // namespace

BinaryWriter::BinaryWriter(std::uint64_t magic, std::uint32_t version) {
  append_raw(buffer_, magic);
  append_raw(buffer_, version);
}

void BinaryWriter::write_u32(std::uint32_t v) { append_raw(buffer_, v); }
void BinaryWriter::write_u64(std::uint64_t v) { append_raw(buffer_, v); }
void BinaryWriter::write_i64(std::int64_t v) { append_raw(buffer_, v); }
void BinaryWriter::write_f64(double v) { append_raw(buffer_, v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void BinaryWriter::write_f64_vector(const std::vector<double>& v) {
  write_u64(v.size());
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), bytes, bytes + v.size() * sizeof(double));
}

void BinaryWriter::save(const std::filesystem::path& path) const {
  std::error_code ec;
  const auto parent = path.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (ec) throw SerializeError("cannot create directory " + parent.string());
  const auto tmp = path.string() + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) throw SerializeError("cannot open " + tmp + " for writing");
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  // close() flushes the buffered tail; its failure counts as a short write.
  out.close();
  if (!out) {
    std::filesystem::remove(tmp, ec);
    throw SerializeError("short write to " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw SerializeError("cannot move " + tmp + " into place at " +
                         path.string());
  }
}

BinaryReader::BinaryReader(std::vector<std::uint8_t> data, std::uint64_t magic,
                           std::uint32_t version)
    : data_(std::move(data)) {
  if (read_u64() != magic) throw SerializeError("bad magic header");
  const auto got = read_u32();
  if (got != version) {
    throw SerializeError(
        format("version mismatch: file has {}, expected {}", got, version));
  }
}

BinaryReader BinaryReader::load(const std::filesystem::path& path,
                                std::uint64_t magic, std::uint32_t version) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SerializeError("cannot open " + path.string());
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!in) throw SerializeError("short read from " + path.string());
  return BinaryReader(std::move(data), magic, version);
}

void BinaryReader::require(std::size_t bytes) const {
  // Overflow-safe: compare against the remaining bytes, never pos_ + bytes
  // (a hostile length field could wrap the addition).
  if (bytes > data_.size() - pos_) {
    throw SerializeError("truncated input");
  }
}

std::uint32_t BinaryReader::read_u32() {
  require(sizeof(std::uint32_t));
  std::uint32_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  require(sizeof(std::uint64_t));
  std::uint64_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::int64_t BinaryReader::read_i64() {
  require(sizeof(std::int64_t));
  std::int64_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

double BinaryReader::read_f64() {
  require(sizeof(double));
  double v;
  std::memcpy(&v, data_.data() + pos_, sizeof(v));
  pos_ += sizeof(v);
  return v;
}

std::string BinaryReader::read_string() {
  const auto size = read_u64();
  require(size);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), size);
  pos_ += size;
  return s;
}

std::vector<double> BinaryReader::read_f64_vector() {
  const auto size = read_u64();
  if (size > (data_.size() - pos_) / sizeof(double)) {
    throw SerializeError("truncated input");
  }
  std::vector<double> v(size);
  if (size != 0) {  // empty vector: data() may be null, and memcpy(null,..,0) is UB
    std::memcpy(v.data(), data_.data() + pos_, size * sizeof(double));
    pos_ += size * sizeof(double);
  }
  return v;
}

}  // namespace explora::common
