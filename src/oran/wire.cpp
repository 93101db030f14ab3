#include "oran/wire.hpp"

#include "common/format.hpp"

namespace explora::oran::wire {

// ---- Decoder error helpers --------------------------------------------------

void Decoder::throw_out_of_range(const char* name, std::uint64_t raw,
                                 std::uint64_t max_value) {
  throw SerializeError(common::format(
      "field '{}' has out-of-range value {} (max {})", name, raw, max_value));
}

void Decoder::throw_too_many(const char* name, std::size_t max) {
  throw SerializeError(common::format(
      "repeated field '{}' has more than {} elements", name, max));
}

// ---- JsonView ---------------------------------------------------------------

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += common::format("\\u{:04x}", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void JsonView::key(const char* name) {
  if (!first_) *out_ += ", ";
  first_ = false;
  append_json_escaped(*out_, name);
  *out_ += ": ";
}

void JsonView::append_u64(std::uint64_t v) {
  *out_ += common::format("{}", v);
}

void JsonView::u64(std::uint32_t, const char* name, std::uint64_t& v) {
  key(name);
  append_u64(v);
}

void JsonView::u8(std::uint32_t, const char* name, std::uint8_t& v) {
  key(name);
  append_u64(v);
}

void JsonView::i64(std::uint32_t, const char* name, std::int64_t& v) {
  key(name);
  *out_ += common::format("{}", v);
}

void JsonView::boolean(std::uint32_t, const char* name, bool& v) {
  key(name);
  *out_ += v ? "true" : "false";
}

void JsonView::f64(std::uint32_t, const char* name, double& v) {
  key(name);
  *out_ += common::format("{}", v);
}

void JsonView::str(std::uint32_t, const char* name, std::string& v) {
  key(name);
  append_json_escaped(*out_, v);
}

void JsonView::blob(std::uint32_t, const char* name,
                    std::vector<std::uint8_t>& v) {
  key(name);
  static constexpr char kHex[] = "0123456789abcdef";
  *out_ += '"';
  for (const std::uint8_t b : v) {
    *out_ += kHex[b >> 4];
    *out_ += kHex[b & 0x0F];
  }
  *out_ += '"';
}

void JsonView::f64_list(std::uint32_t, const char* name,
                        std::span<const double> v) {
  key(name);
  *out_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) *out_ += ", ";
    *out_ += common::format("{}", v[i]);
  }
  *out_ += ']';
}

// ---- RicMessage entry points ------------------------------------------------

std::vector<std::uint8_t> encode_message_frame(const RicMessage& message) {
  return encode_frame(message);
}

RicMessage decode_message_frame(std::span<const std::uint8_t> data) {
  RicMessage message = decode_frame<RicMessage>(data);
  if (message.payload.index() != static_cast<std::size_t>(message.type)) {
    throw SerializeError(common::format(
        "RIC message payload does not match its declared type {}",
        to_string(message.type)));
  }
  return message;
}

}  // namespace explora::oran::wire
