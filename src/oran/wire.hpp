// The versioned RIC message grammar (DESIGN.md §13): a field-tag/varint
// format in the spirit of protobuf wire encoding, driven by one per-type
// field list — `wire_fields(visitor, value)` — that a binary encoder, a
// strict bounds-checked decoder and a JSON view all walk. The byte-level
// primitives (header, varint, tag, packed doubles) are the project's one
// binary format in common/serialize; this file only adds the grammar:
//
//   frame   := magic:u32le major:u8 minor:u8 field*
//   field   := tag:varint value
//   tag     := field_id << 3 | wire_type      (field_id >= 1)
//   value   := varint                          (wire_type 0)
//            | fixed64                         (wire_type 1)
//            | len:varint byte[len]            (wire_type 2)
//
// Compatibility rules: a decoder skips fields it does not know (minor
// version growth is free); a frame whose *major* version differs from the
// decoder's is rejected with an error naming both versions. Decoding is
// strict: every length is bounds-checked against the remaining input,
// varints longer than 10 bytes, unknown wire types, out-of-range enum
// values and mismatched field wire types all throw common::SerializeError
// — malformed input can never touch memory out of bounds.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/fixed_vector.hpp"
#include "common/serialize.hpp"
#include "netsim/kpi.hpp"
#include "oran/data_repository.hpp"
#include "oran/messages.hpp"

namespace explora::oran::wire {

using common::Reader;
using common::SerializeError;
using common::WireType;
using common::Writer;

/// Frame magic: "EWIR" as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x52495745u;
/// Format major version: decoders reject frames with a different major.
inline constexpr std::uint8_t kWireMajor = 1;
/// Format minor version: newer minors may add fields; old decoders skip
/// them, old frames simply lack them.
inline constexpr std::uint8_t kWireMinor = 0;
inline constexpr common::StreamFormat kFrameFormat{"wire frame", kFrameMagic,
                                                   kWireMajor, kWireMinor};

// ---------------------------------------------------------------------------
// Visitors. Each serializable type defines exactly one
//   template <typename V> void wire_fields(V& v, T& value)
// listing (field_id, name, member) triples; Encoder, Decoder and JsonView
// below interpret that list. Field ids are part of the wire contract:
// never reuse or renumber them — add new ids and bump kWireMinor.
// ---------------------------------------------------------------------------

template <typename V, typename T>
void wire_fields(V& v, T& value);  // primary template: specialized below

/// Binary encoding pass over a field list.
class Encoder {
 public:
  explicit Encoder(Writer& writer) noexcept : writer_(&writer) {}

  void u64(std::uint32_t id, const char* /*name*/, std::uint64_t& v) {
    writer_->u64_field(id, v);
  }
  void u8(std::uint32_t id, const char* /*name*/, std::uint8_t& v) {
    writer_->u64_field(id, v);
  }
  void i64(std::uint32_t id, const char* /*name*/, std::int64_t& v) {
    writer_->i64_field(id, v);
  }
  void boolean(std::uint32_t id, const char* /*name*/, bool& v) {
    writer_->bool_field(id, v);
  }
  void f64(std::uint32_t id, const char* /*name*/, double& v) {
    writer_->f64_field(id, v);
  }
  /// Owned (std::string) and borrowed (std::string_view) members alike.
  void str(std::uint32_t id, const char* /*name*/, std::string_view v) {
    writer_->string_field(id, v);
  }
  template <typename E>
  void enumeration(std::uint32_t id, const char* /*name*/, E& v,
                   std::uint64_t /*max_value*/) {
    writer_->u64_field(id, static_cast<std::uint64_t>(v));
  }
  /// Heap (std::vector) and inline (common::FixedVector) lists alike.
  void f64_list(std::uint32_t id, const char* /*name*/,
                std::span<const double> v) {
    writer_->f64_list_field(id, v);
  }
  /// Owned (std::vector) and borrowed (std::span) members alike.
  void blob(std::uint32_t id, const char* /*name*/,
            std::span<const std::uint8_t> v) {
    writer_->bytes_field(id, v);
  }
  /// Writes the nested body in place, then puts its length in front.
  template <typename T>
  void msg(std::uint32_t id, const char* /*name*/, T& v) {
    writer_->tag(id, WireType::kBytes);
    const std::size_t start = writer_->begin_sized();
    wire_fields(*this, v);
    writer_->end_sized(start);
  }
  template <typename T, std::size_t N>
  void msg_array(std::uint32_t id, const char* name, std::array<T, N>& v) {
    for (T& element : v) msg(id, name, element);
  }
  template <typename T>
  void msg_list(std::uint32_t id, const char* name, std::vector<T>& v) {
    for (T& element : v) msg(id, name, element);
  }
  template <std::size_t N>
  void u32_array(std::uint32_t id, const char* /*name*/,
                 std::array<std::uint32_t, N>& v) {
    for (const std::uint32_t element : v) writer_->u64_field(id, element);
  }
  template <typename E, std::size_t N>
  void enum_array(std::uint32_t id, const char* /*name*/, std::array<E, N>& v,
                  std::uint64_t /*max_value*/) {
    for (const E element : v) {
      writer_->u64_field(id, static_cast<std::uint64_t>(element));
    }
  }
  template <typename Alt, typename... Ts>
  void variant_alt(std::uint32_t id, const char* name,
                   std::variant<Ts...>& v) {
    if (auto* alt = std::get_if<Alt>(&v)) msg(id, name, *alt);
  }

 private:
  Writer* writer_;
};

/// Occurrence counts of the repeated fields of one message being decoded,
/// keyed by field id. Only repeated fields (arrays) take a slot, so a
/// field list's few ids fit the inline table and decoding allocates
/// nothing for its bookkeeping; past kInlineCapacity ids it spills to
/// the heap.
class OccurrenceTable {
 public:
  /// Occurrences of `field_id` seen before this one; counts this one.
  [[nodiscard]] std::size_t next(std::uint32_t field_id) {
    for (std::size_t i = 0; i < inline_size_; ++i) {
      if (inline_ids_[i] == field_id) return inline_counts_[i]++;
    }
    for (auto& [id, count] : spill_) {
      if (id == field_id) return count++;
    }
    if (inline_size_ < kInlineCapacity) {
      inline_ids_[inline_size_] = field_id;
      inline_counts_[inline_size_++] = 1;
    } else {
      spill_.emplace_back(field_id, 1);
    }
    return 0;
  }

 private:
  static constexpr std::size_t kInlineCapacity = 8;
  std::array<std::uint32_t, kInlineCapacity> inline_ids_{};
  std::array<std::size_t, kInlineCapacity> inline_counts_{};
  std::size_t inline_size_ = 0;
  std::vector<std::pair<std::uint32_t, std::size_t>> spill_;
};

/// One-field match pass: constructed per incoming tag, walks the field
/// list and decodes the member whose id matches; repeated fields fill
/// the slot the message's occurrence table assigns.
class Decoder {
 public:
  Decoder(Reader& reader, std::uint32_t field_id, WireType type,
          OccurrenceTable& occurrences) noexcept
      : reader_(&reader),
        field_id_(field_id),
        type_(type),
        occurrences_(&occurrences) {}

  [[nodiscard]] bool matched() const noexcept { return matched_; }

  void u64(std::uint32_t id, const char* name, std::uint64_t& v) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    v = reader_->varint();
  }
  void u8(std::uint32_t id, const char* name, std::uint8_t& v) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    const std::uint64_t raw = reader_->varint();
    if (raw > 0xFF) throw_out_of_range(name, raw, 0xFF);
    v = static_cast<std::uint8_t>(raw);
  }
  void i64(std::uint32_t id, const char* name, std::int64_t& v) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    v = reader_->zigzag();
  }
  void boolean(std::uint32_t id, const char* name, bool& v) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    const std::uint64_t raw = reader_->varint();
    if (raw > 1) throw_out_of_range(name, raw, 1);
    v = raw != 0;
  }
  void f64(std::uint32_t id, const char* name, double& v) {
    if (!take(id)) return;
    expect(WireType::kFixed64, name);
    v = reader_->f64();
  }
  void str(std::uint32_t id, const char* name, std::string& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    const auto bytes = reader_->bytes();
    v.assign(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  /// Borrowed string: a view into the reader's input, which must outlive it.
  void str(std::uint32_t id, const char* name, std::string_view& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    const auto bytes = reader_->bytes();
    v = std::string_view(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
  }
  template <typename E>
  void enumeration(std::uint32_t id, const char* name, E& v,
                   std::uint64_t max_value) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    const std::uint64_t raw = reader_->varint();
    if (raw > max_value) throw_out_of_range(name, raw, max_value);
    v = static_cast<E>(raw);
  }
  void f64_list(std::uint32_t id, const char* name, std::vector<double>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    v = reader_->f64_list();
  }
  /// Inline list: the packed bytes are copied straight into its storage;
  /// a list longer than its capacity is rejected before any copy.
  template <std::size_t N>
  void f64_list(std::uint32_t id, const char* name,
                common::FixedVector<double, N>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    const auto raw = reader_->f64_list_bytes();
    const std::size_t count = raw.size() / sizeof(double);
    if (count > N) throw_too_many(name, N);
    v.resize(count);
    if (count > 0) std::memcpy(v.data(), raw.data(), raw.size());
  }
  void blob(std::uint32_t id, const char* name, std::vector<std::uint8_t>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    const auto bytes = reader_->bytes();
    v.assign(bytes.begin(), bytes.end());
  }
  /// Borrowed bytes: a view into the reader's input, which must outlive it.
  void blob(std::uint32_t id, const char* name,
            std::span<const std::uint8_t>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    v = reader_->bytes();
  }
  template <typename T>
  void msg(std::uint32_t id, const char* name, T& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    decode_nested(v);
  }
  template <typename T, std::size_t N>
  void msg_array(std::uint32_t id, const char* name, std::array<T, N>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    const std::size_t slot = occurrences_->next(id);
    if (slot >= N) throw_too_many(name, N);
    decode_nested(v[slot]);
  }
  template <typename T>
  void msg_list(std::uint32_t id, const char* name, std::vector<T>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    v.emplace_back();
    decode_nested(v.back());
  }
  template <std::size_t N>
  void u32_array(std::uint32_t id, const char* name,
                 std::array<std::uint32_t, N>& v) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    const std::size_t slot = occurrences_->next(id);
    if (slot >= N) throw_too_many(name, N);
    const std::uint64_t raw = reader_->varint();
    if (raw > 0xFFFFFFFFull) throw_out_of_range(name, raw, 0xFFFFFFFFull);
    v[slot] = static_cast<std::uint32_t>(raw);
  }
  template <typename E, std::size_t N>
  void enum_array(std::uint32_t id, const char* name, std::array<E, N>& v,
                  std::uint64_t max_value) {
    if (!take(id)) return;
    expect(WireType::kVarint, name);
    const std::size_t slot = occurrences_->next(id);
    if (slot >= N) throw_too_many(name, N);
    const std::uint64_t raw = reader_->varint();
    if (raw > max_value) throw_out_of_range(name, raw, max_value);
    v[slot] = static_cast<E>(raw);
  }
  template <typename Alt, typename... Ts>
  void variant_alt(std::uint32_t id, const char* name,
                   std::variant<Ts...>& v) {
    if (!take(id)) return;
    expect(WireType::kBytes, name);
    decode_nested(v.template emplace<Alt>());
  }

 private:
  [[nodiscard]] bool take(std::uint32_t id) noexcept {
    if (matched_ || id != field_id_) return false;
    matched_ = true;
    return true;
  }
  void expect(WireType type, const char* name) const {
    if (type_ != type) {
      throw SerializeError(std::string("field '") + name + "' has wire type " +
                           to_string(type_) + " (expected " + to_string(type) +
                           ")");
    }
  }
  [[noreturn]] static void throw_out_of_range(const char* name,
                                              std::uint64_t raw,
                                              std::uint64_t max_value);
  [[noreturn]] static void throw_too_many(const char* name, std::size_t max);
  template <typename T>
  void decode_nested(T& out);

  Reader* reader_;
  std::uint32_t field_id_;
  WireType type_;
  OccurrenceTable* occurrences_;
  bool matched_ = false;
};

/// Decodes tagged fields from `reader` (until end of input) into `out`.
/// Unknown field ids are skipped; repeated fields fill array slots in
/// arrival order; scalar re-occurrences are last-wins.
template <typename T>
void decode_fields(Reader& reader, T& out) {
  OccurrenceTable occurrences;
  while (!reader.at_end()) {
    const Reader::Tag tag = reader.tag();
    Decoder decoder(reader, tag.field_id, tag.type, occurrences);
    wire_fields(decoder, out);
    if (!decoder.matched()) reader.skip(tag.type);
  }
}

template <typename T>
void Decoder::decode_nested(T& out) {
  const auto bytes = reader_->bytes();
  Reader nested(bytes);
  decode_fields(nested, out);
}

/// JSON rendering pass over the same field list (the human-readable view
/// of any wire-encodable value; object keys follow field-list order).
class JsonView {
 public:
  explicit JsonView(std::string& out) noexcept : out_(&out) {}

  void u64(std::uint32_t, const char* name, std::uint64_t& v);
  void u8(std::uint32_t, const char* name, std::uint8_t& v);
  void i64(std::uint32_t, const char* name, std::int64_t& v);
  void boolean(std::uint32_t, const char* name, bool& v);
  void f64(std::uint32_t, const char* name, double& v);
  void str(std::uint32_t, const char* name, std::string& v);
  template <typename E>
  void enumeration(std::uint32_t id, const char* name, E& v,
                   std::uint64_t /*max_value*/) {
    auto raw = static_cast<std::uint64_t>(v);
    u64(id, name, raw);
  }
  void f64_list(std::uint32_t, const char* name, std::span<const double> v);
  /// Opaque bytes render as a lowercase hex string.
  void blob(std::uint32_t, const char* name, std::vector<std::uint8_t>& v);
  template <typename T>
  void msg(std::uint32_t, const char* name, T& v) {
    key(name);
    append_object(v);
  }
  template <typename T, std::size_t N>
  void msg_array(std::uint32_t, const char* name, std::array<T, N>& v) {
    key(name);
    *out_ += '[';
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) *out_ += ", ";
      append_object(v[i]);
    }
    *out_ += ']';
  }
  template <typename T>
  void msg_list(std::uint32_t, const char* name, std::vector<T>& v) {
    key(name);
    *out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) *out_ += ", ";
      append_object(v[i]);
    }
    *out_ += ']';
  }
  template <std::size_t N>
  void u32_array(std::uint32_t, const char* name,
                 std::array<std::uint32_t, N>& v) {
    key(name);
    *out_ += '[';
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) *out_ += ", ";
      append_u64(v[i]);
    }
    *out_ += ']';
  }
  template <typename E, std::size_t N>
  void enum_array(std::uint32_t, const char* name, std::array<E, N>& v,
                  std::uint64_t /*max_value*/) {
    key(name);
    *out_ += '[';
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) *out_ += ", ";
      append_u64(static_cast<std::uint64_t>(v[i]));
    }
    *out_ += ']';
  }
  template <typename Alt, typename... Ts>
  void variant_alt(std::uint32_t, const char* name, std::variant<Ts...>& v) {
    if (auto* alt = std::get_if<Alt>(&v)) {
      key(name);
      append_object(*alt);
    }
  }

 private:
  void key(const char* name);
  void append_u64(std::uint64_t v);
  template <typename T>
  void append_object(T& v) {
    *out_ += '{';
    JsonView nested(*out_);
    wire_fields(nested, v);
    *out_ += '}';
  }

  std::string* out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Frame-level API.
// ---------------------------------------------------------------------------

/// Appends one self-contained versioned frame of `value` to `writer`.
template <typename T>
void encode_frame(const T& value, Writer& writer) {
  writer.header(kFrameFormat);
  Encoder encoder(writer);
  // The encode pass only reads; the shared field list is declared on
  // mutable references so the decode pass can write through it.
  wire_fields(encoder, const_cast<T&>(value));
}

/// Encodes a value as one self-contained versioned frame.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const T& value) {
  Writer writer;
  encode_frame(value, writer);
  return std::move(writer).take();
}

/// Decodes one versioned frame. Throws SerializeError on malformed input,
/// truncation, or an incompatible major version.
template <typename T>
[[nodiscard]] T decode_frame(std::span<const std::uint8_t> data) {
  Reader reader(data);
  reader.header(kFrameFormat);
  T out{};
  decode_fields(reader, out);
  return out;
}

/// JSON view of any wire-encodable value (no frame header; a plain
/// object in field-list order).
template <typename T>
[[nodiscard]] std::string to_json(const T& value) {
  std::string out;
  out += '{';
  JsonView view(out);
  wire_fields(view, const_cast<T&>(value));
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Field lists. One definition per type; binary codec and JSON view both
// derive from it. Ids are frozen wire contract.
// ---------------------------------------------------------------------------

template <typename V>
void wire_fields(V& v, netsim::SliceKpiReport& s) {
  v.f64_list(1, "tx_bitrate_mbps", s.tx_bitrate_mbps);
  v.f64_list(2, "tx_packets", s.tx_packets);
  v.f64_list(3, "buffer_bytes", s.buffer_bytes);
}

template <typename V>
void wire_fields(V& v, netsim::KpiReport& r) {
  v.i64(1, "window_end", r.window_end);
  v.msg_array(2, "slices", r.slices);
}

template <typename V>
void wire_fields(V& v, netsim::SlicingControl& c) {
  v.u32_array(1, "prbs", c.prbs);
  v.enum_array(2, "scheduling", c.scheduling,
               netsim::kNumSchedulerPolicies - 1);
}

template <typename V>
void wire_fields(V& v, KpmIndication& m) {
  v.msg(1, "report", m.report);
}

template <typename V>
void wire_fields(V& v, RanControl& m) {
  v.msg(1, "control", m.control);
  v.u64(2, "decision_id", m.decision_id);
  v.u64(3, "seq", m.seq);
}

template <typename V>
void wire_fields(V& v, RanControlAck& m) {
  v.u64(1, "seq", m.seq);
}

template <typename V>
void wire_fields(V& v, RicMessage& m) {
  v.enumeration(1, "type", m.type, kNumMessageTypes - 1);
  v.str(2, "sender", m.sender);
  v.template variant_alt<KpmIndication>(3, "kpm", m.payload);
  v.template variant_alt<RanControl>(4, "ran_control", m.payload);
  v.template variant_alt<RanControlAck>(5, "control_ack", m.payload);
}

template <typename V>
void wire_fields(V& v, ExplanationRecord& r) {
  v.u64(1, "decision_id", r.decision_id);
  v.msg(2, "proposed", r.proposed);
  v.msg(3, "enforced", r.enforced);
  v.boolean(4, "replaced", r.replaced);
  v.str(5, "explanation", r.explanation);
}

template <typename V>
void wire_fields(V& v, DegradationRecord& r) {
  v.enumeration(1, "phase", r.phase, 3);
  v.i64(2, "detected_at", r.detected_at);
  v.u64(3, "missed_windows", r.missed_windows);
  v.u8(4, "tier_from", r.tier_from);
  v.u8(5, "tier_to", r.tier_to);
  v.str(6, "detail", r.detail);
}

// ---------------------------------------------------------------------------
// RicMessage convenience entry points (type/payload cross-validation).
// ---------------------------------------------------------------------------

/// Wire frame for one RIC message.
[[nodiscard]] std::vector<std::uint8_t> encode_message_frame(
    const RicMessage& message);

/// Decodes a RIC message frame, additionally verifying that the payload
/// alternative matches the declared message type.
[[nodiscard]] RicMessage decode_message_frame(
    std::span<const std::uint8_t> data);

}  // namespace explora::oran::wire
