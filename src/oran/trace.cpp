#include "oran/trace.hpp"

#include <utility>

#include "oran/wire.hpp"

namespace explora::oran::wire {
namespace {

/// Trace-file header payload (field ids are frozen wire contract).
struct TraceHeader {
  std::string label;
};

}  // namespace

template <typename V>
void wire_fields(V& v, TraceHeader& h) {
  v.str(1, "label", h.label);
}

template <typename V>
void wire_fields(V& v, TraceFrame& f) {
  v.i64(1, "tick", f.tick);
  v.u64(2, "round", f.round);
  v.str(3, "target", f.target);
  v.blob(4, "message", f.message);
}

}  // namespace explora::oran::wire

namespace explora::oran {

RicMessage TraceFrame::decode() const {
  return wire::decode_message_frame(message);
}

TraceRecorder::TraceRecorder(std::string label) : label_(std::move(label)) {}

void TraceRecorder::on_deliver(const RicMessage& message,
                               std::string_view target, std::uint64_t round) {
  TraceFrame frame;
  frame.tick = tick_source_ ? tick_source_() : 0;
  frame.round = round;
  frame.target.assign(target);
  frame.message = wire::encode_message_frame(message);
  message_bytes_ += frame.message.size();
  frames_.push_back(std::move(frame));
}

namespace {

/// Appends one length-prefixed tagged-field body.
template <typename T>
void append_sized_body(common::Writer& writer, T& value) {
  common::Writer body;
  wire::Encoder encoder(body);
  wire_fields(encoder, value);
  writer.bytes(body.buffer());
}

/// Reads one length-prefixed body and decodes it into `out`.
template <typename T>
void read_sized_body(common::Reader& reader, T& out) {
  common::Reader body(reader.bytes());
  wire::decode_fields(body, out);
}

}  // namespace

std::vector<std::uint8_t> TraceRecorder::serialize() const {
  common::Writer writer;
  writer.header(kTraceFormat);
  wire::TraceHeader header{label_};
  append_sized_body(writer, header);
  for (const TraceFrame& frame : frames_) {
    append_sized_body(writer, const_cast<TraceFrame&>(frame));
  }
  return std::move(writer).take();
}

void TraceRecorder::save(const std::string& path) const {
  common::write_file_atomic(path, serialize());
}

TraceReplaySource TraceReplaySource::parse(std::span<const std::uint8_t> data) {
  common::Reader reader(data);
  reader.header(kTraceFormat);
  TraceReplaySource out;
  wire::TraceHeader header;
  read_sized_body(reader, header);
  out.label_ = std::move(header.label);
  while (!reader.at_end()) {
    TraceFrame frame;
    read_sized_body(reader, frame);
    out.frames_.push_back(std::move(frame));
  }
  return out;
}

TraceReplaySource TraceReplaySource::load(const std::string& path) {
  return parse(common::read_file(path));
}

std::vector<const TraceFrame*> TraceReplaySource::frames_for(
    std::string_view target) const {
  std::vector<const TraceFrame*> matches;
  for (const TraceFrame& frame : frames_) {
    if (frame.target == target) matches.push_back(&frame);
  }
  return matches;
}

std::size_t TraceReplaySource::replay_into(
    RmrEndpoint& endpoint, std::string_view target,
    const std::function<void(std::int64_t)>& on_tick) const {
  std::size_t delivered = 0;
  for (const TraceFrame& frame : frames_) {
    if (frame.target != target) continue;
    if (on_tick) on_tick(frame.tick);
    endpoint.on_message(frame.decode());
    ++delivered;
  }
  return delivered;
}

}  // namespace explora::oran
