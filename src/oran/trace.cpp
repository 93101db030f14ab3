#include "oran/trace.hpp"

#include <algorithm>
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

namespace {

/// Appends one length-prefixed tagged-field body, encoded via `scratch`.
template <typename T>
void append_sized_body(common::Writer& writer, common::Writer& scratch,
                       T& value) {
  scratch.clear();
  wire::Encoder encoder(scratch);
  wire_fields(encoder, value);
  writer.bytes(scratch.buffer());
}

/// Reads one length-prefixed body and decodes it into `out`.
template <typename T>
void read_sized_body(common::Reader& reader, T& out) {
  common::Reader body(reader.bytes());
  wire::decode_fields(body, out);
}

/// Number of length-prefixed bodies left in `reader` (a copy), counted up
/// to the first malformed length: the indexing walk that follows reports
/// it, with the same error a walk without this count would throw.
std::size_t count_bodies(common::Reader reader) {
  std::size_t count = 0;
  try {
    while (!reader.at_end()) {
      (void)reader.bytes();
      ++count;
    }
  } catch (const common::SerializeError&) {
    return count;
  }
  return count;
}

}  // namespace

TraceRecorder::TraceRecorder(std::string label) {
  file_.header(kTraceFormat);
  wire::TraceHeader header{std::move(label)};
  append_sized_body(file_, body_, header);
}

void TraceRecorder::on_deliver(const RicMessage& message,
                               std::string_view target, std::uint64_t round) {
  const std::vector<std::uint8_t> encoded =
      wire::encode_message_frame(message);
  TraceFrame frame{
      .tick = tick_source_ ? tick_source_() : 0,
      .round = round,
      .target = target,
      .message = encoded,
  };
  append_sized_body(file_, body_, frame);
}

void TraceRecorder::save(const std::string& path) const {
  common::write_file_atomic(path, file_.buffer());
}

TraceReplaySource TraceReplaySource::parse(std::span<const std::uint8_t> data) {
  TraceReplaySource out;
  out.bytes_ = {common::PageAllocator<std::uint8_t>{}.allocate(data.size()),
                common::PageDeleter<std::uint8_t>{data.size()}};
  std::copy(data.begin(), data.end(), out.bytes_.get());
  common::Reader reader({out.bytes_.get(), data.size()});
  reader.header(kTraceFormat);
  wire::TraceHeader header;
  read_sized_body(reader, header);
  out.label_ = std::move(header.label);
  out.frames_.reserve(count_bodies(reader));
  while (!reader.at_end()) {
    TraceFrame& frame = out.frames_.emplace_back();
    read_sized_body(reader, frame);
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
