#include "oran/trace.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/format.hpp"
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

}  // namespace explora::oran::wire

namespace explora::oran {

RicMessage TraceFrame::decode() const {
  return wire::decode_message_frame(message);
}

namespace {

/// Frame field ids (frozen wire contract, see the grammar in trace.hpp).
enum FrameField : std::uint32_t {
  kTickField = 1,
  kRoundField = 2,
  kTargetField = 3,
  kMessageField = 4,
};

using FrameIndex = std::vector<TraceFrame, common::PageAllocator<TraceFrame>>;

/// Number of deliveries (target fields) in the frames left in `reader` (a
/// copy), counted up to the first malformed byte: the indexing walk that
/// follows reports it, with the same error a walk without this count
/// would throw.
std::size_t count_deliveries(common::Reader reader) {
  std::size_t count = 0;
  try {
    while (!reader.at_end()) {
      common::Reader body(reader.bytes());
      while (!body.at_end()) {
        const common::Reader::Tag tag = body.tag();
        if (tag.field_id == kTargetField) ++count;
        body.skip(tag.type);
      }
    }
  } catch (const common::SerializeError&) {
  }
  return count;
}

void expect_type(common::Reader::Tag tag, common::WireType type,
                 const char* name) {
  if (tag.type != type) {
    throw common::SerializeError(common::format(
        "trace frame field '{}' has wire type {} (expected {})", name,
        common::to_string(tag.type), common::to_string(type)));
  }
}

/// Indexes one frame body: one TraceFrame per target, in order, each
/// viewing the frame's one message.
void read_frame(common::Reader& body, FrameIndex& frames) {
  const std::size_t first = frames.size();
  std::int64_t tick = 0;
  std::uint64_t round = 0;
  std::optional<std::span<const std::uint8_t>> message;
  while (!body.at_end()) {
    const common::Reader::Tag tag = body.tag();
    switch (tag.field_id) {
      case kTickField:
        expect_type(tag, common::WireType::kVarint, "tick");
        tick = body.zigzag();
        break;
      case kRoundField:
        expect_type(tag, common::WireType::kVarint, "round");
        round = body.varint();
        break;
      case kTargetField: {
        expect_type(tag, common::WireType::kBytes, "target");
        const auto bytes = body.bytes();
        frames.emplace_back().target = std::string_view(
            reinterpret_cast<const char*>(bytes.data()), bytes.size());
        break;
      }
      case kMessageField:
        expect_type(tag, common::WireType::kBytes, "message");
        message = body.bytes();
        break;
      default:
        body.skip(tag.type);
    }
  }
  if (frames.size() == first) {
    throw common::SerializeError("trace frame has no target");
  }
  if (!message.has_value()) {
    throw common::SerializeError("trace frame has no message");
  }
  for (std::size_t i = first; i < frames.size(); ++i) {
    frames[i].tick = tick;
    frames[i].round = round;
    frames[i].message = *message;
  }
}

}  // namespace

TraceRecorder::TraceRecorder(std::string label) {
  file_.header(kTraceFormat);
  wire::TraceHeader header{std::move(label)};
  const std::size_t start = file_.begin_sized();
  wire::Encoder encoder(file_);
  wire_fields(encoder, header);
  file_.end_sized(start);
}

void TraceRecorder::on_deliver(const RicMessage& message,
                               std::string_view target, std::uint64_t round,
                               std::uint64_t dispatch) {
  const std::int64_t tick = tick_source_ ? tick_source_() : 0;
  if (open_ && dispatch == dispatch_ && tick == tick_) {
    // Another target of the last frame's message: rewrite that frame.
    file_.truncate(last_frame_);
  } else {
    open_ = true;
    dispatch_ = dispatch;
    tick_ = tick;
    last_frame_ = file_.size();
    head_.clear();
    head_.i64_field(kTickField, tick);
    head_.u64_field(kRoundField, round);
    message_.clear();
    wire::encode_frame(message, message_);
  }
  head_.string_field(kTargetField, target);
  const std::size_t start = file_.begin_sized();
  file_.raw(head_.buffer());
  file_.bytes_field(kMessageField, message_.buffer());
  file_.end_sized(start);
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
  {
    common::Reader body(reader.bytes());
    wire::decode_fields(body, header);
  }
  out.label_ = std::move(header.label);
  out.frames_.reserve(count_deliveries(reader));
  while (!reader.at_end()) {
    common::Reader body(reader.bytes());
    read_frame(body, out.frames_);
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
