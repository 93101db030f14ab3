// Record/replay for the RIC message fabric (DESIGN.md §13.4). A
// TraceRecorder taps RmrRouter deliveries and writes the tick-stamped
// E2/KPM/control stream into framed `.etrace` bytes as it goes; a
// TraceReplaySource indexes such a file in place and re-delivers the
// recorded stream into any endpoint — so a recorded live run can be
// explained offline, with no simulator in the loop, and must reproduce
// the live attribution stream byte-identically.
//
// File grammar (the common/serialize header and primitives):
//
//   file   := magic:u32le("ETRC") major:u8(2) minor:u8
//             header_len:varint header frame*
//   header := field*        (1: label string)
//   frame  := len:varint field*
//             (1: tick zigzag, 2: dispatch round varint,
//              3: target string, once per delivered endpoint, in
//                 delivery order,
//              4: encoded RicMessage frame bytes, once)
//
// One frame is one dispatched message: the deliveries of one router
// dispatch at one tick share it, so a KPM fanned out to three endpoints
// is stored once. A frame with no target or no message is malformed.
// The same compatibility rules as wire frames apply: unknown field ids
// are skipped (minor growth is free), a different major version is
// rejected naming both versions, and every length is bounds-checked.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/page_allocator.hpp"
#include "common/serialize.hpp"
#include "oran/rmr.hpp"

namespace explora::oran {

/// Trace-file magic: "ETRC" as a little-endian u32.
inline constexpr std::uint32_t kTraceMagic = 0x43525445u;
inline constexpr std::uint8_t kTraceMajor = 2;
inline constexpr std::uint8_t kTraceMinor = 0;
inline constexpr common::StreamFormat kTraceFormat{"trace", kTraceMagic,
                                                   kTraceMajor, kTraceMinor};

/// One recorded delivery: which tick it happened at (simulation clock at
/// delivery time), which router dispatch round, which endpoint received
/// it, and the message in its versioned wire-frame encoding. A borrowed
/// view: `target` and `message` point into the bytes of the trace that
/// holds the frame, which must outlive it. The deliveries of one stored
/// frame all view its one message.
struct TraceFrame {
  std::int64_t tick = 0;
  std::uint64_t round = 0;
  std::string_view target;
  std::span<const std::uint8_t> message;  ///< wire::encode_message_frame output

  /// Decodes the stored message (validating frame version and payload
  /// type); throws common::SerializeError on a tampered frame.
  [[nodiscard]] RicMessage decode() const;
};

/// Delivery tap that writes every routed delivery into `.etrace` bytes
/// as it happens: the header at construction, one frame per dispatched
/// message. A delivery of the same dispatch at the same tick as the one
/// before adds its target to the last frame (rewritten in place, the
/// message encoded once); any other starts a frame. Install on a router
/// with set_delivery_tap(&recorder); ticks come from the registered tick
/// source (typically the telemetry registry clock).
class TraceRecorder final : public DeliveryTap {
 public:
  explicit TraceRecorder(std::string label = "");

  /// Clock queried once per recorded delivery. Unset => tick 0.
  void set_tick_source(std::function<std::int64_t()> source) {
    tick_source_ = std::move(source);
  }

  void on_deliver(const RicMessage& message, std::string_view target,
                  std::uint64_t round, std::uint64_t dispatch) override;

  /// The trace recorded so far (header + every frame), as `.etrace` bytes.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    return file_.buffer();
  }
  /// Hands the recorded bytes over without a copy; the recorder is spent.
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept {
    return std::move(file_).take();
  }
  /// Writes the trace to `path` atomically (temp file + rename); throws
  /// common::SerializeError on I/O failure.
  void save(const std::string& path) const;

 private:
  std::function<std::int64_t()> tick_source_;
  common::Writer file_;     ///< the `.etrace` bytes, last frame included
  common::Writer head_;     ///< the last frame's tick, round and targets
  common::Writer message_;  ///< the last frame's message, encoded once
  std::size_t last_frame_ = 0;  ///< where the last frame starts in file_
  bool open_ = false;           ///< a frame has been written
  std::uint64_t dispatch_ = 0;  ///< the last frame's dispatch
  std::int64_t tick_ = 0;       ///< the last frame's tick
};

/// Parsed `.etrace` stream, ready to feed back into an endpoint: one owned
/// copy of the trace bytes plus an index of frames viewing into it, both
/// in pages of their own (common/page_allocator.hpp), so the memory a
/// parse per call holds does not depend on malloc's heap layout.
/// Move-only, so a frame view can never outlive the bytes it points into
/// (moving keeps the buffer, and with it every view, in place).
class TraceReplaySource {
 public:
  TraceReplaySource(const TraceReplaySource&) = delete;
  TraceReplaySource& operator=(const TraceReplaySource&) = delete;
  TraceReplaySource(TraceReplaySource&&) noexcept = default;
  TraceReplaySource& operator=(TraceReplaySource&&) noexcept = default;

  /// Copies and indexes serialized trace bytes, one TraceFrame per
  /// (stored frame, target) in delivery order; throws
  /// common::SerializeError on malformed input or an incompatible trace
  /// major version. Messages are not decoded until TraceFrame::decode.
  [[nodiscard]] static TraceReplaySource parse(
      std::span<const std::uint8_t> data);
  /// Reads and parses a trace file; throws on I/O or parse failure.
  [[nodiscard]] static TraceReplaySource load(const std::string& path);

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] std::span<const TraceFrame> frames() const noexcept {
    return frames_;
  }
  /// Frames recorded for a specific endpoint, in delivery order.
  [[nodiscard]] std::vector<const TraceFrame*> frames_for(
      std::string_view target) const;

  /// Re-delivers every frame recorded for `target` into `endpoint`, in
  /// recorded order. `on_tick(frame.tick)` runs before each delivery so
  /// the caller can advance its clock (telemetry registry) to the
  /// recorded timestamp. Returns the number of frames delivered; throws
  /// common::SerializeError if a stored message fails to decode.
  std::size_t replay_into(
      RmrEndpoint& endpoint, std::string_view target,
      const std::function<void(std::int64_t)>& on_tick = {}) const;

 private:
  TraceReplaySource() = default;

  /// The trace; frames_ view into it. Not a vector: one with a custom
  /// allocator copies its input a byte at a time.
  std::unique_ptr<std::uint8_t[], common::PageDeleter<std::uint8_t>> bytes_;
  std::string label_;
  std::vector<TraceFrame, common::PageAllocator<TraceFrame>> frames_;
};

}  // namespace explora::oran
