// Record/replay for the RIC message fabric (DESIGN.md §13.4). A
// TraceRecorder taps RmrRouter deliveries and persists the tick-stamped
// E2/KPM/control stream to a framed `.etrace` file; a TraceReplaySource
// parses such a file and re-delivers the recorded stream into any
// endpoint — so a recorded live run can be explained offline, with no
// simulator in the loop, and must reproduce the live attribution stream
// byte-identically.
//
// File grammar (the common/serialize header and primitives):
//
//   file   := magic:u32le("ETRC") major:u8 minor:u8
//             header_len:varint header frame*
//   header := field*        (1: label string)
//   frame  := len:varint field*
//             (1: tick zigzag, 2: dispatch round varint,
//              3: target string, 4: encoded RicMessage frame bytes)
//
// The same compatibility rules as wire frames apply: unknown field ids
// are skipped (minor growth is free), a different major version is
// rejected naming both versions, and every length is bounds-checked.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "oran/rmr.hpp"

namespace explora::oran {

/// Trace-file magic: "ETRC" as a little-endian u32.
inline constexpr std::uint32_t kTraceMagic = 0x43525445u;
inline constexpr std::uint8_t kTraceMajor = 1;
inline constexpr std::uint8_t kTraceMinor = 0;
inline constexpr common::StreamFormat kTraceFormat{"trace", kTraceMagic,
                                                   kTraceMajor, kTraceMinor};

/// One recorded delivery: which tick it happened at (simulation clock at
/// delivery time), which router dispatch round, which endpoint received
/// it, and the message in its versioned wire-frame encoding.
struct TraceFrame {
  std::int64_t tick = 0;
  std::uint64_t round = 0;
  std::string target;
  std::vector<std::uint8_t> message;  ///< wire::encode_message_frame output

  /// Decodes the stored message (validating frame version and payload
  /// type); throws common::SerializeError on a tampered frame.
  [[nodiscard]] RicMessage decode() const;

  friend bool operator==(const TraceFrame&, const TraceFrame&) = default;
};

/// Delivery tap that captures every routed delivery as a TraceFrame.
/// Install on a router with set_delivery_tap(&recorder); ticks come from
/// the registered tick source (typically the telemetry registry clock).
class TraceRecorder final : public DeliveryTap {
 public:
  explicit TraceRecorder(std::string label = "");

  /// Clock queried once per recorded delivery. Unset => tick 0.
  void set_tick_source(std::function<std::int64_t()> source) {
    tick_source_ = std::move(source);
  }

  void on_deliver(const RicMessage& message, std::string_view target,
                  std::uint64_t round) override;

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const std::vector<TraceFrame>& frames() const noexcept {
    return frames_;
  }
  /// Total encoded message payload bytes captured so far.
  [[nodiscard]] std::size_t message_bytes() const noexcept {
    return message_bytes_;
  }

  /// Serializes the full trace (header + all frames) to `.etrace` bytes.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Writes the trace to `path` atomically (temp file + rename); throws
  /// common::SerializeError on I/O failure.
  void save(const std::string& path) const;

 private:
  std::string label_;
  std::function<std::int64_t()> tick_source_;
  std::vector<TraceFrame> frames_;
  std::size_t message_bytes_ = 0;
};

/// Parsed `.etrace` stream, ready to feed back into an endpoint.
class TraceReplaySource {
 public:
  /// Parses serialized trace bytes; throws common::SerializeError on
  /// malformed input or an incompatible trace major version.
  [[nodiscard]] static TraceReplaySource parse(
      std::span<const std::uint8_t> data);
  /// Reads and parses a trace file; throws on I/O or parse failure.
  [[nodiscard]] static TraceReplaySource load(const std::string& path);

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const std::vector<TraceFrame>& frames() const noexcept {
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
  std::string label_;
  std::vector<TraceFrame> frames_;
};

}  // namespace explora::oran
