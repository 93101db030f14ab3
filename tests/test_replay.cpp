// Tests for record/replay (oran/trace + harness/replay): the `.etrace`
// grammar round-trips in memory and through files, tampered streams are
// rejected without crashing, and — the core contract — replaying a
// recorded run into a fresh EXPLORA xApp reproduces the live attribution
// stream byte-identically (DESIGN.md §13.4).
#include "harness/replay.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "harness/training.hpp"
#include "oran/trace.hpp"
#include "oran/wire.hpp"
#include "support/alloc_counter.hpp"
#include "support/wire_fixtures.hpp"

namespace explora {
namespace {

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = testfix::thread_allocations();
  std::forward<Fn>(fn)();
  return testfix::thread_allocations() - before;
}

// ---------------------------------------------------------------------------
// Trace container round-trips (no harness involved).
// ---------------------------------------------------------------------------

/// One delivery as the recorder sees it.
struct Delivery {
  std::int64_t tick = 0;
  std::uint64_t round = 0;
  std::uint64_t dispatch = 0;
  std::string target;
  oran::RicMessage message;
};

/// A deterministic mixed-target stream of deliveries, one per dispatch.
std::vector<Delivery> sample_deliveries() {
  common::Rng rng(7);
  std::vector<Delivery> deliveries;
  std::int64_t tick = 0;
  for (std::uint64_t round = 1; round <= 12; ++round) {
    tick += static_cast<std::int64_t>(rng.index(30));
    deliveries.push_back({tick, round, round,
                          round % 3 == 0 ? "drl_xapp" : "explora_xapp",
                          testfix::random_message(rng)});
  }
  return deliveries;
}

/// A deterministic stream of dispatches fanned out to one, two or three
/// targets each, as a KPM route fans out to its subscribers.
std::vector<Delivery> fanout_deliveries() {
  static constexpr std::array<const char*, 3> kTargets = {
      "data_repository", "drl_xapp", "explora_xapp"};
  common::Rng rng(11);
  std::vector<Delivery> deliveries;
  std::int64_t tick = 0;
  for (std::uint64_t round = 1; round <= 12; ++round) {
    tick += static_cast<std::int64_t>(rng.index(30));
    const oran::RicMessage message = testfix::random_message(rng);
    for (std::size_t t = 0; t < 1 + round % 3; ++t) {
      deliveries.push_back({tick, round, round, kTargets[t], message});
    }
  }
  return deliveries;
}

/// A recorder that was fed `deliveries`, each at its own tick.
oran::TraceRecorder record(const std::vector<Delivery>& deliveries) {
  oran::TraceRecorder recorder("explora_xapp");
  std::int64_t tick = 0;
  recorder.set_tick_source([&tick] { return tick; });
  for (const Delivery& delivery : deliveries) {
    tick = delivery.tick;
    recorder.on_deliver(delivery.message, delivery.target, delivery.round,
                        delivery.dispatch);
  }
  recorder.set_tick_source({});  // the clock reads a local of this call
  return recorder;
}

/// Builds a recorder pre-loaded with a deterministic mixed-target stream.
oran::TraceRecorder sample_recorder() { return record(sample_deliveries()); }

/// The `.etrace` bytes of both sample streams: one delivery per frame,
/// and fanned-out frames of up to three targets.
std::vector<std::vector<std::uint8_t>> sample_traces() {
  return {sample_recorder().serialize(),
          record(fanout_deliveries()).serialize()};
}

/// Targets per stored frame of `trace`, read straight off the grammar.
std::vector<std::size_t> targets_per_frame(
    std::span<const std::uint8_t> trace) {
  common::Reader reader(trace);
  reader.header(oran::kTraceFormat);
  (void)reader.bytes();  // the header body
  std::vector<std::size_t> targets;
  while (!reader.at_end()) {
    common::Reader body(reader.bytes());
    std::size_t count = 0;
    std::size_t messages = 0;
    while (!body.at_end()) {
      const common::Reader::Tag tag = body.tag();
      count += tag.field_id == 3 ? 1 : 0;
      messages += tag.field_id == 4 ? 1 : 0;
      body.skip(tag.type);
    }
    EXPECT_EQ(messages, 1u);
    targets.push_back(count);
  }
  return targets;
}

/// Each parsed frame carries exactly the (tick, round, target, message)
/// that was delivered, in delivery order.
void expect_frames_match(const oran::TraceReplaySource& source,
                         const std::vector<Delivery>& deliveries) {
  ASSERT_EQ(source.frames().size(), deliveries.size());
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    const oran::TraceFrame& frame = source.frames()[i];
    const Delivery& delivery = deliveries[i];
    EXPECT_EQ(frame.tick, delivery.tick) << "frame " << i;
    EXPECT_EQ(frame.round, delivery.round) << "frame " << i;
    EXPECT_EQ(frame.target, delivery.target) << "frame " << i;
    EXPECT_TRUE(std::ranges::equal(
        frame.message, oran::wire::encode_message_frame(delivery.message)))
        << "frame " << i;
    // Stored messages are complete wire frames, version header included.
    EXPECT_EQ(frame.decode(), delivery.message) << "frame " << i;
  }
}

TEST(TraceRoundTrip, SerializeParsePreservesEveryFrame) {
  for (const std::vector<Delivery>& deliveries :
       {sample_deliveries(), fanout_deliveries()}) {
    const oran::TraceRecorder recorder = record(deliveries);
    const auto source = oran::TraceReplaySource::parse(recorder.serialize());
    EXPECT_EQ(source.label(), "explora_xapp");
    expect_frames_match(source, deliveries);
  }
}

TEST(TraceRoundTrip, SaveLoadPreservesEveryFrame) {
  const std::vector<Delivery> deliveries = sample_deliveries();
  const oran::TraceRecorder recorder = record(deliveries);
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_test_trace.etrace";
  recorder.save(path.string());
  const auto source = oran::TraceReplaySource::load(path.string());
  expect_frames_match(source, deliveries);
  std::filesystem::remove(path);
}

TEST(TraceRoundTrip, TakeHandsOverTheSerializedBytesWithoutACopy) {
  oran::TraceRecorder recorder = sample_recorder();
  const std::vector<std::uint8_t> copy = recorder.serialize();
  std::vector<std::uint8_t> taken;
  EXPECT_EQ(allocations_during([&] { taken = std::move(recorder).take(); }),
            0u);
  EXPECT_EQ(taken, copy);
}

TEST(TraceRoundTrip, SaveIntoMissingDirectoryThrows) {
  EXPECT_THROW(sample_recorder().save("/nonexistent/dir/trace.etrace"),
               common::SerializeError);
  EXPECT_THROW((void)oran::TraceReplaySource::load("/nonexistent/t.etrace"),
               common::SerializeError);
}

TEST(TraceRoundTrip, FramesForFiltersByTarget) {
  const oran::TraceRecorder recorder = sample_recorder();
  const auto source = oran::TraceReplaySource::parse(recorder.serialize());
  const auto xapp = source.frames_for("explora_xapp");
  const auto drl = source.frames_for("drl_xapp");
  EXPECT_EQ(xapp.size() + drl.size(), source.frames().size());
  EXPECT_EQ(drl.size(), 4u);  // rounds 3, 6, 9, 12
  for (const oran::TraceFrame* frame : drl) {
    EXPECT_EQ(frame->target, "drl_xapp");
  }
  EXPECT_TRUE(source.frames_for("nobody").empty());
}

// ---------------------------------------------------------------------------
// The in-place index: one owned copy of the bytes, frames viewing into it.
// ---------------------------------------------------------------------------

static_assert(!std::is_copy_constructible_v<oran::TraceReplaySource>);
static_assert(!std::is_copy_assignable_v<oran::TraceReplaySource>);
static_assert(std::is_nothrow_move_constructible_v<oran::TraceReplaySource>);

/// A KPM message whose 9 per-UE lists (3 slices x 3 KPIs) all hold two
/// UEs; its sender is short enough for the small-string buffer.
oran::RicMessage two_ue_kpm() {
  netsim::KpiReport report;
  report.window_end = 250;
  double value = 1.0;
  for (netsim::SliceKpiReport& slice : report.slices) {
    for (netsim::PerUeValues* list :
         {&slice.tx_bitrate_mbps, &slice.tx_packets, &slice.buffer_bytes}) {
      *list = {value, value + 0.5};
      value += 1.0;
    }
  }
  return oran::make_kpm_indication("gnb", std::move(report));
}

/// `.etrace` bytes of `frames` deliveries of one KPM message, two
/// targets per dispatch.
std::vector<std::uint8_t> uniform_trace(std::size_t frames) {
  const oran::RicMessage message = two_ue_kpm();
  oran::TraceRecorder recorder("explora_xapp");
  for (std::size_t i = 0; i < frames; ++i) {
    recorder.on_deliver(message, i % 2 == 0 ? "explora_xapp" : "drl_xapp",
                        i / 2, i / 2);
  }
  return std::move(recorder).take();
}

TEST(TraceIndex, ParseAllocationsDoNotGrowWithFrameCount) {
  const std::vector<std::uint8_t> small = uniform_trace(100);
  const std::vector<std::uint8_t> large = uniform_trace(10'000);
  std::optional<oran::TraceReplaySource> source;
  const std::size_t small_allocations = allocations_during(
      [&] { source.emplace(oran::TraceReplaySource::parse(small)); });
  ASSERT_EQ(source->frames().size(), 100u);
  source.reset();
  const std::size_t large_allocations = allocations_during(
      [&] { source.emplace(oran::TraceReplaySource::parse(large)); });
  ASSERT_EQ(source->frames().size(), 10'000u);
  EXPECT_EQ(small_allocations, large_allocations);
}

TEST(TraceIndex, ViewsStayValidAfterTheSourceMoves) {
  const std::vector<Delivery> deliveries = sample_deliveries();
  auto parsed = oran::TraceReplaySource::parse(record(deliveries).serialize());
  const char* const first_target = parsed.frames().front().target.data();

  oran::TraceReplaySource moved(std::move(parsed));
  EXPECT_EQ(moved.frames().front().target.data(), first_target);
  expect_frames_match(moved, deliveries);

  auto assigned = oran::TraceReplaySource::parse(uniform_trace(3));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.frames().front().target.data(), first_target);
  expect_frames_match(assigned, deliveries);
}

// The report's per-UE lists are inline and its sender fits the small-string
// buffer, so decoding a KPM frame allocates nothing.
TEST(TraceIndex, KpmFrameDecodeAllocatesNothing) {
  const oran::RicMessage message = two_ue_kpm();
  const std::vector<std::uint8_t> frame =
      oran::wire::encode_message_frame(message);
  std::optional<oran::RicMessage> decoded;
  const std::size_t allocations = allocations_during(
      [&] { decoded.emplace(oran::wire::decode_message_frame(frame)); });
  EXPECT_EQ(*decoded, message);
  EXPECT_EQ(allocations, 0U);
}

/// Minor page faults this thread has taken so far.
long thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

TEST(TraceIndex, ReparsingTheSameTraceReusesItsPages) {
  const std::vector<std::uint8_t> bytes = uniform_trace(10'000);
  std::optional<oran::TraceReplaySource> source(
      oran::TraceReplaySource::parse(bytes));
  source.reset();

  const long before = thread_minor_faults();
  source.emplace(oran::TraceReplaySource::parse(bytes));
  const long faults = thread_minor_faults() - before;
  ASSERT_EQ(source->frames().size(), 10'000u);
  // Fresh pages would fault once each: the trace alone spans hundreds.
  const long trace_pages = static_cast<long>(bytes.size() / 4096);
  EXPECT_GT(trace_pages, 100);
  EXPECT_LT(faults, trace_pages / 10);
}

TEST(PageAllocator, ReusesTheLastFreedMappingOfTheSameSize) {
  common::PageAllocator<std::uint64_t> pages;
  constexpr std::size_t kCount = 3000;  // several pages
  std::uint64_t* first = pages.allocate(kCount);
  for (std::size_t i = 0; i < kCount; ++i) first[i] = i + 1;
  pages.deallocate(first, kCount);

  // Fresh pages read zero, so the old contents prove the reuse.
  std::uint64_t* again = pages.allocate(kCount);
  ASSERT_EQ(again, first);
  EXPECT_EQ(again[0], 1u);
  EXPECT_EQ(again[kCount - 1], kCount);

  // The spare is taken: another allocation of that size maps anew.
  std::uint64_t* other = pages.allocate(kCount);
  EXPECT_NE(other, again);
  EXPECT_EQ(other[0], 0u);
  pages.deallocate(other, kCount);
  pages.deallocate(again, kCount);
}

TEST(PageAllocator, UnmapsAFreedMappingAboveTheSpareCap) {
  using Pages = common::PageAllocator<std::uint8_t>;
  Pages pages;
  constexpr std::size_t kBytes = Pages::kMaxSpareBytes + 1;  // one page touched
  std::uint8_t* big = pages.allocate(kBytes);
  big[0] = 0xAB;
  pages.deallocate(big, kBytes);
  std::uint8_t* again = pages.allocate(kBytes);
  EXPECT_EQ(again[0], 0u);  // fresh pages, whatever address they got
  pages.deallocate(again, kBytes);
}

TEST(PageAllocator, ZeroElementsMapNothing) {
  common::PageAllocator<std::uint8_t> pages;
  std::uint8_t* none = pages.allocate(0);
  EXPECT_EQ(none, nullptr);
  pages.deallocate(none, 0);
}

TEST(TraceRoundTrip, ReplayIntoDeliversRecordedOrderAndTicks) {
  class Capture final : public oran::RmrEndpoint {
   public:
    std::string_view endpoint_name() const noexcept override {
      return "explora_xapp";
    }
    void on_message(const oran::RicMessage& message) override {
      messages.push_back(message);
    }
    std::vector<oran::RicMessage> messages;
  };
  const oran::TraceRecorder recorder = sample_recorder();
  const auto source = oran::TraceReplaySource::parse(recorder.serialize());
  Capture capture;
  std::vector<std::int64_t> ticks;
  const std::size_t delivered = source.replay_into(
      capture, "explora_xapp",
      [&ticks](std::int64_t tick) { ticks.push_back(tick); });
  const auto expected = source.frames_for("explora_xapp");
  ASSERT_EQ(delivered, expected.size());
  ASSERT_EQ(capture.messages.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(capture.messages[i], expected[i]->decode());
    EXPECT_EQ(ticks[i], expected[i]->tick);
  }
}

// ---------------------------------------------------------------------------
// Tamper rejection: the parser must throw SerializeError on malformed
// streams, never crash (sanitizer CI legs re-run this sweep).
// ---------------------------------------------------------------------------

TEST(TraceTamper, RejectsBadMagicAndIncompatibleMajor) {
  auto bytes = sample_recorder().serialize();
  {
    auto bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_THROW((void)oran::TraceReplaySource::parse(bad),
                 common::SerializeError);
  }
  // The next major, and the first: one frame per delivery, never read.
  for (const int major : {oran::kTraceMajor + 1, 1}) {
    auto bad = bytes;
    bad[4] = static_cast<std::uint8_t>(major);
    try {
      (void)oran::TraceReplaySource::parse(bad);
      FAIL() << "expected SerializeError";
    } catch (const common::SerializeError& error) {
      const std::string what = error.what();
      const std::string input = "major version " + std::to_string(major);
      const std::string reader =
          "major version " + std::to_string(oran::kTraceMajor);
      EXPECT_NE(what.find(input), std::string::npos) << what;
      EXPECT_NE(what.find(reader), std::string::npos) << what;
    }
  }
}

TEST(TraceTamper, ToleratesFutureMinorVersion) {
  auto bytes = sample_recorder().serialize();
  bytes[5] = oran::kTraceMinor + 5;
  const auto source = oran::TraceReplaySource::parse(bytes);
  EXPECT_EQ(source.frames().size(), 12u);
}

TEST(TraceTamper, EveryTruncationEitherParsesOrThrows) {
  for (const auto& bytes : sample_traces()) {
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      try {
        (void)oran::TraceReplaySource::parse(
            std::span<const std::uint8_t>(bytes.data(), len));
        // Truncation at a frame boundary yields a valid shorter trace.
      } catch (const common::SerializeError&) {
      }
    }
  }
}

TEST(TraceTamper, SeededCorruptionSweepNeverCrashes) {
  common::Rng rng(99);
  const std::size_t iters = testfix::fuzz_iters(100);
  for (const auto& bytes : sample_traces()) {
    for (std::size_t trial = 0; trial < iters; ++trial) {
      auto corrupted = bytes;
      const std::size_t flips = 1 + rng.index(6);
      for (std::size_t f = 0; f < flips; ++f) {
        corrupted[rng.index(corrupted.size())] =
            static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      try {
        const auto source = oran::TraceReplaySource::parse(corrupted);
        // The container may still parse with the corruption inside a
        // stored message blob; decoding the frames must then throw
        // cleanly too.
        for (const oran::TraceFrame& frame : source.frames()) {
          (void)frame.decode();
        }
      } catch (const common::SerializeError&) {
      }
    }
  }
}

/// A one-frame trace whose frame body is `frame`.
std::vector<std::uint8_t> trace_of_frame(const common::Writer& frame) {
  common::Writer file;
  file.header(oran::kTraceFormat);
  file.bytes({});  // an empty header body: no label
  file.bytes(frame.buffer());
  return std::move(file).take();
}

/// Parses `bytes`, expecting a SerializeError that mentions `needle`.
void expect_parse_error(std::span<const std::uint8_t> bytes,
                        const std::string& needle) {
  try {
    (void)oran::TraceReplaySource::parse(bytes);
    FAIL() << "expected SerializeError";
  } catch (const common::SerializeError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(TraceTamper, RejectsFramesWithoutTargetOrMessage) {
  const std::vector<std::uint8_t> message =
      oran::wire::encode_message_frame(two_ue_kpm());
  common::Writer complete;
  complete.i64_field(1, 250);
  complete.u64_field(2, 1);
  complete.string_field(3, "explora_xapp");
  complete.bytes_field(4, message);
  EXPECT_EQ(oran::TraceReplaySource::parse(trace_of_frame(complete))
                .frames()
                .size(),
            1u);

  common::Writer no_target;
  no_target.i64_field(1, 250);
  no_target.u64_field(2, 1);
  no_target.bytes_field(4, message);
  expect_parse_error(trace_of_frame(no_target), "no target");

  common::Writer no_message;
  no_message.i64_field(1, 250);
  no_message.u64_field(2, 1);
  no_message.string_field(3, "explora_xapp");
  no_message.string_field(3, "drl_xapp");
  expect_parse_error(trace_of_frame(no_message), "no message");

  common::Writer empty;
  expect_parse_error(trace_of_frame(empty), "no target");

  common::Writer wrong_type;  // the target as a varint
  wrong_type.u64_field(3, 7);
  wrong_type.bytes_field(4, message);
  expect_parse_error(trace_of_frame(wrong_type), "wire type");
}

// ---------------------------------------------------------------------------
// Recording at the router: one frame per dispatch, each endpoint's input
// exactly what it saw live.
// ---------------------------------------------------------------------------

/// An endpoint that keeps every message it is handed with the tick it
/// arrived at, and answers each KPM with a control to `reply_to`.
class LiveCapture final : public oran::RmrEndpoint {
 public:
  LiveCapture(std::string name, const std::int64_t& clock,
              oran::RmrRouter* router = nullptr)
      : name_(std::move(name)), clock_(&clock), router_(router) {}

  std::string_view endpoint_name() const noexcept override { return name_; }
  void on_message(const oran::RicMessage& message) override {
    received.emplace_back(*clock_, message);
    if (router_ != nullptr &&
        message.type == oran::MessageType::kKpmIndication) {
      router_->send(oran::make_ran_control(name_, testfix::sample_control(),
                                           received.size()));
    }
  }

  std::vector<std::pair<std::int64_t, oran::RicMessage>> received;

 private:
  std::string name_;
  const std::int64_t* clock_;
  oran::RmrRouter* router_;
};

/// The replayed input of `target`: each recorded frame's tick and message.
std::vector<std::pair<std::int64_t, oran::RicMessage>> recorded_input(
    const oran::TraceReplaySource& source, std::string_view target) {
  std::vector<std::pair<std::int64_t, oran::RicMessage>> input;
  for (const oran::TraceFrame* frame : source.frames_for(target)) {
    input.emplace_back(frame->tick, frame->decode());
  }
  return input;
}

TEST(TraceFormat, KpmRoutedToThreeEndpointsIsOneFrame) {
  telemetry::ScopedRegistry scope;
  std::int64_t clock = 40;
  oran::RmrRouter router;
  LiveCapture repository("data_repository", clock);
  LiveCapture drl("drl_xapp", clock);
  LiveCapture xapp("explora_xapp", clock);
  for (LiveCapture* endpoint : {&repository, &drl, &xapp}) {
    router.register_endpoint(*endpoint);
    router.add_route(oran::MessageType::kKpmIndication, "gnb",
                     std::string(endpoint->endpoint_name()));
  }
  oran::TraceRecorder recorder("explora_xapp");
  recorder.set_tick_source([&clock] { return clock; });
  router.set_delivery_tap(&recorder);
  router.send(two_ue_kpm());
  router.set_delivery_tap(nullptr);
  recorder.set_tick_source({});

  const std::vector<std::uint8_t> bytes = std::move(recorder).take();
  EXPECT_EQ(targets_per_frame(bytes), std::vector<std::size_t>{3});
  const auto source = oran::TraceReplaySource::parse(bytes);
  ASSERT_EQ(source.frames().size(), 3u);
  const std::array<std::string_view, 3> order = {
      "data_repository", "drl_xapp", "explora_xapp"};
  for (std::size_t i = 0; i < 3; ++i) {
    const oran::TraceFrame& frame = source.frames()[i];
    EXPECT_EQ(frame.target, order[i]);
    EXPECT_EQ(frame.tick, 40);
    EXPECT_EQ(frame.round, 1u);
    // One stored message, viewed by all three deliveries.
    EXPECT_EQ(frame.message.data(), source.frames()[0].message.data());
    EXPECT_EQ(frame.message.size(), source.frames()[0].message.size());
    EXPECT_EQ(frame.decode(), two_ue_kpm());
  }
}

TEST(TraceFormat, MergesOnlyDeliveriesOfOneDispatchAtOneTick) {
  const oran::RicMessage message = two_ue_kpm();
  oran::TraceRecorder recorder;
  std::int64_t tick = 5;
  recorder.set_tick_source([&tick] { return tick; });
  recorder.on_deliver(message, "a", 1, 1);
  recorder.on_deliver(message, "b", 1, 1);  // merged
  tick = 6;
  recorder.on_deliver(message, "c", 1, 1);  // the clock moved: a new frame
  recorder.on_deliver(message, "a", 1, 2);  // another dispatch: a new frame
  recorder.on_deliver(message, "b", 2, 2);  // merged, round from the first
  recorder.set_tick_source({});

  const std::vector<std::uint8_t> bytes = recorder.serialize();
  EXPECT_EQ(targets_per_frame(bytes), (std::vector<std::size_t>{2, 1, 2}));
  const auto source = oran::TraceReplaySource::parse(bytes);
  ASSERT_EQ(source.frames().size(), 5u);
  const std::array<std::string_view, 5> targets = {"a", "b", "c", "a", "b"};
  const std::array<std::int64_t, 5> ticks = {5, 5, 6, 6, 6};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(source.frames()[i].target, targets[i]) << "frame " << i;
    EXPECT_EQ(source.frames()[i].tick, ticks[i]) << "frame " << i;
    EXPECT_EQ(source.frames()[i].round, 1u) << "frame " << i;
  }
}

TEST(TraceFormat, ImpairedRecordingGivesEveryEndpointItsLiveInput) {
  telemetry::ScopedRegistry scope;
  std::int64_t clock = 0;
  oran::RmrRouter router;
  LiveCapture repository("data_repository", clock);
  LiveCapture drl("drl_xapp", clock, &router);
  LiveCapture xapp("explora_xapp", clock, &router);
  LiveCapture e2("e2_term", clock);
  for (LiveCapture* endpoint : {&repository, &drl, &xapp, &e2}) {
    router.register_endpoint(*endpoint);
  }
  for (const char* subscriber : {"data_repository", "drl_xapp",
                                 "explora_xapp"}) {
    router.add_route(oran::MessageType::kKpmIndication, "gnb", subscriber);
  }
  router.add_route(oran::MessageType::kRanControl, "*", "e2_term");
  oran::LinkImpairments& impairments = router.configure_impairments(17);
  const oran::LinkImpairments::Policy lossy{.drop = 0.1,
                                            .delay = 0.1,
                                            .delay_rounds = 2,
                                            .duplicate = 0.1,
                                            .reorder = 0.15};
  impairments.set_policy(oran::MessageType::kKpmIndication, "*", lossy);
  impairments.set_policy(oran::MessageType::kRanControl, "*", lossy);

  oran::TraceRecorder recorder("explora_xapp");
  recorder.set_tick_source([&clock] { return clock; });
  router.set_delivery_tap(&recorder);
  common::Rng rng(23);
  std::size_t deliveries = 0;
  for (int report = 0; report < 200; ++report) {
    clock += 25;
    router.send(oran::make_kpm_indication("gnb", testfix::random_report(rng)));
  }
  router.flush_delayed();
  router.set_delivery_tap(nullptr);
  recorder.set_tick_source({});

  const std::vector<std::uint8_t> bytes = std::move(recorder).take();
  const auto source = oran::TraceReplaySource::parse(bytes);
  for (const LiveCapture* endpoint : {&repository, &drl, &xapp, &e2}) {
    SCOPED_TRACE(std::string(endpoint->endpoint_name()));
    EXPECT_FALSE(endpoint->received.empty());
    EXPECT_EQ(recorded_input(source, endpoint->endpoint_name()),
              endpoint->received);
    deliveries += endpoint->received.size();
  }
  EXPECT_EQ(source.frames().size(), deliveries);
  // Fan-out still shares frames under impairments.
  EXPECT_LT(targets_per_frame(bytes).size(), deliveries);
  // Every fate came up.
  const auto snapshot = scope.registry().snapshot();
  for (const char* fate : {"dropped", "delayed", "duplicated", "reordered"}) {
    EXPECT_GT(snapshot.counter(std::string("oran.impairments.") + fate +
                               ".kpm_indication"),
              0u)
        << fate;
  }
}

// ---------------------------------------------------------------------------
// Record -> replay determinism on a real (small) closed-loop run.
// ---------------------------------------------------------------------------

harness::TrainingConfig tiny_training() {
  harness::TrainingConfig training;
  training.collection_steps = 20;
  training.autoencoder.epochs = 2;
  training.ppo_iterations = 1;
  training.steps_per_iteration = 16;
  return training;
}

netsim::ScenarioConfig tiny_scenario() {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  scenario.seed = 7;
  return scenario;
}

// Trained once per process; training runs outside the per-test registries.
const harness::TrainedSystem& tiny_system() {
  static const harness::TrainedSystem system = harness::train_system(
      core::AgentProfile::kHighThroughput, tiny_scenario(), tiny_training());
  return system;
}

harness::ExperimentOptions tiny_options() {
  harness::ExperimentOptions options;
  options.decisions = 4;
  options.deploy_explora = true;
  return options;
}

TEST(ReplayDeterminism, RecordedRunCarriesTraceAndAttribution) {
  const harness::RecordedRun run = harness::record_experiment(
      tiny_system(), tiny_scenario(), tiny_options(), tiny_training());
  EXPECT_FALSE(run.trace.empty());
  EXPECT_FALSE(run.attribution.bytes.empty());
  EXPECT_NE(run.attribution.digest, 0u);
  const auto source = oran::TraceReplaySource::parse(run.trace);
  EXPECT_EQ(source.label(), run.xapp_name);
  EXPECT_FALSE(source.frames_for(run.xapp_name).empty());
}

TEST(ReplayDeterminism, ReplayReproducesAttributionByteIdentically) {
  const harness::RoundTripReport report = harness::replay_roundtrip(
      tiny_system(), tiny_scenario(), tiny_options(), tiny_training());
  EXPECT_GT(report.replayed.frames_delivered, 0u);
  EXPECT_EQ(report.live.result.explanations.size(),
            report.replayed.explanations.size());
  EXPECT_TRUE(report.bytes_identical);
  EXPECT_TRUE(report.telemetry_identical);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.live.attribution, report.replayed.attribution);
}

TEST(ReplayDeterminism, ImpairedRunReplaysAttributionByteIdentically) {
  harness::ExperimentOptions options = tiny_options();
  options.decisions = 8;
  harness::FaultInjectionOptions faults;
  const oran::LinkImpairments::Policy lossy{.drop = 0.1,
                                            .delay = 0.1,
                                            .delay_rounds = 2,
                                            .duplicate = 0.1,
                                            .reorder = 0.1};
  faults.indication = lossy;
  faults.control = lossy;
  faults.ack = lossy;
  options.faults = faults;
  options.reliable = oran::ReliableControlSender::Config{};
  const harness::RoundTripReport report = harness::replay_roundtrip(
      tiny_system(), tiny_scenario(), options, tiny_training());
  for (const char* fate : {"dropped", "delayed", "duplicated", "reordered"}) {
    EXPECT_GT(report.live.result.telemetry.counter(
                  std::string("oran.impairments.") + fate + ".kpm_indication"),
              0u)
        << fate;
  }
  EXPECT_GT(report.replayed.frames_delivered, 0u);
  EXPECT_TRUE(report.bytes_identical);
  EXPECT_TRUE(report.telemetry_identical);
  EXPECT_EQ(report.live.attribution, report.replayed.attribution);
}

TEST(ReplayDeterminism, ReplayingTheSameTraceTwiceIsIdentical) {
  const harness::RecordedRun run = harness::record_experiment(
      tiny_system(), tiny_scenario(), tiny_options(), tiny_training());
  const auto source = oran::TraceReplaySource::parse(run.trace);
  const harness::ReplayOutcome first = harness::replay_trace(
      source, run.xapp_name, tiny_options(),
      core::AgentProfile::kHighThroughput, tiny_training());
  const harness::ReplayOutcome second = harness::replay_trace(
      source, run.xapp_name, tiny_options(),
      core::AgentProfile::kHighThroughput, tiny_training());
  EXPECT_EQ(first.attribution, second.attribution);
  EXPECT_EQ(first.frames_delivered, second.frames_delivered);
}

}  // namespace
}  // namespace explora
