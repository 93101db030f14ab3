#include "netsim/ue.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace explora::netsim {

Ue::Ue(std::uint32_t id, Slice slice, UeChannel channel,
       std::unique_ptr<TrafficSource> traffic,
       std::uint64_t buffer_capacity_bytes)
    : id_(id),
      slice_(slice),
      channel_(std::move(channel)),
      traffic_(std::move(traffic)),
      buffer_capacity_(buffer_capacity_bytes) {
  EXPLORA_EXPECTS(traffic_ != nullptr);
  EXPLORA_EXPECTS(buffer_capacity_bytes > 0);
}

void Ue::pull_arrivals(Tick now) {
  const ArrivalBatch batch = traffic_->arrivals(now);
  if (batch.packets == 0) return;
  const std::uint32_t packet_size =
      static_cast<std::uint32_t>(batch.bytes / batch.packets);
  for (std::uint32_t i = 0; i < batch.packets; ++i) {
    if (buffer_bytes_ + packet_size > buffer_capacity_) {
      window_.dropped_bytes += packet_size;
      continue;
    }
    push_packet(packet_size);
    buffer_bytes_ += packet_size;
  }
}

std::uint64_t Ue::serve(std::uint64_t bytes) {
  std::uint64_t served = 0;
  while (bytes > 0 && queued_ > 0) {
    std::uint32_t& head = packets_[head_];
    const std::uint64_t take = std::min<std::uint64_t>(bytes, head);
    head -= static_cast<std::uint32_t>(take);
    bytes -= take;
    served += take;
    if (head == 0) {
      head_ = (head_ + 1) & (packets_.size() - 1);
      --queued_;
      ++window_.tx_packets;
    }
  }
  EXPLORA_ASSERT(served <= buffer_bytes_);
  buffer_bytes_ -= served;
  window_.tx_bytes += served;
  return served;
}

void Ue::push_packet(std::uint32_t bytes) {
  if (queued_ == packets_.size()) {
    std::vector<std::uint32_t> grown(std::max<std::size_t>(16, 2 * queued_));
    for (std::size_t i = 0; i < queued_; ++i) {
      grown[i] = packets_[(head_ + i) & (packets_.size() - 1)];
    }
    packets_.swap(grown);
    head_ = 0;
  }
  packets_[(head_ + queued_) & (packets_.size() - 1)] = bytes;
  ++queued_;
}

UeWindowCounters Ue::harvest_window() noexcept {
  const UeWindowCounters out = window_;
  window_ = UeWindowCounters{};
  return out;
}

}  // namespace explora::netsim
