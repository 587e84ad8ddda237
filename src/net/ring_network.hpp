// Memory / GPP ring networks (paper §6.1, Figure 19).
//
// Selected (storage/control) Instruction Nodes interface to high-speed
// rings that reach the Memory subsystem and the controlling General
// Purpose Processor. The paper leaves exact latencies as design-dependent
// constants (Figure 25 "service times ... assumed to be constant"); the
// values here are the reproduction's documented assumptions (DESIGN.md)
// and apply uniformly to every configuration, so Figure-of-Merit ratios
// are insensitive to them.
#pragma once

#include <cstdint>

#include "net/message.hpp"

namespace javaflow::net {

struct RingLatencies {
  // Round-trip service times in mesh cycles. The paper calls its own
  // memory assumptions "optimistic" (§7.3 Detailed Assumptions): a fast
  // ring to a near memory; these values are deliberately small so network
  // and node effects — the paper's subject — dominate the comparison.
  std::int64_t memory_read = 4;
  std::int64_t memory_write = 4;   // posted; the node does not stall
  std::int64_t constant_read = 4;  // unordered Method Area access
  std::int64_t gpp_service = 12;   // calls, object services

  bool operator==(const RingLatencies&) const = default;
};

class RingNetwork {
 public:
  explicit RingNetwork(RingLatencies latencies = RingLatencies{})
      : latencies_(latencies) {}

  std::int64_t service_mesh_cycles(RingService s) const noexcept {
    switch (s) {
      case RingService::MemoryRead: return latencies_.memory_read;
      case RingService::MemoryWrite: return latencies_.memory_write;
      case RingService::ConstantRead: return latencies_.constant_read;
      case RingService::GppService: return latencies_.gpp_service;
    }
    return latencies_.memory_read;
  }

  // True if the node must stall in `waitingForService` until the reply
  // returns (reads and GPP services); writes are posted (§6.3 Storage).
  static bool blocking(RingService s) noexcept {
    return s != RingService::MemoryWrite;
  }

  void record_request(RingService s) noexcept {
    ++requests_[static_cast<std::size_t>(s)];
  }
  std::uint64_t requests(RingService s) const noexcept {
    return requests_[static_cast<std::size_t>(s)];
  }

  const RingLatencies& latencies() const noexcept { return latencies_; }

 private:
  RingLatencies latencies_;
  std::uint64_t requests_[4] = {0, 0, 0, 0};
};

}  // namespace javaflow::net
