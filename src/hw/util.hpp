#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

/// \file util.hpp
/// Per-resource utilization timelines: busy-interval accounting for every
/// serialising resource in the machine model (NVLink brick directions, the
/// X-Bus, NIC rails, the shm copy engine, GPU compute). Links and Resources
/// report each occupancy interval [start, end) as it is reserved; the
/// recorder accumulates per-resource and per-class totals plus a windowed
/// (class, simulated-time window) -> busy-ns timeline, which exports as
/// utilization gauges, sweep CSV columns, JSONL "util" lines and Perfetto
/// counter tracks.
///
/// Recording is passive: it never touches the engine, schedules nothing and
/// consumes no randomness, so enabling it is trace-invisible (asserted in
/// test_trace_hash.cpp). Disabled (the default), the hook in Link::reserve
/// is a null-pointer test.

namespace cux::hw {

/// Classes of serialising resources, used to roll per-link detail up to the
/// level the reports work at.
enum class ResClass : std::uint8_t { NvLink, XBus, Nic, Shm, GpuCompute };
inline constexpr std::size_t kResClassCount = 5;

[[nodiscard]] const char* name(ResClass c);

class UtilRecorder {
 public:
  /// Starts recording with the given timeline window width (0 coerces to 1).
  void enable(sim::Duration window_ns) {
    window_ns_ = window_ns == 0 ? 1 : window_ns;
  }
  [[nodiscard]] bool enabled() const noexcept { return window_ns_ != 0; }
  [[nodiscard]] sim::Duration windowNs() const noexcept { return window_ns_; }

  /// Registers a resource; returns the id Link/Resource pass to busy().
  int addResource(std::string name, ResClass cls) {
    res_.push_back(Entry{std::move(name), cls, 0});
    ++class_count_[static_cast<std::size_t>(cls)];
    return static_cast<int>(res_.size()) - 1;
  }

  /// Records one occupancy interval [start, end). Split across timeline
  /// windows so per-window busy never exceeds window width x resources.
  void busy(int id, sim::TimePoint start, sim::TimePoint end) {
    if (end <= start || id < 0) return;
    Entry& e = res_[static_cast<std::size_t>(id)];
    const std::uint64_t ns = end - start;
    e.busy_ns += ns;
    class_busy_[static_cast<std::size_t>(e.cls)] += ns;
    if (window_ns_ == 0) return;  // attached but not enabled: totals only
    sim::TimePoint t = start;
    while (t < end) {
      const std::uint64_t w = t / window_ns_;
      const sim::TimePoint w_end = (w + 1) * window_ns_;
      const sim::TimePoint stop = end < w_end ? end : w_end;
      win_[{static_cast<std::uint8_t>(e.cls), w}] += stop - t;
      t = stop;
    }
  }

  struct Entry {
    std::string name;
    ResClass cls;
    std::uint64_t busy_ns = 0;
  };

  [[nodiscard]] const std::vector<Entry>& resources() const noexcept { return res_; }
  [[nodiscard]] std::uint64_t classBusy(ResClass c) const noexcept {
    return class_busy_[static_cast<std::size_t>(c)];
  }
  /// Number of registered resources of a class (the per-window capacity in
  /// ns is classResources(c) * windowNs()).
  [[nodiscard]] std::uint32_t classResources(ResClass c) const noexcept {
    return class_count_[static_cast<std::size_t>(c)];
  }

  /// Windowed timeline: (class, window index) -> busy ns, in deterministic
  /// key order.
  using WinKey = std::pair<std::uint8_t, std::uint64_t>;
  [[nodiscard]] const std::map<WinKey, std::uint64_t>& windows() const noexcept {
    return win_;
  }

  void clear() {
    for (Entry& e : res_) e.busy_ns = 0;
    class_busy_ = {};
    win_.clear();
  }

 private:
  sim::Duration window_ns_ = 0;
  std::vector<Entry> res_;
  std::array<std::uint64_t, kResClassCount> class_busy_{};
  std::array<std::uint32_t, kResClassCount> class_count_{};
  std::map<WinKey, std::uint64_t> win_;
};

}  // namespace cux::hw
