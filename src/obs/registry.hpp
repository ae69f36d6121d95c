#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// \file registry.hpp
/// A unified metrics registry: named counters, gauges, and fixed-bucket
/// log2 histograms. The scattered per-layer stats (Worker::MatchStats, the
/// fault/retry/fallback counters, pool occupancy, queue high-watermarks)
/// publish into one Registry through the snapshot providers registered on
/// obs::Observability, so `hw::System` exposes a single dump API instead of
/// a different accessor per subsystem.
///
/// Allocation contract (preserving the PR 4 operator-new-counter invariant):
/// registration (`counter()` / `gauge()` / `histogram()`) happens at setup
/// time and may allocate; the hot-path mutators (`add`, `set`, `setMax`,
/// `observe`) index pre-sized vectors and never allocate or branch on names.

namespace cux::obs {

class Registry {
 public:
  using Id = std::uint32_t;

  /// Find-or-create by name (setup path; copies the name).
  Id counter(std::string_view name) { return intern(name, Kind::Counter); }
  Id gauge(std::string_view name) { return intern(name, Kind::Gauge); }
  Id histogram(std::string_view name) { return intern(name, Kind::Histogram); }

  // --- hot-path mutators (no allocation, no lookup) ------------------------
  void add(Id id, std::uint64_t v = 1) noexcept { counters_[id].value += v; }
  void set(Id id, std::uint64_t v) noexcept { gauges_[id].value = v; }
  void setMax(Id id, std::uint64_t v) noexcept {
    if (v > gauges_[id].value) gauges_[id].value = v;
  }
  void observe(Id id, std::uint64_t v) noexcept {
    Hist& h = hists_[id];
    ++h.buckets[bucketOf(v)];
    ++h.count;
    h.sum += v;
  }

  /// Bucket b holds v with bit_width(v) == b: bucket 0 is exactly {0},
  /// bucket b >= 1 covers [2^(b-1), 2^b).
  [[nodiscard]] static constexpr unsigned bucketOf(std::uint64_t v) noexcept {
    return static_cast<unsigned>(std::bit_width(v));
  }
  static constexpr std::size_t kBuckets = 65;

  // --- snapshot-path conveniences (may allocate on first use) --------------
  void setGauge(std::string_view name, std::uint64_t v) { set(gauge(name), v); }
  void addCounter(std::string_view name, std::uint64_t v) { add(counter(name), v); }

  // --- inspection ----------------------------------------------------------
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const {
    const Id* id = find(name, Kind::Counter);
    return id ? counters_[*id].value : 0;
  }
  [[nodiscard]] std::uint64_t gaugeValue(std::string_view name) const {
    const Id* id = find(name, Kind::Gauge);
    return id ? gauges_[*id].value : 0;
  }
  [[nodiscard]] bool has(std::string_view name) const { return names_.count(key(name)) != 0; }

  struct Hist {
    std::string name;
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  struct Scalar {
    std::string name;
    std::uint64_t value = 0;
  };
  [[nodiscard]] const std::vector<Scalar>& counters() const noexcept { return counters_; }
  [[nodiscard]] const std::vector<Scalar>& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const std::vector<Hist>& histograms() const noexcept { return hists_; }

  /// Plain-text table (one `kind name value` line per metric; histograms get
  /// one line per non-empty bucket).
  void dumpText(std::ostream& os) const;
  /// Machine-readable snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count":..,"sum":..,"buckets":{bit_width:count}}}}.
  void dumpJson(std::ostream& os) const;

 private:
  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

  [[nodiscard]] static std::string key(std::string_view name) { return std::string(name); }

  Id intern(std::string_view name, Kind kind) {
    auto it = names_.find(key(name));
    if (it != names_.end()) return it->second;
    Id id = 0;
    switch (kind) {
      case Kind::Counter:
        id = static_cast<Id>(counters_.size());
        counters_.push_back(Scalar{std::string(name), 0});
        break;
      case Kind::Gauge:
        id = static_cast<Id>(gauges_.size());
        gauges_.push_back(Scalar{std::string(name), 0});
        break;
      case Kind::Histogram:
        id = static_cast<Id>(hists_.size());
        hists_.push_back(Hist{std::string(name), {}, 0, 0});
        break;
    }
    names_.emplace(std::string(name), id);
    kinds_.emplace(std::string(name), kind);
    return id;
  }

  [[nodiscard]] const Id* find(std::string_view name, Kind kind) const {
    const auto it = names_.find(key(name));
    if (it == names_.end()) return nullptr;
    const auto kit = kinds_.find(key(name));
    if (kit == kinds_.end() || kit->second != kind) return nullptr;
    return &it->second;
  }

  std::vector<Scalar> counters_;
  std::vector<Scalar> gauges_;
  std::vector<Hist> hists_;
  std::unordered_map<std::string, Id> names_;
  std::unordered_map<std::string, Kind> kinds_;
};

}  // namespace cux::obs
