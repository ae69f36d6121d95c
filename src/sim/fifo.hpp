#pragma once

#include <cstddef>
#include <utility>
#include <vector>

/// \file fifo.hpp
/// Fifo<T>: a first-in first-out queue in one vector with a head index.
///
/// pop_front() advances the head instead of shifting the storage. The vector
/// is cleared when the queue empties, and a queue that never empties drops
/// its consumed prefix once that prefix is at least half of the storage and
/// 64 entries long. A
/// queue in steady state therefore reuses its storage and allocates nothing,
/// where a std::deque allocates a block every few entries.

namespace cux::sim {

template <class T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size() - head_; }

  void push_back(T v) { items_.push_back(std::move(v)); }

  /// Removes the front entry and returns it.
  T pop_front() {
    T v = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  /// The queued entries, front first.
  [[nodiscard]] auto begin() noexcept { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() noexcept { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace cux::sim
