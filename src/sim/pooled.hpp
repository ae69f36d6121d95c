#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

/// \file pooled.hpp
/// Shared ownership without `std::make_shared`: `Pooled<T>` is a handle to a
/// T carrying an intrusive, non-atomic reference count, and its storage is
/// recycled through a per-type free list. The simulated machine runs on one
/// OS thread, so the count needs no atomics. A steady state that creates and
/// drops one object per message reuses the same few blocks and never calls
/// the allocator (the same policy as the UCX request pool, request.hpp).

namespace cux::sim {

template <class T>
class Pooled {
 public:
  Pooled() noexcept = default;
  Pooled(const Pooled& o) noexcept : box_(o.box_) {
    if (box_) ++box_->refs;
  }
  Pooled(Pooled&& o) noexcept : box_(std::exchange(o.box_, nullptr)) {}
  Pooled& operator=(Pooled o) noexcept {
    std::swap(box_, o.box_);
    return *this;
  }
  ~Pooled() { release(); }

  /// A new T built from `args`, in a recycled block when one is free.
  template <class... A>
  [[nodiscard]] static Pooled make(A&&... args) {
    void* mem = nullptr;
    if (free_head_ != nullptr) {
      mem = free_head_;
      free_head_ = free_head_->next;
      --free_count_;
    } else {
      mem = ::operator new(sizeof(Box));
    }
    Pooled p;
    p.box_ = ::new (mem) Box{T(std::forward<A>(args)...), 1};
    return p;
  }

  [[nodiscard]] T* get() const noexcept { return box_ ? &box_->value : nullptr; }
  [[nodiscard]] T* operator->() const noexcept { return &box_->value; }
  [[nodiscard]] T& operator*() const noexcept { return box_->value; }
  [[nodiscard]] explicit operator bool() const noexcept { return box_ != nullptr; }
  [[nodiscard]] bool operator==(const Pooled& o) const noexcept { return box_ == o.box_; }

 private:
  struct Box {
    T value;
    std::uint32_t refs;
  };
  struct FreeBlock {
    FreeBlock* next;
  };
  static_assert(sizeof(Box) >= sizeof(FreeBlock));

  /// Retention cap: blocks beyond it go back to the allocator, so a burst of
  /// live objects does not pin its peak footprint.
  static constexpr std::size_t kMaxFree = 4096;

  void release() noexcept {
    if (box_ == nullptr || --box_->refs != 0) return;
    Box* b = std::exchange(box_, nullptr);
    b->~Box();
    if (free_count_ < kMaxFree) {
      free_head_ = ::new (static_cast<void*>(b)) FreeBlock{free_head_};
      ++free_count_;
    } else {
      drop(b);
    }
  }

  /// Out of line: GCC's -Wuse-after-free cannot follow the refcount and
  /// flags the recycled-block paths once this delete is inlined beside them.
  [[gnu::noinline, gnu::cold]] static void drop(Box* b) noexcept {
    ::operator delete(static_cast<void*>(b));
  }

  Box* box_ = nullptr;
  inline static FreeBlock* free_head_ = nullptr;
  inline static std::size_t free_count_ = 0;
};

}  // namespace cux::sim
