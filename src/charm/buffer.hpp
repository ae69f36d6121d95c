#pragma once

#include <cstdint>
#include <utility>

#include "core/device_comm.hpp"

/// \file buffer.hpp
/// CkDeviceBuffer (paper Fig. 5): wraps the address of a source GPU buffer
/// on the sender, carries the machine-layer tag inside the metadata message,
/// and on the receiver carries the destination address the user supplies in
/// the post entry method.
///
/// The same type also implements the Zero Copy API path for large host
/// buffers: the runtime classifies the pointer's memory space and picks the
/// protocol, so user code is identical for host and device payloads.

namespace cux::ck {

class Buffer {
 public:
  /// The first byte of a buffer's wire header. A packed buffer is a
  /// HostBytes run, so its header byte is the run's kind byte (never Rndv).
  enum class Mode : std::uint8_t {
    Rndv,    ///< transferred separately under a machine-layer tag
    Packed,  ///< small host payload packed into the metadata message
  };

  Buffer() = default;

  /// Sender side: wrap a source buffer (device memory, or host memory for
  /// the Zero Copy path).
  Buffer(const void* src, std::uint64_t size) : src_(src), size_(size) {}

  /// Sender side: callback invoked on the sending PE when the buffer is
  /// safe to reuse (the CkCallback stored in CkDeviceBuffer). The buffer is
  /// move-only because of it; the send moves the callback down to the
  /// machine layer.
  Buffer& onSent(core::DoneFn cb) {
    on_sent_ = std::move(cb);
    return *this;
  }

  /// Receiver post entry: supply the destination buffer. `capacity` must be
  /// at least size(); the regular entry method then sees data() == dst.
  void setDestination(void* dst, std::uint64_t capacity) {
    dst_ = dst;
    capacity_ = capacity;
  }

  /// Receiver regular entry: the received data.
  [[nodiscard]] void* data() const noexcept { return dst_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  // --- internal (runtime) --------------------------------------------------
  [[nodiscard]] const void* source() const noexcept { return src_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t tag() const noexcept { return tag_; }
  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] core::DoneFn takeSentCallback() noexcept { return std::move(on_sent_); }
  void internalSetTag(std::uint64_t t) noexcept { tag_ = t; }
  void internalSetMode(Mode m) noexcept { mode_ = m; }
  void internalSetSize(std::uint64_t s) noexcept { size_ = s; }

 private:
  const void* src_ = nullptr;
  void* dst_ = nullptr;
  std::uint64_t size_ = 0;
  std::uint64_t capacity_ = 0;
  std::uint64_t tag_ = 0;
  Mode mode_ = Mode::Rndv;
  core::DoneFn on_sent_;
};

/// Paper-facing alias: the Charm++ core's metadata object.
using CkDeviceBuffer = Buffer;

}  // namespace cux::ck
