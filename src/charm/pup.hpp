#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

/// \file pup.hpp
/// PUP-lite: the pack/unpack serialisation Charm++ applies to entry-method
/// parameters, reduced to the types the reproduction needs. Real Charm++
/// generates this from .ci files; here the entry-method templates drive it.
///
/// Supported: trivially copyable values, std::vector of trivially copyable
/// elements, std::string, and HostBytes runs. GPU buffers never flow through
/// here — they are handled by the CkDeviceBuffer machinery (paper Section
/// III-B).

namespace cux::ck {

/// A run of host bytes packed inline: a kind byte, a length word, then the
/// bytes. A null `data` with a nonzero `size` is an *unbacked run*: its
/// source holds no bytes in the simulation (cuda::HostStage without
/// backing), so the kind byte says RunKind::Unbacked and nothing follows the
/// length. Unpacked, `data` points into the message, or is null for an
/// unbacked run.
struct HostBytes {
  const void* data = nullptr;
  std::uint64_t size = 0;
};

/// Kind byte of a packed HostBytes run. Zero is left free: a Charm++ buffer
/// header starts with the same byte, and zero marks a rendezvous buffer.
enum class RunKind : std::uint8_t { Bytes = 1, Unbacked = 2 };

template <class T>
concept TriviallyPackable = std::is_trivially_copyable_v<T> && !std::is_pointer_v<T> &&
                            !std::is_same_v<T, HostBytes>;

template <class T>
struct IsPupVector : std::false_type {};
template <class T, class A>
struct IsPupVector<std::vector<T, A>> : std::bool_constant<TriviallyPackable<T>> {};

template <class T>
concept Packable = TriviallyPackable<T> || IsPupVector<T>::value ||
                   std::is_same_v<T, std::string> || std::is_same_v<T, HostBytes>;

/// Bytes Packer::pack(v) appends for `v`, so a message can be sized before
/// it is packed.
template <TriviallyPackable T>
[[nodiscard]] constexpr std::size_t packedSize(const T&) noexcept {
  return sizeof(T);
}
template <class T, class A>
  requires TriviallyPackable<T>
[[nodiscard]] std::size_t packedSize(const std::vector<T, A>& v) noexcept {
  return sizeof(std::uint64_t) + v.size() * sizeof(T);
}
[[nodiscard]] inline std::size_t packedSize(const std::string& s) noexcept {
  return sizeof(std::uint64_t) + s.size();
}
[[nodiscard]] inline std::size_t packedSize(const HostBytes& b) noexcept {
  return 1 + sizeof(std::uint64_t) + (b.data != nullptr ? b.size : 0);
}

class Packer {
 public:
  Packer() = default;
  /// Starts the message with `head` bytes that a lower layer fills in later
  /// (the Converse header) and room for `capacity` bytes in total, so a
  /// message sized up front is allocated once and each byte written once.
  Packer(std::size_t head, std::size_t capacity) {
    buf_.reserve(capacity);
    buf_.resize(head);
  }

  template <TriviallyPackable T>
  void pack(const T& v) {
    raw(&v, sizeof(T));
  }

  template <class T, class A>
    requires TriviallyPackable<T>
  void pack(const std::vector<T, A>& v) {
    const std::uint64_t n = v.size();
    pack(n);
    raw(v.data(), n * sizeof(T));
    bulk_bytes_ += n * sizeof(T);
  }

  void pack(const std::string& s) {
    const std::uint64_t n = s.size();
    pack(n);
    raw(s.data(), n);
    bulk_bytes_ += n;
  }

  void pack(const HostBytes& b) {
    if (b.data == nullptr && b.size > 0) {
      unbacked(b.size);
      return;
    }
    pack(RunKind::Bytes);
    pack(b.size);
    raw(b.data, b.size);
    bulk_bytes_ += b.size;
  }

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Packs an unbacked run of `n` bytes: its kind byte and length word only.
  /// The run still counts in logicalSize() and bulkBytes(), so the wire and
  /// the modelled copies see the same bytes as for a backed source.
  void unbacked(std::uint64_t n) {
    pack(RunKind::Unbacked);
    pack(n);
    unbacked_bytes_ += n;
    bulk_bytes_ += n;
  }

  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// Bytes the message counts but does not carry (its unbacked runs):
  /// size() plus these is the message's logical size, its length on the wire.
  [[nodiscard]] std::uint64_t unbackedBytes() const noexcept { return unbacked_bytes_; }
  /// Bytes that correspond to bulk payload copies (for memcpy cost charging).
  [[nodiscard]] std::uint64_t bulkBytes() const noexcept { return bulk_bytes_; }

 private:
  std::vector<std::byte> buf_;
  std::uint64_t unbacked_bytes_ = 0;
  std::uint64_t bulk_bytes_ = 0;
};

class Unpacker {
 public:
  explicit Unpacker(std::span<const std::byte> data, std::size_t offset = 0)
      : data_(data), off_(offset) {}

  template <class T>
  [[nodiscard]] T unpack() {
    if constexpr (TriviallyPackable<T>) {
      T v{};
      read(&v, sizeof(T));
      return v;
    } else if constexpr (IsPupVector<T>::value) {
      using E = typename T::value_type;
      const auto n = unpack<std::uint64_t>();
      if constexpr (sizeof(E) == 1) {
        // Byte vectors are built straight from the message range.
        const auto* b = reinterpret_cast<const E*>(cursor());
        skip(n);
        return T(b, b + n);
      } else {
        T v(n);
        read(v.data(), n * sizeof(E));
        return v;
      }
    } else if constexpr (std::is_same_v<T, HostBytes>) {
      const auto kind = unpack<RunKind>();
      const auto n = unpack<std::uint64_t>();
      assert((kind == RunKind::Bytes || kind == RunKind::Unbacked) && "not a HostBytes run");
      if (kind == RunKind::Unbacked) return HostBytes{nullptr, n};
      const std::byte* b = cursor();
      skip(n);
      return HostBytes{b, n};
    } else {
      static_assert(std::is_same_v<T, std::string>, "type not packable");
      const auto n = unpack<std::uint64_t>();
      const auto* b = reinterpret_cast<const char*>(cursor());
      skip(n);
      return std::string(b, n);
    }
  }

  void read(void* p, std::size_t n) {
    assert(off_ + n <= data_.size() && "unpack past end of message");
    if (n > 0) std::memcpy(p, data_.data() + off_, n);
    off_ += n;
  }

  void skip(std::size_t n) {
    assert(off_ + n <= data_.size());
    off_ += n;
  }

  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] const std::byte* cursor() const noexcept { return data_.data() + off_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - off_; }

 private:
  std::span<const std::byte> data_;
  std::size_t off_;
};

}  // namespace cux::ck
