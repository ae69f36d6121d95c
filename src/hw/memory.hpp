#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

/// \file memory.hpp
/// Simulated device memory and pointer classification.
///
/// Mirrors what cudaPointerGetAttributes provides on a real system: given an
/// arbitrary pointer, decide whether it lives on a (simulated) GPU and which
/// one. Device allocations come in two flavours:
///
/// * **backed** — real host memory stands in for device memory, so copies
///   move actual bytes and tests can verify end-to-end data integrity;
/// * **unbacked** — synthetic addresses with no memory behind them, used by
///   the large-scale figure benches where the paper's domains (e.g. 3072^3
///   doubles) would need terabytes. Timing is identical; only the byte
///   movement is skipped.
///
/// An unbacked address encodes its region: bit 55 is the tag, bits 36..54
/// the index of the region's slot, bits 0..35 the offset into the region.
/// The tag lies above the 47-bit user address space, so no host allocation
/// ever carries it, and below the top byte, which aarch64 top-byte-ignore
/// would strip. Classifying such a pointer is a slot lookup, and allocating
/// or freeing one makes no system call. Dereferencing one faults: on x86-64
/// the address is non-canonical under 4-level paging and never mapped under
/// 5-level paging (Linux maps above 47 bits only on request), and on aarch64
/// it lies outside both translation ranges.

namespace cux::hw {

enum class MemSpace { Host, Device };

struct Region {
  std::uintptr_t base = 0;
  std::size_t size = 0;
  MemSpace space = MemSpace::Device;
  int device = -1;      ///< global GPU index (pe number in the 1-PE-per-GPU setup)
  bool backed = false;  ///< true when the address range is dereferenceable
};

class MemoryRegistry {
 public:
  /// Unbacked address layout (see the file comment).
  static constexpr unsigned kTagBit = 55;
  static constexpr unsigned kOffsetBits = 36;
  static constexpr unsigned kSlotBits = kTagBit - kOffsetBits;
  /// Largest unbacked region (64 GiB) and most live unbacked regions.
  static constexpr std::size_t kMaxUnbackedBytes = std::size_t{1} << kOffsetBits;
  static constexpr std::size_t kMaxUnbackedRegions = std::size_t{1} << kSlotBits;

  MemoryRegistry() = default;
  ~MemoryRegistry();
  MemoryRegistry(const MemoryRegistry&) = delete;
  MemoryRegistry& operator=(const MemoryRegistry&) = delete;

  /// Allocates `size` bytes of simulated device memory on GPU `device`.
  /// An unbacked region larger than kMaxUnbackedBytes, or one more than
  /// kMaxUnbackedRegions live, throws std::bad_alloc.
  void* allocDevice(int device, std::size_t size, bool backed);

  /// Allocates an *unbacked* host-space region: an address that classifies
  /// as host memory but is never dereferenced. cuda::HostStage uses this for
  /// unbacked staging buffers, whose bytes nothing reads and whose paper-size
  /// footprint (hundreds of GB over 1536 simulated PEs) would not fit in RAM.
  void* allocHostUnbacked(std::size_t size);

  /// Releases a pointer returned by allocDevice()/allocHostUnbacked().
  /// Passing any other pointer is a precondition violation (asserts in debug
  /// builds).
  void freeDevice(void* p);

  /// Region containing `p`, or nullptr for ordinary host memory.
  [[nodiscard]] const Region* find(const void* p) const {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    if (((addr >> kTagBit) & 1) != 0) {
      const std::size_t slot = (addr >> kOffsetBits) & (kMaxUnbackedRegions - 1);
      if (slot >= slots_.size()) return nullptr;
      const Region& r = slots_[slot];
      // A free slot has size 0, so it contains no address.
      return (addr & (kMaxUnbackedBytes - 1)) < r.size ? &r : nullptr;
    }
    return backed_.empty() ? nullptr : findBacked(addr);
  }

  [[nodiscard]] bool isDevice(const void* p) const {
    const Region* r = find(p);
    return r != nullptr && r->space == MemSpace::Device;
  }
  [[nodiscard]] MemSpace spaceOf(const void* p) const {
    return isDevice(p) ? MemSpace::Device : MemSpace::Host;
  }

  /// GPU index owning `p`, or -1 for host memory.
  [[nodiscard]] int deviceOf(const void* p) const {
    const Region* r = find(p);
    return (r != nullptr && r->space == MemSpace::Device) ? r->device : -1;
  }

  /// True when `p` may actually be read/written: host memory or a backed
  /// device region. The data-movement layer consults this before memcpy.
  [[nodiscard]] bool dereferenceable(const void* p) const {
    const Region* r = find(p);
    return r == nullptr || r->backed;
  }

  [[nodiscard]] std::size_t liveAllocations() const noexcept {
    return backed_.size() + slots_.size() - free_slots_.size();
  }
  [[nodiscard]] std::uint64_t bytesAllocated() const noexcept { return bytes_allocated_; }

 private:
  void* allocUnbacked(std::size_t size, MemSpace space, int device);
  [[nodiscard]] const Region* findBacked(std::uintptr_t addr) const;

  std::map<std::uintptr_t, Region> backed_;  // keyed by base address
  std::vector<Region> slots_;                // unbacked regions by slot index
  std::vector<std::uint32_t> free_slots_;    // reused last-freed first
  std::uint64_t bytes_allocated_ = 0;
};

}  // namespace cux::hw
