#include "hw/memory.hpp"

#include <cassert>
#include <new>

namespace cux::hw {

MemoryRegistry::~MemoryRegistry() {
  for (auto& [base, region] : backed_) {
    ::operator delete(reinterpret_cast<void*>(base), std::align_val_t{64});
  }
}

void* MemoryRegistry::allocDevice(int device, std::size_t size, bool backed) {
  assert(size > 0 && "zero-byte device allocations are not representable");
  if (!backed) return allocUnbacked(size, MemSpace::Device, device);
  void* p = ::operator new(size, std::align_val_t{64});
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  backed_.emplace(base, Region{base, size, MemSpace::Device, device, true});
  bytes_allocated_ += size;
  return p;
}

void* MemoryRegistry::allocHostUnbacked(std::size_t size) {
  assert(size > 0);
  return allocUnbacked(size, MemSpace::Host, -1);
}

void* MemoryRegistry::allocUnbacked(std::size_t size, MemSpace space, int device) {
  if (size > kMaxUnbackedBytes) throw std::bad_alloc{};
  std::size_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() == kMaxUnbackedRegions) throw std::bad_alloc{};
    slot = slots_.size();
    slots_.emplace_back();
  }
  const std::uintptr_t base =
      (std::uintptr_t{1} << kTagBit) | (static_cast<std::uintptr_t>(slot) << kOffsetBits);
  slots_[slot] = Region{base, size, space, device, false};
  bytes_allocated_ += size;
  return reinterpret_cast<void*>(base);
}

void MemoryRegistry::freeDevice(void* p) {
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  if (((base >> kTagBit) & 1) != 0) {
    const std::size_t slot = (base >> kOffsetBits) & (kMaxUnbackedRegions - 1);
    const bool live = slot < slots_.size() && slots_[slot].base == base && slots_[slot].size > 0;
    assert(live && "freeDevice of a pointer not from allocDevice");
    if (!live) return;
    bytes_allocated_ -= slots_[slot].size;
    slots_[slot].size = 0;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
    return;
  }
  auto it = backed_.find(base);
  assert(it != backed_.end() && "freeDevice of a pointer not from allocDevice");
  if (it == backed_.end()) return;
  bytes_allocated_ -= it->second.size;
  ::operator delete(p, std::align_val_t{64});
  backed_.erase(it);
}

const Region* MemoryRegistry::findBacked(std::uintptr_t addr) const {
  auto it = backed_.upper_bound(addr);
  if (it == backed_.begin()) return nullptr;
  --it;
  const Region& r = it->second;
  return addr < r.base + r.size ? &r : nullptr;
}

}  // namespace cux::hw
