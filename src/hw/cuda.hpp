#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hw/system.hpp"
#include "sim/fifo.hpp"
#include "sim/future.hpp"
#include "sim/time.hpp"

/// \file cuda.hpp
/// CUDA runtime shim over the simulated hardware.
///
/// Provides the subset of CUDA the paper's code paths exercise: device
/// allocation, in-order streams, asynchronous memcpy in all four directions,
/// kernel launches with a caller-supplied cost, and stream synchronisation.
/// Semantics match CUDA: API calls return immediately (their fixed CPU cost
/// is modelled inside the op timeline), ops on one stream execute in order,
/// and H2D/D2H copies contend for the GPU's NVLink brick with any concurrent
/// communication — which is exactly the resource pressure the host-staging
/// (-H) benchmark variants pay for.

namespace cux::cuda {

enum class MemcpyKind { HostToHost, HostToDevice, DeviceToHost, DeviceToDevice };

/// Allocates simulated device memory on GPU `device` (global index == PE in
/// the paper's one-process-per-GPU configuration). `backed` overrides the
/// machine default: true = real bytes (tests), false = address space only.
void* deviceAlloc(hw::System& sys, int device, std::size_t size);
void* deviceAlloc(hw::System& sys, int device, std::size_t size, bool backed);
void deviceFree(hw::System& sys, void* p);

/// RAII device buffer.
class DeviceBuffer {
 public:
  DeviceBuffer(hw::System& sys, int device, std::size_t size)
      : sys_(&sys), ptr_(deviceAlloc(sys, device, size)), size_(size) {}
  DeviceBuffer(hw::System& sys, int device, std::size_t size, bool backed)
      : sys_(&sys), ptr_(deviceAlloc(sys, device, size, backed)), size_(size) {}
  ~DeviceBuffer() {
    if (ptr_ != nullptr) deviceFree(*sys_, ptr_);
  }
  DeviceBuffer(DeviceBuffer&& o) noexcept : sys_(o.sys_), ptr_(o.ptr_), size_(o.size_) {
    o.ptr_ = nullptr;
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      if (ptr_ != nullptr) deviceFree(*sys_, ptr_);
      sys_ = o.sys_;
      ptr_ = o.ptr_;
      size_ = o.size_;
      o.ptr_ = nullptr;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] void* get() const noexcept { return ptr_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  template <class T>
  [[nodiscard]] T* as() const noexcept {
    return static_cast<T*>(ptr_);
  }

 private:
  hw::System* sys_;
  void* ptr_;
  std::size_t size_;
};

/// Host staging buffer for the -H variants. It follows the device-backing
/// rule: real host memory when backed, and an unbacked host-space region
/// (MemoryRegistry::allocHostUnbacked) otherwise. The unbacked form
/// classifies as host memory but holds no bytes, so timing-only runs copy
/// nothing that is never read, and paper-scale footprints (1536 PEs x 12
/// faces of ~19 MB) cost address space only. A zero-byte stage is nullptr.
class HostStage {
 public:
  HostStage() = default;
  void init(hw::System& sys, std::size_t n, bool backed);
  ~HostStage();
  /// Movable so per-rank state holding stages can live in a std::vector.
  HostStage(HostStage&& o) noexcept
      : sys_(o.sys_), ptr_(std::exchange(o.ptr_, nullptr)), storage_(std::move(o.storage_)) {}
  HostStage& operator=(HostStage&&) = delete;

  [[nodiscard]] void* get() const noexcept { return ptr_; }

 private:
  hw::System* sys_ = nullptr;
  void* ptr_ = nullptr;
  std::vector<std::byte> storage_;  ///< backed mode only
};

enum class OpKind : std::uint8_t { Memcpy, Kernel, Marker, Graph };

/// Device-side cost of one op, without the per-call CPU overheads: a copy
/// of `bytes` in direction `copy`, or a kernel of `kernel` device time.
struct OpCost {
  MemcpyKind copy = MemcpyKind::HostToHost;
  std::uint64_t bytes = 0;
  sim::Duration kernel = 0;
};

/// A node of an instantiated CUDA graph (see Graph).
struct GraphNode {
  OpKind kind = OpKind::Kernel;
  OpCost cost;
  std::function<void()> effect;
};

/// In-order execution stream bound to one GPU.
class Stream {
 public:
  Stream(hw::System& sys, int device) : sys_(sys), device_(device) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] int device() const noexcept { return device_; }

  /// Enqueues an asynchronous copy. Bytes actually move (when both sides are
  /// dereferenceable) at op completion time, so overlapping compute observes
  /// CUDA's deferred-visibility semantics.
  void memcpyAsync(void* dst, const void* src, std::size_t bytes, MemcpyKind kind);

  /// Effect run at an op's completion: a copy's byte movement or a kernel
  /// body. Capacity 40: the largest audited body is coll's combine kernel
  /// (rank, destination, source, count, op); a copy effect is 32 bytes.
  using Effect = sim::SmallFn<void(), 40>;

  /// Enqueues a kernel costing `cost` of device time; `body` (may be empty)
  /// runs at completion and performs the kernel's effect on backed memory.
  void launch(sim::Duration cost, Effect body = {});

  /// Future fulfilled when every op enqueued so far has completed (plus the
  /// fixed synchronisation overhead).
  [[nodiscard]] sim::Future<void> synchronize();

  /// True when no enqueued work remains.
  [[nodiscard]] bool idle() const noexcept { return !busy_; }

 private:
  friend class Graph;

  /// An op's timing is data; kick() turns it into a completion time.
  struct Op {
    OpKind kind = OpKind::Marker;
    OpCost cost;
    std::shared_ptr<const std::vector<GraphNode>> graph;  ///< OpKind::Graph only
    Effect effect;  ///< runs at completion
  };

  void enqueue(Op op);
  void kick();

  hw::System& sys_;
  int device_;
  sim::Fifo<Op> ops_;  ///< pending ops
  bool busy_ = false;
};

/// An instantiated CUDA graph: a linear chain of kernel/memcpy nodes (the
/// shape stream capture produces) submitted as ONE stream op. Launching
/// costs a single cuda_call_us + cuda_graph_launch_us for the whole chain
/// instead of cuda_call_us + kernel_launch_us per node — the amortisation
/// that makes many-chunk multi-path transfers pay one submission overhead.
/// Cheap to copy (nodes are shared, immutable) and reusable: every launch
/// replays the same chain.
class Graph {
 public:
  Graph() = default;

  /// Enqueues the whole node chain on `s` as one op. Node effects (byte
  /// movement, kernel bodies) all run at graph completion.
  void launch(Stream& s) const;

  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodes_ ? nodes_->size() : 0; }
  [[nodiscard]] bool empty() const noexcept { return nodeCount() == 0; }

 private:
  friend class GraphBuilder;

  std::shared_ptr<const std::vector<GraphNode>> nodes_;
};

/// Builds a Graph for one GPU, mirroring cudaGraphCreate/cudaGraphAddNode +
/// cudaGraphInstantiate. Nodes execute in insertion order; each charges its
/// device-side cost (compute reservation, copy-engine reservation) but NOT
/// the per-call CPU overheads, which the graph launch pays once.
class GraphBuilder {
 public:
  GraphBuilder(hw::System& sys, int device) : sys_(sys), device_(device) {}

  /// Adds a kernel node costing `cost` device time; `body` runs at graph
  /// completion.
  GraphBuilder& addKernel(sim::Duration cost, std::function<void()> body = {});

  /// Adds a memcpy node (same link/engine costs as Stream::memcpyAsync,
  /// minus the per-call enqueue overhead).
  GraphBuilder& addMemcpy(void* dst, const void* src, std::size_t bytes, MemcpyKind kind);

  /// Freezes the accumulated nodes into a launchable Graph; the builder is
  /// left empty and can build another graph.
  [[nodiscard]] Graph instantiate();

 private:
  hw::System& sys_;
  int device_;
  std::vector<GraphNode> nodes_;
};

/// Classifies a (dst, src) pointer pair the way cudaMemcpyDefault would.
MemcpyKind inferKind(hw::System& sys, const void* dst, const void* src);

/// Performs the byte movement for a completed copy if both ends are
/// dereferenceable (exposed for the UCX transports, which share the rule).
void moveBytes(hw::System& sys, void* dst, const void* src, std::size_t bytes);

}  // namespace cux::cuda
