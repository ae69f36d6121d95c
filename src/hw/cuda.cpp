#include "hw/cuda.hpp"

#include <cassert>
#include <cstring>
#include <utility>

namespace cux::cuda {

void* deviceAlloc(hw::System& sys, int device, std::size_t size) {
  return deviceAlloc(sys, device, size, sys.config.backed_device_memory);
}

void* deviceAlloc(hw::System& sys, int device, std::size_t size, bool backed) {
  return sys.memory.allocDevice(device, size, backed);
}

void deviceFree(hw::System& sys, void* p) { sys.memory.freeDevice(p); }

void HostStage::init(hw::System& sys, std::size_t n, bool backed) {
  assert(ptr_ == nullptr && "HostStage initialised twice");
  sys_ = &sys;
  if (n == 0) return;
  if (backed) {
    storage_.resize(n);
    ptr_ = storage_.data();
  } else {
    ptr_ = sys.memory.allocHostUnbacked(n);
  }
}

HostStage::~HostStage() {
  if (ptr_ != nullptr && storage_.empty()) sys_->memory.freeDevice(ptr_);
}

MemcpyKind inferKind(hw::System& sys, const void* dst, const void* src) {
  const bool d_dev = sys.memory.isDevice(dst);
  const bool s_dev = sys.memory.isDevice(src);
  if (d_dev && s_dev) return MemcpyKind::DeviceToDevice;
  if (d_dev) return MemcpyKind::HostToDevice;
  if (s_dev) return MemcpyKind::DeviceToHost;
  return MemcpyKind::HostToHost;
}

void moveBytes(hw::System& sys, void* dst, const void* src, std::size_t bytes) {
  if (bytes == 0 || dst == src) return;
  if (!sys.memory.dereferenceable(dst) || !sys.memory.dereferenceable(src)) return;
  std::memcpy(dst, src, bytes);
}

namespace {

/// Completion time of a copy or kernel started at `start` on `device`:
/// copies reserve the GPU's NVLink brick or HBM, kernels its SM array.
/// Shared by stream ops (after their call overheads) and graph nodes
/// (without them).
sim::TimePoint deviceFinish(hw::System& sys, int device, OpKind kind, const OpCost& cost,
                            sim::TimePoint start) {
  const hw::MachineConfig& cfg = sys.config;
  const hw::GpuId gpu = sys.machine.gpuOfPe(device);
  if (kind == OpKind::Kernel) {
    // Kernels from every stream of this GPU serialise on its SM array.
    return sys.machine.gpuCompute(gpu).reserve(start, cost.kernel);
  }
  switch (cost.copy) {
    case MemcpyKind::HostToDevice:
      return sys.machine.gpuDown(gpu).reserve(start + sim::usec(cfg.cuda_copy_latency_us),
                                              cost.bytes);
    case MemcpyKind::DeviceToHost:
      return sys.machine.gpuUp(gpu).reserve(start + sim::usec(cfg.cuda_copy_latency_us),
                                            cost.bytes);
    case MemcpyKind::DeviceToDevice:
      // Same-device copy: read + write through HBM.
      return start + sim::usec(cfg.cuda_copy_latency_us) +
             sim::transferTime(2 * cost.bytes, cfg.gpu_mem_bandwidth_gbps);
    case MemcpyKind::HostToHost:
      return start + sim::transferTime(cost.bytes, cfg.host_memcpy_gbps);
  }
  return start;
}

}  // namespace

void Stream::memcpyAsync(void* dst, const void* src, std::size_t bytes, MemcpyKind kind) {
  hw::System& sys = sys_;
  enqueue(Op{OpKind::Memcpy, OpCost{kind, bytes, 0}, nullptr,
             [&sys, dst, src, bytes] { moveBytes(sys, dst, src, bytes); }});
}

void Stream::launch(sim::Duration cost, Effect body) {
  sys_.trace.record(sys_.engine.now(), sim::TraceCat::Kernel, device_, -1, 0, 0, "launch");
  enqueue(Op{OpKind::Kernel, OpCost{MemcpyKind::HostToHost, 0, cost}, nullptr, std::move(body)});
}

sim::Future<void> Stream::synchronize() {
  sim::Promise<void> done;
  const sim::Duration sync_cost = sim::usec(sys_.config.cuda_sync_us);
  if (!busy_) {
    sys_.engine.after(sync_cost, [done] { done.set(); });
    return done.future();
  }
  // Zero-cost marker op: completes when everything before it has.
  sim::Engine& engine = sys_.engine;
  enqueue(Op{OpKind::Marker, OpCost{}, nullptr,
             [done, sync_cost, &engine] { engine.after(sync_cost, [done] { done.set(); }); }});
  return done.future();
}

GraphBuilder& GraphBuilder::addKernel(sim::Duration cost, std::function<void()> body) {
  nodes_.push_back(GraphNode{OpKind::Kernel, OpCost{MemcpyKind::HostToHost, 0, cost},
                             std::move(body)});
  return *this;
}

GraphBuilder& GraphBuilder::addMemcpy(void* dst, const void* src, std::size_t bytes,
                                      MemcpyKind kind) {
  hw::System& sys = sys_;
  nodes_.push_back(GraphNode{OpKind::Memcpy, OpCost{kind, bytes, 0},
                             [&sys, dst, src, bytes] { moveBytes(sys, dst, src, bytes); }});
  return *this;
}

Graph GraphBuilder::instantiate() {
  Graph g;
  g.nodes_ = std::make_shared<const std::vector<GraphNode>>(std::move(nodes_));
  nodes_.clear();
  return g;
}

void Graph::launch(Stream& s) const {
  hw::System& sys = s.sys_;
  sys.trace.record(sys.engine.now(), sim::TraceCat::Kernel, s.device_, -1, nodeCount(), 0,
                   "graph-launch");
  s.enqueue(Stream::Op{OpKind::Graph, OpCost{}, nodes_, [nodes = nodes_] {
                         if (!nodes) return;
                         for (const GraphNode& n : *nodes) {
                           if (n.effect) n.effect();
                         }
                       }});
}

void Stream::enqueue(Op op) {
  ops_.push_back(std::move(op));
  if (!busy_) kick();
}

void Stream::kick() {
  if (ops_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Op op = ops_.pop_front();
  const hw::MachineConfig& cfg = sys_.config;
  sim::TimePoint finish = sys_.engine.now();
  switch (op.kind) {
    case OpKind::Memcpy:
      finish =
          deviceFinish(sys_, device_, op.kind, op.cost, finish + sim::usec(cfg.cuda_call_us));
      break;
    case OpKind::Kernel:
      finish = deviceFinish(sys_, device_, op.kind, op.cost,
                            finish + sim::usec(cfg.cuda_call_us) +
                                sim::usec(cfg.kernel_launch_us));
      break;
    case OpKind::Marker:
      break;
    case OpKind::Graph:
      // One submission overhead for the whole chain; nodes pay device time only.
      finish += sim::usec(cfg.cuda_call_us) + sim::usec(cfg.cuda_graph_launch_us);
      if (op.graph) {
        for (const GraphNode& n : *op.graph) {
          finish = deviceFinish(sys_, device_, n.kind, n.cost, finish);
        }
      }
      break;
  }
  sys_.engine.schedule(finish, [this, effect = std::move(op.effect)]() mutable {
    effect();
    kick();
  });
}

}  // namespace cux::cuda
