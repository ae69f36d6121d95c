#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/config.hpp"
#include "hw/util.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

/// \file machine.hpp
/// Link-level model of the simulated cluster.
///
/// Every physical resource that serialises data movement (an NVLink brick
/// direction, the X-Bus, a NIC direction, the per-node shared-memory copy
/// engine) is a Link with FIFO occupancy: a transfer reserves the link from
/// max(now, link.free) for bytes/bandwidth, so concurrent transfers contend
/// and chunked transfers pipeline across consecutive links naturally.

namespace cux::hw {

/// One direction of a physical link.
class Link {
 public:
  Link(std::string name, LinkParams p) : name_(std::move(name)), params_(p) {}

  /// Reserves the link for `bytes` starting no earlier than `now`.
  /// Returns the time at which the last byte has traversed the link
  /// (start + latency + bytes/bandwidth).
  sim::TimePoint reserve(sim::TimePoint now, std::uint64_t bytes) {
    sim::TimePoint start = now > free_ ? now : free_;
    sim::Duration busy = sim::transferTime(bytes, params_.bandwidth_gbps);
    free_ = start + busy;
    if (util_ != nullptr) util_->busy(util_id_, start, free_);
    return start + sim::usec(params_.latency_us) + busy;
  }

  /// Earliest time a new transfer could start moving bytes.
  [[nodiscard]] sim::TimePoint freeAt() const noexcept { return free_; }

  /// Directly extends the link's occupancy; used by the wormhole transfer
  /// model which computes start times itself.
  void setFreeAt(sim::TimePoint t) noexcept {
    if (t > free_) free_ = t;
  }

  /// Points utilization accounting at `u` (null detaches). The wormhole
  /// transfer model calls recordBusy with the interval it computed itself.
  void attachUtil(UtilRecorder* u, int id) noexcept {
    util_ = u;
    util_id_ = id;
  }
  void recordBusy(sim::TimePoint start, sim::TimePoint end) {
    if (util_ != nullptr) util_->busy(util_id_, start, end);
  }

  [[nodiscard]] const LinkParams& params() const noexcept { return params_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  void reset() noexcept { free_ = 0; }

 private:
  std::string name_;
  LinkParams params_;
  sim::TimePoint free_ = 0;
  UtilRecorder* util_ = nullptr;
  int util_id_ = -1;
};

/// Identifies a GPU across the whole machine.
struct GpuId {
  int node = 0;
  int local = 0;  ///< index within the node

  friend bool operator==(const GpuId&, const GpuId&) = default;
};

/// An ordered sequence of links data crosses, store-and-forward.
///
/// Fixed inline capacity: the deepest route the topology produces is a
/// neighbor-staged intra-node hop (GPU egress + X-Bus + neighbor ingress +
/// neighbor egress + X-Bus + GPU ingress, 6 links), so building a path on
/// the per-message hot path never touches the heap. The capacity leaves
/// headroom for composed egress/host/ingress segments. Overflowing the
/// capacity throws in every build mode: a silently dropped or overwritten
/// hop would corrupt timing, not crash.
class Path {
 public:
  static constexpr std::size_t kMaxLinks = 8;

  Path() = default;
  Path(std::initializer_list<Link*> ls) {
    for (Link* l : ls) push_back(l);
  }

  void push_back(Link* l) {
    if (n_ >= kMaxLinks) throw std::length_error("hw::Path: inline capacity exceeded");
    links_[n_++] = l;
  }
  /// Concatenates `other`'s links after this path's.
  void append(const Path& other) {
    for (Link* l : other) push_back(l);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  Link* operator[](std::size_t i) const noexcept { return links_[i]; }
  [[nodiscard]] Link* const* begin() const noexcept { return links_.data(); }
  [[nodiscard]] Link* const* end() const noexcept { return links_.data() + n_; }

 private:
  std::array<Link*, kMaxLinks> links_{};
  std::uint8_t n_ = 0;
};

/// A serially-shared execution resource (e.g. a GPU's SM array): work items
/// occupy it back to back regardless of which stream issued them.
class Resource {
 public:
  /// Occupies the resource for `duration` starting no earlier than `now`;
  /// returns the completion time.
  sim::TimePoint reserve(sim::TimePoint now, sim::Duration duration) {
    const sim::TimePoint start = now > free_ ? now : free_;
    free_ = start + duration;
    if (util_ != nullptr) util_->busy(util_id_, start, free_);
    return free_;
  }
  [[nodiscard]] sim::TimePoint freeAt() const noexcept { return free_; }
  void attachUtil(UtilRecorder* u, int id) noexcept {
    util_ = u;
    util_id_ = id;
  }
  void reset() noexcept { free_ = 0; }

 private:
  sim::TimePoint free_ = 0;
  UtilRecorder* util_ = nullptr;
  int util_id_ = -1;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] GpuId gpuOfPe(int pe) const noexcept {
    return GpuId{pe / cfg_.gpus_per_node, pe % cfg_.gpus_per_node};
  }
  [[nodiscard]] int nodeOfPe(int pe) const noexcept { return pe / cfg_.gpus_per_node; }
  [[nodiscard]] bool sameNode(int pe_a, int pe_b) const noexcept {
    return nodeOfPe(pe_a) == nodeOfPe(pe_b);
  }

  // --- link accessors ----------------------------------------------------
  /// GPU -> socket hub direction of a GPU's NVLink brick (device-to-host and
  /// peer-to-peer egress share this resource). `brick` selects one of
  /// `MachineConfig::nvlink_bricks` independent bricks; brick 0 is the one
  /// every single-route protocol uses.
  [[nodiscard]] Link& gpuUp(GpuId g, int brick = 0) { return links_[gpuUpIdx(g, brick)]; }
  /// Socket hub -> GPU direction (host-to-device and peer ingress).
  [[nodiscard]] Link& gpuDown(GpuId g, int brick = 0) { return links_[gpuDownIdx(g, brick)]; }
  /// X-Bus direction from socket `from_socket` on `node`.
  [[nodiscard]] Link& xbus(int node, int from_socket) { return links_[xbusIdx(node, from_socket)]; }
  /// NIC injection (node -> fabric) on `rail` (of MachineConfig::nic_rails).
  [[nodiscard]] Link& nicUp(int node, int rail = 0) { return links_[nicUpIdx(node, rail)]; }
  /// NIC ejection (fabric -> node) on `rail`.
  [[nodiscard]] Link& nicDown(int node, int rail = 0) { return links_[nicDownIdx(node, rail)]; }
  /// Per-node host shared-memory copy engine (CMA / user-space shm).
  [[nodiscard]] Link& shm(int node) { return links_[shmIdx(node)]; }
  /// Per-GPU compute engine: kernels from any stream of the device
  /// serialise on it (one SM array per GPU).
  [[nodiscard]] Resource& gpuCompute(GpuId g) {
    return compute_[static_cast<std::size_t>(g.node * cfg_.gpus_per_node + g.local)];
  }

  // --- path construction ---------------------------------------------------
  /// Direct GPU-to-GPU path (NVLink peer, possibly through X-Bus, or staged
  /// through both NICs inter-node). This is what CUDA-IPC-style transports
  /// and GPUDirect-style transfers traverse.
  [[nodiscard]] Path deviceToDevicePath(int src_pe, int dst_pe);

  /// Host-memory-to-host-memory path between two PEs (shared memory within a
  /// node, NIC-to-NIC across nodes).
  [[nodiscard]] Path hostToHostPath(int src_pe, int dst_pe);

  /// One candidate route of a multi-path device-to-device transfer.
  struct Route {
    Path path;
    /// Static label: "direct" (NVLink peer), "staged" (through a neighbor
    /// GPU's brick), "host" (shm bounce), or "rail" (inter-node NIC rail).
    const char* kind = "direct";
    int rail = -1;  ///< NIC rail index, inter-node routes only
  };

  /// Enumerates the candidate routes for a device-to-device transfer, in a
  /// deterministic order that PathScheduler's tie-break relies on.
  ///
  /// Intra-node: the direct NVLink-peer route on brick 0 first, then up to
  /// `max_staged` routes staged through a neighbor GPU's brick (neighbors on
  /// the source's socket first, ascending local index; staged route k uses
  /// brick min(k+1, bricks-1) end to end so it does not serialise with the
  /// direct route when bricks >= 2), then — when `host_bounce` — the
  /// device->host->device shm bounce on the highest brick. Inter-node: one
  /// GPUDirect-style route per NIC rail, rails ascending, striped across
  /// bricks. Same-GPU transfers have no route (empty result).
  [[nodiscard]] std::vector<Route> deviceRoutes(int src_pe, int dst_pe, int max_staged,
                                                bool host_bounce);

  /// Device-to-host-staging path on the sender side (GPU egress only), and
  /// its mirror on the receiver; used for pipelined rendezvous staging.
  [[nodiscard]] Path deviceEgressPath(int pe) { return {&gpuUp(gpuOfPe(pe))}; }
  [[nodiscard]] Path deviceIngressPath(int pe) { return {&gpuDown(gpuOfPe(pe))}; }

  /// Moves `bytes` across `path` starting no earlier than `now` and returns
  /// the arrival time of the last byte at the path's end.
  ///
  /// Uses a wormhole/cut-through approximation: the head of the message
  /// proceeds to link i+1 after link i's latency, each link is occupied for
  /// bytes/bandwidth starting when the head reaches it (FIFO per link), and
  /// the tail cannot arrive before the slowest link has drained. A single
  /// network hop therefore costs sum(latencies) + bytes/min(bandwidth), not
  /// the store-and-forward sum of serialised transfers.
  sim::TimePoint transfer(const Path& path, sim::TimePoint now, std::uint64_t bytes);

  /// Traversal time of a small control message (RTS/CTS/ATS headers) along
  /// `path`: latency plus serialisation, WITHOUT occupying the links. Control
  /// traffic is tens of bytes; reserving link occupancy for it — especially
  /// at future timestamps, as rendezvous acknowledgements would — distorts
  /// the FIFO occupancy model far more than the bytes themselves justify.
  [[nodiscard]] static sim::TimePoint ctrlTransfer(const Path& path, sim::TimePoint now,
                                                   std::uint64_t bytes);

  /// Registers every link and GPU compute engine with `u` (classified by the
  /// link layout: NVLink bricks, X-Bus, NIC rails, shm, SM arrays) and
  /// attaches the recorder so subsequent reservations are accounted.
  void attachUtil(UtilRecorder& u);
  /// Detaches utilization accounting from every link and compute engine.
  void detachUtil();

  void resetOccupancy();

 private:
  /// Links per node under the brick/rail-aware layout (see machine.cpp).
  [[nodiscard]] std::size_t perNodeLinks() const noexcept;
  [[nodiscard]] std::size_t gpuUpIdx(GpuId g, int brick) const noexcept;
  [[nodiscard]] std::size_t gpuDownIdx(GpuId g, int brick) const noexcept;
  [[nodiscard]] std::size_t xbusIdx(int node, int from_socket) const noexcept;
  [[nodiscard]] std::size_t nicUpIdx(int node, int rail) const noexcept;
  [[nodiscard]] std::size_t nicDownIdx(int node, int rail) const noexcept;
  [[nodiscard]] std::size_t shmIdx(int node) const noexcept;

  MachineConfig cfg_;
  std::vector<Link> links_;
  std::vector<Resource> compute_;  ///< one per GPU
};

}  // namespace cux::hw
