#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "converse/pe.hpp"
#include "core/tag_scheme.hpp"
#include "hw/system.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

/// \file converse.hpp
/// The Converse layer: PE schedulers, the handler table, and host-message
/// transport over the UCX machine layer (Fig. 1 of the paper — Converse sits
/// between the Charm++ core and the machine layer on every PE).
///
/// Host-side messages (entry-method envelopes, AMPI metadata, Charm4py
/// channel headers) are byte vectors routed through mini-UCX with a
/// MsgType::Host tag; each PE's worker carries a persistent wildcard handler
/// that feeds its scheduler queue.

namespace cux::cmi {

/// A received Converse message. `payload_valid` is false when the sending
/// side's payload lived in unbacked (simulation-only) memory.
struct Message {
  int src_pe = -1;
  bool payload_valid = true;
  std::vector<std::byte> raw;  ///< header + payload

  [[nodiscard]] std::span<const std::byte> payload() const noexcept {
    return std::span<const std::byte>(raw).subspan(kHeaderBytes);
  }
  static constexpr std::size_t kHeaderBytes = 8;  // handler id + source PE
};

using HandlerFn = std::function<void(Message)>;

class Converse {
 public:
  Converse(hw::System& sys, ucx::Context& ucx, const model::LayerCosts& costs,
           core::TagScheme tags = {});
  Converse(const Converse&) = delete;
  Converse& operator=(const Converse&) = delete;

  [[nodiscard]] hw::System& system() noexcept { return sys_; }
  [[nodiscard]] ucx::Context& ucx() noexcept { return ucx_; }
  [[nodiscard]] const model::LayerCosts& costs() const noexcept { return costs_; }
  [[nodiscard]] const core::TagScheme& tags() const noexcept { return tags_; }
  [[nodiscard]] int numPes() const noexcept { return static_cast<int>(pes_.size()); }
  [[nodiscard]] Pe& pe(int i) { return *pes_.at(static_cast<std::size_t>(i)); }

  /// PE whose exec() continuation is currently running, or -1 outside any.
  [[nodiscard]] int currentPe() const noexcept { return current_pe_; }

  /// Registers a message handler; returns its id (CmiRegisterHandler).
  int registerHandler(HandlerFn fn);

  /// Sends `raw` from `src_pe` to handler `handler` on `dst_pe`
  /// (CmiSyncSendAndFree). `raw` starts with Message::kHeaderBytes of room
  /// that send() fills with the header, so the payload is never copied to
  /// prepend it. The sender PE is charged the Converse send cost; delivery
  /// charges the scheduler-pickup cost on the destination PE.
  void send(int src_pe, int dst_pe, int handler, std::vector<std::byte> raw);

  /// Runs `fn` on `pe` as if a local message had been scheduled (used to
  /// bootstrap programs and to serialise completion callbacks onto PEs).
  void runOn(int pe, std::function<void()> fn, sim::Duration overhead = 0);

  /// Injects a network operation originating on `src_pe`: non-SMP, it fires
  /// once the PE's software work retires; in SMP mode it additionally
  /// serialises through (and is charged to) the node's communication thread.
  void inject(int src_pe, std::function<void()> fn);

 private:
  void onHostMessage(int dst_pe, ucx::Delivery d);

  hw::System& sys_;
  ucx::Context& ucx_;
  model::LayerCosts costs_;
  core::TagScheme tags_;
  std::vector<std::unique_ptr<Pe>> pes_;
  std::vector<std::unique_ptr<Pe>> comm_threads_;  ///< per node, SMP mode only
  std::vector<HandlerFn> handlers_;
  int current_pe_ = -1;
};

}  // namespace cux::cmi
