#pragma once

#include <ostream>
#include <string>

#include "hw/config.hpp"
#include "hw/machine.hpp"
#include "hw/memory.hpp"
#include "hw/pool.hpp"
#include "obs/observability.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

/// \file system.hpp
/// Bundles the event engine, link model and memory registry that every layer
/// above (CUDA shim, mini-UCX, Converse, the programming models) shares.

namespace cux::hw {

struct System {
  MachineConfig config;
  sim::Engine engine;
  Machine machine;
  MemoryRegistry memory;
  DevicePool pool{memory};    ///< caching device allocator (collectives scratch, training buckets)
  sim::Tracer trace;          ///< off by default; enable() to record timelines
  sim::FaultInjector fault;   ///< off by default; configured from config.fault
  obs::Observability obs;     ///< spans + metrics registry; spans off by default
  UtilRecorder util;          ///< per-resource busy accounting; enableUtil() to start

  explicit System(const MachineConfig& cfg = {}) : config(cfg), machine(config) {
    fault.configure(config.fault);
    // The System-level stats publish through the same registry as every
    // layer above; providers run only at snapshot time, so this costs
    // nothing on the simulation hot path.
    obs.addStatsProvider([this](obs::Registry& r) {
      r.setGauge("engine.events_processed", engine.eventsProcessed());
      r.setGauge("engine.events_scheduled", engine.eventsScheduled());
      r.setGauge("fault.decisions", fault.decisions());
      r.setGauge("fault.drops_injected", fault.dropsInjected());
      r.setGauge("fault.delays_injected", fault.delaysInjected());
      r.setGauge("fault.blackholed", fault.blackholed());
      r.setGauge("trace.records", trace.records().size());
      r.setGauge("trace.dropped", trace.dropped());
      r.setGauge("obs.spans_begun", obs.spans.begun());
      r.setGauge("obs.spans_open", obs.spans.openCount());
      r.setGauge("obs.spans_open_hwm", obs.spans.openHighWatermark());
      r.setGauge("obs.spans_retired", obs.spans.closed());
      r.setGauge("obs.events_dropped", obs.spans.droppedEvents());
      for (std::size_t c = 0; c < kResClassCount; ++c) {
        const auto cls = static_cast<ResClass>(c);
        r.setGauge(std::string("util.") + name(cls) + "_busy_ns", util.classBusy(cls));
      }
      r.setGauge("pool.hits", pool.hits());
      r.setGauge("pool.misses", pool.misses());
      r.setGauge("pool.bytes_cached", pool.bytesCached());
      r.setGauge("pool.bytes_hwm", pool.bytesHighWatermark());
    });
  }

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] sim::TimePoint now() const noexcept { return engine.now(); }

  /// Turns on per-resource utilization timelines with the given window
  /// width. Passive accounting only — no engine events, no randomness — so
  /// traces stay bit-identical (asserted in test_trace_hash.cpp).
  void enableUtil(sim::Duration window_ns = 100'000) {
    util.enable(window_ns);
    machine.attachUtil(util);
  }

  /// Snapshot/dump of every registered layer's stats (see obs::Observability).
  void dumpStats(std::ostream& os) { obs.dump(os); }
  void dumpStatsJson(std::ostream& os) { obs.dumpJson(os); }
};

}  // namespace cux::hw
