// End-to-end benchmark driver: host cost of regenerating the paper's
// figures, per workload, with a traced mode that attributes it to layers.
//
//   perfbench --workload osu_figs|osu_eager|jacobi_weak|train_allreduce
//             --seed N --seconds S --trace 0|1 [--minimal]
//
// One process, one thread. A workload is a fixed list of simulated data
// points, each run through the public app APIs (osu::runLatency/
// runBandwidth, jacobi::runJacobi/runJacobiVerified, train::runTrain) or,
// for the raw-UCX depth, straight on ucx::Context. A pass runs every point
// once; every pass after the first runs them in an order shuffled by the
// seed. Passes repeat until the time budget is spent, and host-clock
// metrics take each point's fastest time over the passes (see fastest()).
//
// Untraced (--trace 0) prints the end-to-end metrics. Traced (--trace 1)
// alternates untraced and traced passes: host-time layer metrics come from
// the untraced ones, counters and virtual-time layer metrics from the
// traced ones (streaming span collection + utilization recording, read
// through System::obs), and the ratio of the two gives the tracing
// overhead. The last stdout line is the JSON result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/jacobi/jacobi.hpp"
#include "apps/osu/osu.hpp"
#include "apps/train/train.hpp"
#include "hw/cuda.hpp"
#include "hw/system.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "ucx/context.hpp"
#include "ucx/worker.hpp"

using namespace cux;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident memory of this process image. Read from VmHWM, because
/// getrusage's ru_maxrss survives exec and would include the launcher's.
double peakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())))];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<int> allowedCpus() {
  cpu_set_t set;
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(-1);
  return out;
}

/// Pins the (single) thread to one CPU; -1 leaves the affinity alone.
void pinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// Layer counters (traced passes)
// ---------------------------------------------------------------------------

/// The public counters of one simulated machine, read through System::obs.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t sends = 0, bytes_sent = 0, scan_steps = 0, unexpected_hwm = 0;
  std::uint64_t req_hits = 0, req_misses = 0, buf_hits = 0, buf_misses = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t device_sends = 0, fallbacks = 0, send_bytes_count = 0;
  std::uint64_t live_allocations = 0;
  std::array<std::uint64_t, hw::kResClassCount> util_busy_ns{};
  std::uint64_t pool_hits = 0, pool_misses = 0;
  std::uint64_t spans_begun = 0, events_dropped = 0;

  static Counters read(hw::System& sys) {
    sys.obs.refresh();
    obs::Registry& r = sys.obs.registry;
    Counters c;
    c.events = sys.engine.eventsProcessed();
    c.sends = r.gaugeValue("ucx.sends_started");
    c.bytes_sent = r.gaugeValue("ucx.bytes_sent");
    c.scan_steps = r.gaugeValue("ucx.match.scan_steps");
    c.unexpected_hwm = r.gaugeValue("ucx.match.unexpected_hwm");
    c.req_hits = r.gaugeValue("ucx.req_pool.hits");
    c.req_misses = r.gaugeValue("ucx.req_pool.misses");
    c.buf_hits = r.gaugeValue("ucx.buf_pool.hits");
    c.buf_misses = r.gaugeValue("ucx.buf_pool.misses");
    c.retransmits = r.gaugeValue("ucx.retransmits");
    c.device_sends = r.gaugeValue("lrts.device_sends");
    c.fallbacks = r.gaugeValue("lrts.fallbacks");
    c.send_bytes_count = r.histograms()[r.histogram("lrts.send_bytes")].count;
    c.live_allocations = sys.memory.liveAllocations();
    for (std::size_t k = 0; k < hw::kResClassCount; ++k) {
      c.util_busy_ns[k] = sys.util.classBusy(static_cast<hw::ResClass>(k));
    }
    c.pool_hits = sys.pool.hits();
    c.pool_misses = sys.pool.misses();
    c.spans_begun = sys.obs.spans.begun();
    c.events_dropped = sys.obs.spans.droppedEvents();
    return c;
  }

  /// Folds one machine into a pass total: counts add, levels keep the max.
  void add(const Counters& o) {
    events += o.events;
    sends += o.sends;
    bytes_sent += o.bytes_sent;
    scan_steps += o.scan_steps;
    unexpected_hwm = std::max(unexpected_hwm, o.unexpected_hwm);
    req_hits += o.req_hits;
    req_misses += o.req_misses;
    buf_hits += o.buf_hits;
    buf_misses += o.buf_misses;
    retransmits += o.retransmits;
    device_sends += o.device_sends;
    fallbacks += o.fallbacks;
    send_bytes_count += o.send_bytes_count;
    live_allocations = std::max(live_allocations, o.live_allocations);
    for (std::size_t k = 0; k < util_busy_ns.size(); ++k) util_busy_ns[k] += o.util_busy_ns[k];
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    spans_begun += o.spans_begun;
    events_dropped += o.events_dropped;
  }
};

/// Streaming-mode span consumer: feeds the per-phase virtual-time breakdown
/// at retirement. For runs with no post-run hook (runTrain) it also
/// re-reads the counters at every retirement, so the last snapshot is taken
/// at the run's last retired span.
class TraceSink final : public obs::Sink {
 public:
  obs::Breakdown* breakdown = nullptr;
  hw::System* snapshot_sys = nullptr;
  Counters last;

  void onSpanRetired(std::uint64_t, const obs::SpanInfo& info, const obs::SpanEvent* events,
                     std::size_t n_events) override {
    breakdown->accumulateSpan(info, events, n_events);
    if (snapshot_sys != nullptr) last = Counters::read(*snapshot_sys);
  }
  void onWindow(const obs::WindowKey&, const obs::WindowStats&,
                const obs::WindowConfig&) override {}
};

// ---------------------------------------------------------------------------
// Points
// ---------------------------------------------------------------------------

/// Per-point measurement context, wired into the app's setup/inspect hooks.
struct Probe {
  bool traced = false;
  obs::Breakdown* breakdown = nullptr;
  Clock::time_point start;
  double setup_s = -1;  ///< host seconds from point start to its first simulated event
  int machines = 0;     ///< simulated machines built (each gets one marker event)
  Counters counters;    ///< summed over the point's machines (traced only)
  std::vector<std::unique_ptr<TraceSink>> sinks;

  /// setup hook: a no-op marker event at the current virtual time is the
  /// first event the engine runs (lowest sequence number), so its host
  /// timestamp closes the point's set-up interval. It moves no virtual time.
  void setup(hw::System& sys) {
    ++machines;
    sys.engine.schedule(sys.engine.now(), [this] {
      if (setup_s < 0) setup_s = secondsSince(start);
    });
    if (!traced) return;
    sys.enableUtil();
    auto sink = std::make_unique<TraceSink>();
    sink->breakdown = breakdown;
    sys.obs.spans.enableStreaming({}, sink.get());
    sinks.push_back(std::move(sink));
  }

  /// inspect hook: reads the machine's counters before teardown.
  void inspect(hw::System& sys) {
    if (traced) counters.add(Counters::read(sys));
  }

  /// For runs without an inspect hook: snapshot at every span retirement.
  void snapshotOnRetire(hw::System& sys) {
    if (traced) sinks.back()->snapshot_sys = &sys;
  }
  void collectSnapshots() {
    for (const auto& s : sinks) {
      if (s->snapshot_sys != nullptr) counters.add(s->last);
    }
  }
};

enum class Kind { Latency, Bandwidth, RawUcx, Jacobi, JacobiVerified, Train };

struct Outcome {
  std::vector<double> values;  ///< simulated outputs (digested and checked)
  bool ok = true;              ///< app-level check (verification, no hang)
  double staged_bytes = 0;     ///< computed host-staging traffic of an -H point
  double step_us = 0, allreduce_wall_us = 0, overlap = 0;  ///< train only
};

struct Point {
  std::string key;    ///< unique, stable id: digest order and failure messages
  std::string stack;  ///< charm | ampi | ompi | charm4py | ucx
  char mode = 'D';    ///< 'H' host-staged, 'D' GPU-aware
  Kind kind = Kind::Latency;
  std::size_t bytes = 0;
  int messages = 0;   ///< ping-pong messages per run (latency and raw-UCX points only)
  bool probe = false; ///< part of the reference probe, not of the workload proper
  std::function<Outcome(Probe&)> run;
};

const char* stackKey(osu::Stack s) {
  switch (s) {
    case osu::Stack::Charm: return "charm";
    case osu::Stack::Ampi: return "ampi";
    case osu::Stack::Ompi: return "ompi";
    case osu::Stack::Charm4py: return "charm4py";
  }
  return "?";
}

constexpr osu::Stack kOsuStacks[] = {osu::Stack::Charm, osu::Stack::Ampi, osu::Stack::Ompi,
                                     osu::Stack::Charm4py};
constexpr osu::Mode kModes[] = {osu::Mode::HostStaging, osu::Mode::Device};
constexpr osu::Placement kPlaces[] = {osu::Placement::IntraNode, osu::Placement::InterNode};

const char* placeKey(osu::Placement p) {
  return p == osu::Placement::IntraNode ? "intra" : "inter";
}

Point osuPoint(Kind kind, osu::Stack stack, osu::Mode mode, osu::Placement place,
               std::size_t bytes, int iters, int warmup) {
  Point p;
  p.kind = kind;
  p.stack = stackKey(stack);
  p.mode = *osu::suffix(mode);
  p.bytes = bytes;
  p.messages = kind == Kind::Latency ? 2 * (iters + warmup) : 0;
  p.key = std::string(kind == Kind::Latency ? "lat/" : "bw/") + p.stack + "-" + p.mode + "/" +
          placeKey(place) + "/" + std::to_string(bytes);
  p.run = [=](Probe& probe) {
    osu::BenchConfig cfg;
    cfg.stack = stack;
    cfg.mode = mode;
    cfg.place = place;
    cfg.sizes = {bytes};
    cfg.iters = iters;
    cfg.warmup = warmup;
    cfg.setup = [&probe](hw::System& sys) { probe.setup(sys); };
    cfg.inspect = [&probe](hw::System& sys) { probe.inspect(sys); };
    const auto pts = kind == Kind::Latency ? osu::runLatency(cfg) : osu::runBandwidth(cfg);
    Outcome o;
    o.values = {pts.at(0).value};
    if (mode == osu::Mode::HostStaging) {
      // Computed, not counted: each -H message is copied device->host before
      // the send and host->device after the receive; bandwidth points copy
      // every window message out and un-stage once per window.
      const double rounds = iters + warmup;
      o.staged_bytes = kind == Kind::Latency ? 4.0 * bytes * rounds
                                             : (cfg.window + 1.0) * bytes * rounds;
    }
    return o;
  };
  return p;
}

/// Raw-UCX depth: the ablation_metadata ping-pong, completion callbacks
/// driven directly on ucx workers, so no Converse or model layer runs.
Point rawUcxPoint(osu::Placement place, std::size_t bytes, int iters) {
  Point p;
  p.kind = Kind::RawUcx;
  p.stack = "ucx";
  p.bytes = bytes;
  p.messages = 2 * iters;
  p.key = std::string("raw/ucx-D/") + placeKey(place) + "/" + std::to_string(bytes);
  p.run = [=](Probe& probe) {
    model::Model m = model::summit(2);
    m.machine.backed_device_memory = false;
    hw::System sys(m.machine);
    probe.setup(sys);
    ucx::Context ctx(sys, m.ucx);
    const int peer = place == osu::Placement::IntraNode ? 1 : m.machine.gpus_per_node;
    cuda::DeviceBuffer a(sys, 0, bytes), b(sys, peer, bytes);
    int remaining = 2 * iters;
    sim::TimePoint done_at = 0;
    std::function<void(int)> post = [&](int side) {
      void* buf = side == 0 ? a.get() : b.get();
      const int pe = side == 0 ? 0 : peer;
      ctx.worker(pe).tagRecv(buf, bytes, 7, ucx::kFullMask, [&, side](ucx::Request&) {
        if (--remaining == 0) {
          done_at = sys.engine.now();
          return;
        }
        post(side);
        ctx.tagSend(side == 0 ? 0 : peer, side == 0 ? peer : 0, side == 0 ? a.get() : b.get(),
                    bytes, 7, {});
      });
    };
    post(0);
    post(1);
    ctx.tagSend(0, peer, a.get(), bytes, 7, {});
    sys.engine.run();
    probe.inspect(sys);
    Outcome o;
    o.values = {sim::toUs(done_at) / (2.0 * iters)};
    o.ok = remaining == 0;
    return o;
  };
  return p;
}

Point jacobiPoint(osu::Stack stack, osu::Mode mode, int node_exp) {
  Point p;
  p.kind = Kind::Jacobi;
  p.stack = stackKey(stack);
  p.mode = *osu::suffix(mode);
  const int nodes = 1 << node_exp;
  p.key = std::string("jacobi/") + p.stack + "-" + p.mode + "/" + std::to_string(nodes);
  p.run = [=](Probe& probe) {
    jacobi::JacobiConfig cfg;
    cfg.stack = stack;
    cfg.mode = mode;
    cfg.nodes = nodes;
    cfg.grid = jacobi::weakScaledGrid(jacobi::kWeakBase, node_exp);
    cfg.iters = 4;  // the Fig. 14-16 benches' settings
    cfg.warmup = 1;
    cfg.backed = false;
    cfg.setup = [&probe](hw::System& sys) { probe.setup(sys); };
    cfg.inspect = [&probe](hw::System& sys) { probe.inspect(sys); };
    const jacobi::JacobiResult r = jacobi::runJacobi(cfg);
    Outcome o;
    o.values = {r.overall_ms_per_iter, r.comm_ms_per_iter};
    if (mode == osu::Mode::HostStaging) {
      // Computed: every halo face is copied out on the sender and in on the
      // receiver, every iteration.
      std::uint64_t halo = 0;
      for (int b = 0; b < r.dec.numBlocks(); ++b) {
        for (int d = 0; d < jacobi::kNumDirs; ++d) {
          const auto dir = static_cast<jacobi::Dir>(d);
          if (r.dec.neighbor(b, dir) >= 0) halo += r.dec.faceBytes(dir);
        }
      }
      o.staged_bytes = 2.0 * static_cast<double>(halo) * (cfg.iters + cfg.warmup);
    }
    return o;
  };
  return p;
}

/// Small backed run checked cell by cell against the serial reference.
Point jacobiVerifiedPoint(osu::Stack stack) {
  Point p;
  p.kind = Kind::JacobiVerified;
  p.stack = stackKey(stack);
  p.key = std::string("jacobi-verified/") + p.stack + "-D/2";
  p.run = [=](Probe& probe) {
    jacobi::JacobiConfig cfg;
    cfg.stack = stack;
    cfg.mode = osu::Mode::Device;
    cfg.nodes = 2;
    cfg.grid = {24, 12, 6};  // 12 blocks: inter-node halos
    cfg.iters = 2;
    cfg.warmup = 0;
    cfg.backed = true;
    cfg.setup = [&probe](hw::System& sys) { probe.setup(sys); };
    cfg.inspect = [&probe](hw::System& sys) { probe.inspect(sys); };
    const std::vector<double> got = jacobi::runJacobiVerified(cfg);
    const std::vector<double> ref = jacobi::referenceJacobi(cfg.grid, cfg.iters);
    Outcome o;
    o.ok = got.size() == ref.size();
    double sum = 0;
    for (std::size_t i = 0; o.ok && i < ref.size(); ++i) {
      o.ok = std::fabs(got[i] - ref[i]) <= 1e-12 * std::max(1.0, std::fabs(ref[i]));
      sum += got[i];
    }
    o.values = {sum};
    return o;
  };
  return p;
}

Point trainPoint(train::Stack stack, bool host_staged, const train::TrainConfig& base) {
  Point p;
  p.kind = Kind::Train;
  p.stack = stack == train::Stack::Ampi    ? "ampi"
            : stack == train::Stack::Charm ? "charm"
                                           : "charm4py";
  p.mode = host_staged ? 'H' : 'D';
  p.key = std::string("train/") + p.stack + "-" + p.mode;
  p.run = [=](Probe& probe) {
    train::TrainConfig cfg = base;
    cfg.host_staged = host_staged;
    cfg.verify = true;
    cfg.setup = [&probe](hw::System& sys) {
      probe.setup(sys);
      probe.snapshotOnRetire(sys);
    };
    const train::TrainResult r = train::runTrain(cfg, stack);
    probe.collectSnapshots();
    Outcome o;
    o.ok = r.verified && !r.failed && r.hung_ranks == 0 && r.completed_steps == cfg.steps;
    o.values = {r.avgStepUs(), r.avgOverlap(), r.total_us, static_cast<double>(r.model_digest)};
    for (const train::StepStat& s : r.steps) {
      o.values.insert(o.values.end(), {s.step_us, s.compute_us, s.allreduce_wall_us,
                                       s.bucket_sum_us, s.optimizer_us});
    }
    o.step_us = r.avgStepUs();
    o.allreduce_wall_us = r.steps.empty() ? 0 : r.steps.back().allreduce_wall_us;
    o.overlap = r.avgOverlap();
    if (host_staged) {
      // Computed: every rank copies each gradient bucket out and back once
      // per step.
      o.staged_bytes = 2.0 * 8.0 * static_cast<double>(cfg.totalParams()) * cfg.ranks * cfg.steps;
    }
    return o;
  };
  return p;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

std::vector<std::size_t> pow2Sizes(std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t s = 1; s <= hi; s <<= 1) v.push_back(s);
  return v;
}

/// Table I (paper) reference: [stack][place] with stack in Charm++, AMPI,
/// Charm4py and place intra, inter — as printed by bench/table1_improvements.
struct TableRef {
  double lat_min, lat_max, lat_eager, bw_min, bw_max;
};
constexpr TableRef kTable1[3][2] = {
    {{2.1, 10.2, 4.4, 1.4, 9.6}, {1.2, 4.1, 4.1, 1.2, 2.7}},
    {{1.9, 11.7, 3.6, 1.3, 10.0}, {1.8, 3.5, 3.4, 1.3, 2.6}},
    {{1.8, 17.4, 1.9, 1.3, 10.5}, {1.5, 3.4, 1.8, 1.0, 1.5}},
};
constexpr osu::Stack kTableStacks[3] = {osu::Stack::Charm, osu::Stack::Ampi, osu::Stack::Charm4py};

/// The Table I eager cells (1 B ping-pong, H over D) on every stack and
/// placement, with Table I's iteration counts. Workloads that do not run
/// the OSU sweep carry this small probe so the virtual-clock error and the
/// per-stack host cost per message are measured on every workload.
void addReferenceProbe(std::vector<Point>& pts) {
  const std::size_t first = pts.size();
  for (osu::Stack s : kOsuStacks) {
    for (osu::Mode m : kModes) {
      for (osu::Placement pl : kPlaces) pts.push_back(osuPoint(Kind::Latency, s, m, pl, 1, 20, 5));
    }
  }
  for (osu::Placement pl : kPlaces) pts.push_back(rawUcxPoint(pl, 1, 20));
  for (std::size_t i = first; i < pts.size(); ++i) pts[i].probe = true;
}

struct Workload {
  std::vector<Point> points;
  bool full_table1 = false;  ///< table1_err over all 30 cells (else the 6 eager cells)
};

Workload makeWorkload(const std::string& name, bool minimal) {
  Workload w;
  auto& pts = w.points;
  if (name == "osu_figs") {
    // The point set of Figs. 10-13 and Table I. The figure benches run 20 +
    // 5 iterations per point; 5 + 1 keeps every point's cost in proportion
    // while a run holds several passes.
    w.full_table1 = !minimal;
    const auto sizes = minimal ? std::vector<std::size_t>{1, 4u << 20} : pow2Sizes(4u << 20);
    for (Kind k : {Kind::Latency, Kind::Bandwidth}) {
      for (osu::Stack s : kOsuStacks) {
        for (osu::Mode m : kModes) {
          for (osu::Placement pl : kPlaces) {
            for (std::size_t b : sizes) pts.push_back(osuPoint(k, s, m, pl, b, 5, 1));
          }
        }
      }
    }
    for (osu::Placement pl : kPlaces) pts.push_back(rawUcxPoint(pl, 1, 20));
  } else if (name == "osu_eager") {
    // Eager/GDRCopy regime with many iterations, so per-message work
    // dominates set-up.
    const auto sizes = minimal ? std::vector<std::size_t>{1, 8192} : pow2Sizes(8192);
    const int iters = minimal ? 20 : 100, warmup = minimal ? 5 : 10;
    for (osu::Stack s : kOsuStacks) {
      for (osu::Mode m : kModes) {
        for (osu::Placement pl : kPlaces) {
          for (std::size_t b : sizes) {
            pts.push_back(osuPoint(Kind::Latency, s, m, pl, b, iters, warmup));
          }
        }
      }
    }
    for (osu::Placement pl : kPlaces) {
      for (std::size_t b : sizes) pts.push_back(rawUcxPoint(pl, b, iters + warmup));
    }
  } else if (name == "jacobi_weak") {
    const int max_exp = minimal ? 1 : 6;  // 1 .. 64 nodes
    for (osu::Stack s : kOsuStacks) {
      for (osu::Mode m : kModes) {
        for (int e = 0; e <= max_exp; ++e) pts.push_back(jacobiPoint(s, m, e));
      }
      pts.push_back(jacobiVerifiedPoint(s));
    }
    addReferenceProbe(pts);
  } else if (name == "train_allreduce") {
    train::TrainConfig base;  // 3.7 M parameters, 8 ranks, 2 nodes, 3 steps
    if (minimal) base.layer_params = {4096, 8192};
    for (train::Stack s : {train::Stack::Ampi, train::Stack::Charm, train::Stack::Charm4py}) {
      pts.push_back(trainPoint(s, false, base));
    }
    pts.push_back(trainPoint(train::Stack::Ampi, true, base));
    addReferenceProbe(pts);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct PointRun {
  std::size_t index = 0;  ///< into the workload's point list
  const Point* point = nullptr;
  Outcome out;
  bool failed = false;
  std::string why;
  double host_s = 0;
  double cpu_s = 0;
  double setup_s = 0;
  int machines = 0;
};

struct Pass {
  bool traced = false;
  double wall_s = 0;
  std::vector<PointRun> runs;  ///< in execution order
  Counters counters;
  obs::Breakdown breakdown;
};

bool valuesOk(const Outcome& o) {
  if (o.values.empty()) return false;
  for (double v : o.values) {
    if (!std::isfinite(v) || v <= 0) return false;
  }
  return true;
}

/// Runs every point once. The first pass keeps the workload's canonical
/// order, so the peak memory taken after it does not depend on the seed;
/// later passes run in an order shuffled by the seed.
Pass runPass(const std::vector<Point>& points, std::mt19937_64& rng, bool traced, bool shuffled) {
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (shuffled) std::shuffle(order.begin(), order.end(), rng);

  Pass pass;
  pass.traced = traced;
  pass.runs.reserve(points.size());
  const auto t0 = Clock::now();
  for (std::size_t i : order) {
    const Point& p = points[i];
    Probe probe;
    probe.traced = traced;
    probe.breakdown = &pass.breakdown;
    PointRun r;
    r.index = i;
    r.point = &p;
    const double cpu_start = cpuSeconds();
    probe.start = Clock::now();
    try {
      r.out = p.run(probe);
      if (!r.out.ok) {
        r.failed = true;
        r.why = "app-level check failed";
      } else if (!valuesOk(r.out)) {
        r.failed = true;
        r.why = "non-finite or non-positive output";
      }
    } catch (const std::exception& e) {
      r.failed = true;
      r.why = std::string("threw: ") + e.what();
    }
    r.host_s = secondsSince(probe.start);
    r.cpu_s = cpuSeconds() - cpu_start;
    r.setup_s = probe.setup_s >= 0 ? probe.setup_s : r.host_s;
    r.machines = probe.machines;
    if (traced) pass.counters.add(probe.counters);
    pass.runs.push_back(std::move(r));
  }
  pass.wall_s = secondsSince(t0);
  return pass;
}

/// FNV-1a over every point's simulated outputs in key order, so the digest
/// is independent of the seeded run order and of host timing.
std::uint64_t digest(const Pass& pass) {
  std::vector<const PointRun*> v;
  for (const PointRun& r : pass.runs) v.push_back(&r);
  std::sort(v.begin(), v.end(), [](auto* a, auto* b) { return a->point->key < b->point->key; });
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const PointRun* r : v) {
    mix(r->point->key.data(), r->point->key.size());
    for (double x : r->out.values) mix(&x, sizeof x);
  }
  return h;
}

/// Per point, its fastest host, CPU and set-up time over the given passes.
/// On a virtual machine whose cores are shared with other tenants, their
/// load switches within seconds and differs between cores: one osu_eager
/// pass takes 0.10 s or 0.18 s depending on it. Medians over passes jump
/// between the two levels from run to run; each point's fastest time, with
/// passes rotated over the allowed CPUs, moves much less.
struct Best {
  std::vector<double> host, cpu, setup;
};

Best fastest(const std::vector<const Pass*>& passes, std::size_t n_points) {
  constexpr double kInf = 1e300;
  Best b{std::vector<double>(n_points, kInf), std::vector<double>(n_points, kInf),
         std::vector<double>(n_points, kInf)};
  for (const Pass* p : passes) {
    for (const PointRun& r : p->runs) {
      b.host[r.index] = std::min(b.host[r.index], r.host_s);
      b.cpu[r.index] = std::min(b.cpu[r.index], r.cpu_s);
      b.setup[r.index] = std::min(b.setup[r.index], r.setup_s);
    }
  }
  return b;
}

/// Mean |ln(simulated / paper)| over the Table I cells the pass measured:
/// all 30 when the full OSU sweep ran, else the 6 eager (1 B) cells.
double table1Err(const Pass& pass, bool full) {
  std::map<std::string, double> val;
  for (const PointRun& r : pass.runs) {
    val[r.point->key] = r.out.values.empty() ? 0 : r.out.values[0];
  }
  double total = 0;
  int cells = 0;
  auto cell = [&](double sim, double paper) {
    total += std::fabs(std::log(sim / paper));
    ++cells;
  };
  for (int si = 0; si < 3; ++si) {
    for (int pi = 0; pi < 2; ++pi) {
      const std::string st = stackKey(kTableStacks[si]);
      const std::string pl = placeKey(kPlaces[pi]);
      auto at = [&](const char* kind, char mode, std::size_t b) {
        return val.at(std::string(kind) + "/" + st + "-" + mode + "/" + pl + "/" +
                      std::to_string(b));
      };
      const TableRef& ref = kTable1[si][pi];
      cell(at("lat", 'H', 1) / at("lat", 'D', 1), ref.lat_eager);
      if (!full) continue;
      double lmin = 1e300, lmax = 0, bmin = 1e300, bmax = 0;
      for (std::size_t b : pow2Sizes(4u << 20)) {
        const double lr = at("lat", 'H', b) / at("lat", 'D', b);
        const double br = at("bw", 'D', b) / at("bw", 'H', b);
        lmin = std::min(lmin, lr);
        lmax = std::max(lmax, lr);
        bmin = std::min(bmin, br);
        bmax = std::max(bmax, br);
      }
      cell(lmin, ref.lat_min);
      cell(lmax, ref.lat_max);
      cell(bmin, ref.bw_min);
      cell(bmax, ref.bw_max);
    }
  }
  return total / cells;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints every metric, then the one-line JSON result. A non-finite value
/// (only possible after a failed point) is written as 0 so the line stays
/// valid JSON; `correct` is false then.
void printResult(bool correct, long attempted, long failed, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-36s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), v, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool minimal = false;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--minimal") {
      a.minimal = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--minimal]\n");
    return 2;
  }
  const Workload w = makeWorkload(args.workload, args.minimal);
  if (w.points.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::mt19937_64 rng(args.seed);
  const double startup_s = secondsSince(t_start);

  // At least two passes (with --trace 1: one untraced, one traced), then
  // more while the longest pass so far still fits in the budget.
  std::vector<Pass> passes;
  const auto t_measure = Clock::now();
  const std::size_t min_passes = args.minimal && !args.trace ? 1 : 2;
  double longest = 0;
  double rss_mb = 0;  // after the first pass: the workload's own peak, not the driver's bookkeeping
  const std::vector<int> cpus = allowedCpus();
  do {
    const bool traced = args.trace && passes.size() % 2 == 1;
    pinTo(cpus[passes.size() % cpus.size()]);
    passes.push_back(runPass(w.points, rng, traced, !passes.empty()));
    longest = std::max(longest, passes.back().wall_s);
    if (passes.size() == 1) rss_mb = peakRssMb();
  } while (passes.size() < min_passes ||
           (!args.minimal && secondsSince(t_measure) + longest <= args.seconds));

  // Correctness: every point of every pass, and identical outputs across
  // passes (the simulated results must not depend on the run order).
  long attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    for (const PointRun& r : p.runs) {
      ++attempted;
      if (r.failed) {
        ++failed;
        std::printf("FAIL %s: %s\n", r.point->key.c_str(), r.why.c_str());
      }
    }
  }
  const std::uint64_t dig = digest(passes.front());
  bool stable = true;
  for (const Pass& p : passes) stable = stable && digest(p) == dig;
  if (!stable) std::printf("FAIL simulated outputs differ between passes\n");

  std::vector<const Pass*> plain, traced;
  for (const Pass& p : passes) (p.traced ? traced : plain).push_back(&p);
  const Best best = fastest(plain, w.points.size());

  std::printf("workload %s seed %llu passes %zu (traced %zu) points/pass %zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), passes.size(),
              traced.size(), w.points.size());
  std::printf("digest %016llx\n", static_cast<unsigned long long>(dig));
  std::printf("pass_wall_s");
  for (const Pass& p : passes) std::printf(" %s%.4f", p.traced ? "t" : "", p.wall_s);
  std::printf("\n");
  std::printf("fail_frac %.6g (%ld failed / %ld attempted points)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0, failed, attempted);

  // Host time of the points matching `pred`, each at its fastest.
  auto hostOf = [&](auto pred) {
    double s = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (pred(w.points[i])) s += best.host[i];
    }
    return s;
  };
  auto all = [](const Point&) { return true; };

  std::vector<Metric> ms;
  if (!args.trace) {
    // Per-point quantiles over the workload's own points (reference probe
    // excluded), each at its fastest.
    std::vector<double> point_ms;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (!w.points[i].probe) point_ms.push_back(1e3 * best.host[i]);
    }
    std::printf("point samples %zu (fastest of %zu passes each)\n", point_ms.size(), plain.size());
    ms = {
        {"wall_s", hostOf(all), "s"},
        {"cpu_s", sum(best.cpu), "s"},
        {"point_ms_p50", quantile(point_ms, 0.5), "ms"},
        {"point_ms_p90", quantile(point_ms, 0.9), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"setup_s", startup_s + sum(best.setup), "s"},
        {"table1_err", table1Err(passes.front(), w.full_table1), "ln"},
    };
  } else {
    const Pass& tp = *traced.back();
    const Counters& c = tp.counters;
    // Host microseconds per message over one stack's ping-pong points of
    // up to 8 KiB (eager regime), set-up excluded.
    auto usPerMsg = [&](const std::string& stack) {
      double s = 0, n = 0;
      for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point& pt = w.points[i];
        if (pt.stack == stack && pt.messages > 0 && pt.bytes <= 8192) {
          s += best.host[i] - best.setup[i];
          n += pt.messages;
        }
      }
      return 1e6 * ratio(s, n);
    };
    std::uint64_t markers = 0;
    double staged = 0, step_us = 0, ar_us = 0, overlap = 0;
    int trains = 0;
    for (const PointRun& r : tp.runs) {
      markers += static_cast<std::uint64_t>(r.machines);
      staged += r.out.staged_bytes;
      if (r.point->kind == Kind::Train) {
        step_us += r.out.step_us;
        ar_us += r.out.allreduce_wall_us;
        overlap += r.out.overlap;
        ++trains;
      }
    }
    const double events = static_cast<double>(c.events - markers);
    const double plain_wall = hostOf(all);
    const double traced_wall = sum(fastest(traced, w.points.size()).host);
    obs::Breakdown bd = tp.breakdown;
    const double ucx_us = usPerMsg("ucx");
    ms = {
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event", 1e9 * ratio(plain_wall, events), "ns"},
        {"hw.staged_bytes_computed", staged, "bytes"},
        {"hw.memory.live_allocations", static_cast<double>(c.live_allocations), "count"},
    };
    for (std::size_t k = 0; k < hw::kResClassCount; ++k) {
      ms.push_back({std::string("hw.util.") + hw::name(static_cast<hw::ResClass>(k)) + "_busy_ns",
                    static_cast<double>(c.util_busy_ns[k]), "virt_ns"});
    }
    ms.insert(ms.end(), {
        {"hw.pool.hit_ratio", ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio"},
        {"ucx.sends_started", static_cast<double>(c.sends), "count"},
        {"ucx.bytes_sent", static_cast<double>(c.bytes_sent), "bytes"},
        {"ucx.match.scan_steps_per_send", ratio(c.scan_steps, c.sends), "ratio"},
        {"ucx.match.unexpected_hwm", static_cast<double>(c.unexpected_hwm), "count"},
        {"ucx.req_pool.hit_ratio", ratio(c.req_hits, c.req_hits + c.req_misses), "ratio"},
        {"ucx.buf_pool.hit_ratio", ratio(c.buf_hits, c.buf_hits + c.buf_misses), "ratio"},
        {"ucx.retransmits", static_cast<double>(c.retransmits), "count"},
        {"ucx.host_us_per_msg", ucx_us, "us"},
        {"lrts.device_sends", static_cast<double>(c.device_sends), "count"},
        {"lrts.fallbacks", static_cast<double>(c.fallbacks), "count"},
        {"lrts.send_bytes.count", static_cast<double>(c.send_bytes_count), "count"},
    });
    for (const char* s : {"charm", "ampi", "ompi", "charm4py"}) {
      ms.push_back({std::string("host_us_per_msg.") + s, usPerMsg(s) - ucx_us, "us"});
    }
    for (const char* s : {"charm", "ampi", "ompi", "charm4py", "ucx"}) {
      const std::string stack = s;
      ms.push_back(
          {"host_s." + stack, hostOf([&](const Point& p) { return p.stack == stack; }), "s"});
    }
    ms.push_back({"host_s.H", hostOf([](const Point& p) { return p.mode == 'H'; }), "s"});
    ms.push_back({"host_s.D", hostOf([](const Point& p) { return p.mode == 'D'; }), "s"});
    ms.insert(ms.end(), {
        {"virt.meta_us_p50", obs::percentile(bd.meta, 50), "virt_us"},
        {"virt.post_delay_us_p50", obs::percentile(bd.post_delay, 50), "virt_us"},
        {"virt.early_wait_us_p50", obs::percentile(bd.early_wait, 50), "virt_us"},
        {"virt.data_us_p50", obs::percentile(bd.data, 50), "virt_us"},
        {"virt.total_us_p50", obs::percentile(bd.total, 50), "virt_us"},
        {"virt.matched_unexpected_frac",
         ratio(bd.matched_unexpected, bd.matched_posted + bd.matched_unexpected), "ratio"},
        {"coll.step_us", trains ? step_us / trains : 0, "virt_us"},
        {"coll.allreduce_wall_us", trains ? ar_us / trains : 0, "virt_us"},
        {"coll.overlap_ratio", trains ? overlap / trains : 0, "ratio"},
        {"obs.overhead_ratio", ratio(traced_wall, plain_wall), "ratio"},
        {"obs.spans_begun", static_cast<double>(c.spans_begun), "count"},
        {"obs.events_dropped", static_cast<double>(c.events_dropped), "count"},
    });
  }
  bool correct = failed == 0 && stable;
  for (const Metric& m : ms) correct = correct && std::isfinite(m.value);
  printResult(correct, attempted, failed, ms);
  return 0;
}
