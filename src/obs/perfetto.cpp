#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

namespace cux::obs {

namespace {

/// Minimal JSON string escape (detail strings are short ASCII; anything
/// exotic is replaced rather than risking invalid JSON).
void jsonString(std::ostream& os, const char* s) {
  os << '"';
  for (const char* p = s; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      os << '\\' << *p;
    } else if (c < 0x20 || c > 0x7e) {
      os << '?';
    } else {
      os << *p;
    }
  }
  os << '"';
}

struct Emitter {
  std::ostream& os;
  bool first = true;
  void open() {
    os << (first ? "\n" : ",\n") << "  {";
    first = false;
  }
  void close() { os << '}'; }
};

void asyncEvent(Emitter& em, const char* ph, const char* cat, const char* name,
                std::uint64_t id, int pid, double ts) {
  em.open();
  em.os << "\"cat\":\"" << cat << "\",\"id\":\"0x" << std::hex << id << std::dec
        << "\",\"ph\":\"" << ph << "\",\"name\":";
  jsonString(em.os, name);
  em.os << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << ts;
  em.close();
}

}  // namespace

void writePerfetto(std::ostream& os, const RetainSink& spans, const sim::Tracer* trace,
                   const std::vector<CounterTrack>* counters) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Emitter em{os};
  const auto& retained = spans.retained();

  // Every PE that appears anywhere becomes a process track.
  std::set<int> pes;
  for (const auto& [id, s] : retained) {
    if (s.info.src_pe >= 0) pes.insert(s.info.src_pe);
    if (s.info.dst_pe >= 0) pes.insert(s.info.dst_pe);
    for (const SpanEvent& e : s.events) {
      if (e.pe >= 0) pes.insert(e.pe);
    }
  }
  if (trace != nullptr) {
    for (const sim::TraceRecord& r : trace->records()) {
      if (r.pe >= 0) pes.insert(r.pe);
    }
  }
  for (int pe : pes) {
    em.open();
    os << "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pe
       << ",\"tid\":0,\"args\":{\"name\":\"PE " << pe << "\"}";
    em.close();
    em.open();
    os << "\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << pe
       << ",\"tid\":0,\"args\":{\"sort_index\":" << pe << "}";
    em.close();
  }

  for (const auto& [id, span] : retained) {
    const SpanInfo& s = span.info;
    const int pid = s.src_pe >= 0 ? s.src_pe : 0;
    char label[96];
    std::snprintf(label, sizeof(label), "%s %llu B", s.kind[0] ? s.kind : "span",
                  static_cast<unsigned long long>(s.bytes));

    em.open();
    os << "\"cat\":\"span\",\"id\":\"0x" << std::hex << id << std::dec
       << "\",\"ph\":\"b\",\"name\":";
    jsonString(os, label);
    os << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << sim::toUs(s.begin)
       << ",\"args\":{\"span\":" << id << ",\"bytes\":" << s.bytes << ",\"tag\":" << s.tag
       << ",\"dst_pe\":" << s.dst_pe << ",\"terminal\":";
    jsonString(os, name(s.terminal));
    os << "}";
    em.close();
    asyncEvent(em, "e", "span", label, id, pid, sim::toUs(s.end));

    // Receiver-side intervals (each its own category: no nesting constraints).
    PhaseTimes pt;
    for (const SpanEvent& e : span.events) pt.see(e.phase, e.time);
    const int dst = s.dst_pe >= 0 ? s.dst_pe : pid;
    const auto meta = pt.get(Phase::MetaArrived);
    const auto posted = pt.get(Phase::RecvPosted);
    const auto early = pt.get(Phase::EarlyArrival);
    const auto matched_u = pt.get(Phase::MatchedUnexpected);
    const auto completed = pt.get(Phase::Completed);
    if (meta != PhaseTimes::kNone && posted != PhaseTimes::kNone && posted >= meta) {
      asyncEvent(em, "b", "post-delay", "post-delay", id, dst, sim::toUs(meta));
      asyncEvent(em, "e", "post-delay", "post-delay", id, dst, sim::toUs(posted));
    }
    const auto matched =
        matched_u != PhaseTimes::kNone ? matched_u : posted;
    if (early != PhaseTimes::kNone && matched != PhaseTimes::kNone && matched >= early) {
      asyncEvent(em, "b", "early-wait", "early-wait", id, dst, sim::toUs(early));
      asyncEvent(em, "e", "early-wait", "early-wait", id, dst, sim::toUs(matched));
    }
    sim::TimePoint from = posted;
    if (matched_u != PhaseTimes::kNone && (from == PhaseTimes::kNone || matched_u > from)) {
      from = matched_u;
    }
    if (completed != PhaseTimes::kNone && from != PhaseTimes::kNone && completed >= from) {
      asyncEvent(em, "b", "data", "data", id, dst, sim::toUs(from));
      asyncEvent(em, "e", "data", "data", id, dst, sim::toUs(completed));
    }
  }

  // Phase transitions as nested instants inside each span's async track.
  for (const auto& [id, span] : retained) {
    const int pid = span.info.src_pe >= 0 ? span.info.src_pe : 0;
    for (const SpanEvent& e : span.events) {
      em.open();
      os << "\"cat\":\"span\",\"id\":\"0x" << std::hex << id << std::dec
         << "\",\"ph\":\"n\",\"name\":";
      jsonString(os, name(e.phase));
      os << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << sim::toUs(e.time)
         << ",\"args\":{\"pe\":" << e.pe;
      if (routedPhase(e.phase)) {
        // Decode the packed multipath word: which route/rail, how many bytes —
        // a raw 64-bit integer is useless in the UI.
        os << ",\"route\":" << unpackRoute(e.aux)
           << ",\"route_bytes\":" << unpackRouteBytes(e.aux);
      } else {
        os << ",\"aux\":" << e.aux;
      }
      os << "}";
      em.close();
    }
  }

  // Per-PE in-flight span counter.
  std::map<int, std::map<sim::TimePoint, std::int64_t>> deltas;
  for (const auto& [id, span] : retained) {
    const SpanInfo& s = span.info;
    const int pid = s.src_pe >= 0 ? s.src_pe : 0;
    deltas[pid][s.begin] += 1;
    deltas[pid][s.end] -= 1;
  }
  for (const auto& [pe, series] : deltas) {
    std::int64_t level = 0;
    for (const auto& [t, d] : series) {
      level += d;
      em.open();
      os << "\"ph\":\"C\",\"name\":\"inflight-spans\",\"pid\":" << pe
         << ",\"tid\":0,\"ts\":" << sim::toUs(t) << ",\"args\":{\"spans\":" << level << "}";
      em.close();
    }
  }

  // Caller-supplied counter tracks (resource-utilization timelines) on a
  // dedicated "resources" process so they group together in the UI.
  if (counters != nullptr && !counters->empty()) {
    constexpr int kResourcePid = 1'000'000;
    em.open();
    os << "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << kResourcePid
       << ",\"tid\":0,\"args\":{\"name\":\"resources\"}";
    em.close();
    for (const CounterTrack& track : *counters) {
      for (const auto& [ts, value] : track.points) {
        em.open();
        os << "\"ph\":\"C\",\"name\":";
        jsonString(os, track.name.c_str());
        os << ",\"pid\":" << kResourcePid << ",\"tid\":0,\"ts\":" << ts
           << ",\"args\":{\"value\":" << value << "}";
        em.close();
      }
    }
  }

  // Flat tracer records as instants (category names like "ucx.send").
  if (trace != nullptr) {
    for (const sim::TraceRecord& r : trace->records()) {
      em.open();
      os << "\"cat\":\"tracer\",\"ph\":\"i\",\"s\":\"p\",\"name\":";
      jsonString(os, sim::name(r.cat));
      os << ",\"pid\":" << (r.pe >= 0 ? r.pe : 0) << ",\"tid\":0,\"ts\":" << sim::toUs(r.time)
         << ",\"args\":{\"peer\":" << r.peer << ",\"bytes\":" << r.bytes << ",\"tag\":" << r.tag
         << ",\"detail\":";
      jsonString(os, r.detail);
      os << "}";
      em.close();
    }
  }

  os << "\n]}\n";
}

}  // namespace cux::obs
