#include "obs/sink.hpp"

#include <ostream>

#include "obs/window.hpp"

namespace cux::obs {

namespace {

void dumpHist(std::ostream& os, const char* label, const LatHist& h, bool* first) {
  if (!*first) os << ",";
  *first = false;
  os << "\"" << label << "\":{\"count\":" << h.count << ",\"sum_ns\":" << h.sum
     << ",\"buckets\":{";
  bool bf = true;
  for (std::size_t i = 0; i < LatHist::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!bf) os << ",";
    bf = false;
    os << "\"" << i << "\":" << h.buckets[i];
  }
  os << "}}";
}

}  // namespace

// --- JsonlSink --------------------------------------------------------------

void JsonlSink::onSpanRetired(std::uint64_t id, const SpanInfo& info,
                              const SpanEvent* events, std::size_t n_events) {
  std::ostream& os = *os_;
  os << "{\"type\":\"span\",\"id\":" << id << ",\"kind\":\"" << info.kind
     << "\",\"src_pe\":" << info.src_pe << ",\"dst_pe\":" << info.dst_pe
     << ",\"bytes\":" << info.bytes << ",\"tag\":" << info.tag
     << ",\"begin_ns\":" << info.begin << ",\"end_ns\":" << info.end
     << ",\"terminal\":\"" << name(info.terminal) << "\",\"events\":[";
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    if (i != 0) os << ",";
    os << "{\"t_ns\":" << e.time << ",\"phase\":\"" << name(e.phase)
       << "\",\"pe\":" << e.pe;
    if (routedPhase(e.phase)) {
      // Satellite: the packed route<<48|bytes aux word is decoded here, never
      // shipped raw.
      os << ",\"route\":" << unpackRoute(e.aux)
         << ",\"route_bytes\":" << unpackRouteBytes(e.aux);
    } else if (e.aux != 0) {
      os << ",\"aux\":" << e.aux;
    }
    os << "}";
  }
  os << "]}\n";
  ++lines_;
}

void JsonlSink::onWindow(const WindowKey& key, const WindowStats& w,
                         const WindowConfig& cfg) {
  std::ostream& os = *os_;
  os << "{\"type\":\"window\",\"kind\":\"" << key.kind << "\",\"size_class\":" << key.size_class
     << ",\"window\":" << key.window << ",\"window_ns\":" << cfg.window_ns
     << ",\"spans\":" << w.spans << ",\"completed\":" << w.completed
     << ",\"errored\":" << w.errored << ",\"cancelled\":" << w.cancelled
     << ",\"retries\":" << w.retries << ",\"fallbacks\":" << w.fallbacks
     << ",\"early_arrivals\":" << w.early_arrivals
     << ",\"multipath_events\":" << w.multipath_events << ",\"bytes\":" << w.bytes
     << ",\"hist\":{";
  bool fh = true;
  dumpHist(os, "total", w.total, &fh);
  dumpHist(os, "meta", w.meta, &fh);
  dumpHist(os, "post_delay", w.post_delay, &fh);
  dumpHist(os, "early_wait", w.early_wait, &fh);
  dumpHist(os, "data", w.data, &fh);
  os << "},\"exemplars\":[";
  bool fe = true;
  for (const SpanExemplar& ex : w.exemplars) {
    if (!fe) os << ",";
    fe = false;
    os << "{\"begin_ns\":" << ex.info.begin << ",\"end_ns\":" << ex.info.end
       << ",\"src_pe\":" << ex.info.src_pe << ",\"dst_pe\":" << ex.info.dst_pe
       << ",\"bytes\":" << ex.info.bytes << ",\"events\":" << ex.events.size() << "}";
  }
  os << "]}\n";
  ++lines_;
}

void JsonlSink::utilLine(const char* res_class, std::uint64_t window,
                         std::uint64_t window_ns, std::uint64_t busy_ns,
                         std::uint64_t capacity_ns) {
  *os_ << "{\"type\":\"util\",\"class\":\"" << res_class << "\",\"window\":" << window
       << ",\"window_ns\":" << window_ns << ",\"busy_ns\":" << busy_ns
       << ",\"capacity_ns\":" << capacity_ns << "}\n";
  ++lines_;
}

void JsonlSink::finish() { os_->flush(); }

}  // namespace cux::obs
