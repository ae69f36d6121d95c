#include "obs/critpath.hpp"

#include <algorithm>

namespace cux::obs {

const char* name(CritCat c) {
  switch (c) {
    case CritCat::Retry: return "retry";
    case CritCat::PostDelay: return "post_delay";
    case CritCat::EarlyWait: return "early_wait";
    case CritCat::LinkNic: return "link_nic";
    case CritCat::LinkNvLink: return "link_nvlink";
    case CritCat::LinkShm: return "link_shm";
    case CritCat::HostMeta: return "host_meta";
    case CritCat::Compute: return "compute";
  }
  return "?";
}

namespace {

CritCat dataClass(const CritPathConfig& cfg, const SpanInfo& info) {
  if (cfg.host_staged) return CritCat::LinkShm;
  if (cfg.gpus_per_node > 0 && info.src_pe >= 0 && info.dst_pe >= 0 &&
      info.src_pe / cfg.gpus_per_node != info.dst_pe / cfg.gpus_per_node)
    return CritCat::LinkNic;
  return CritCat::LinkNvLink;
}

}  // namespace

void CritPath::addSpan(const SpanInfo& info, const SpanEvent* events,
                       std::size_t n_events) {
  PhaseTimes pt;
  // Retry timestamps in record order: each retransmit charges the wire time
  // wasted since the previous attempt boundary to overhead.
  sim::TimePoint attempt_start = info.begin;
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    pt.see(e.phase, e.time);
    if (e.phase == Phase::PayloadSent && attempt_start == info.begin)
      attempt_start = e.time;
    if (e.phase == Phase::Retry) {
      emitSeg(attempt_start, e.time, CritCat::Retry);
      attempt_start = e.time;
    }
    if (e.phase == Phase::Fallback) {
      emitSeg(attempt_start, e.time, CritCat::Retry);
      attempt_start = e.time;
    }
  }

  if (pt.has(Phase::MetaArrived))
    emitSeg(info.begin, pt.get(Phase::MetaArrived), CritCat::HostMeta);

  if (pt.has(Phase::MetaArrived) && pt.has(Phase::RecvPosted) &&
      pt.get(Phase::RecvPosted) >= pt.get(Phase::MetaArrived))
    emitSeg(pt.get(Phase::MetaArrived), pt.get(Phase::RecvPosted), CritCat::PostDelay);

  if (pt.has(Phase::EarlyArrival)) {
    const sim::TimePoint matched = pt.has(Phase::MatchedUnexpected)
                                       ? pt.get(Phase::MatchedUnexpected)
                                       : pt.get(Phase::RecvPosted);
    if (matched != PhaseTimes::kNone && matched >= pt.get(Phase::EarlyArrival))
      emitSeg(pt.get(Phase::EarlyArrival), matched, CritCat::EarlyWait);
  }

  if (info.terminal == Phase::Completed) {
    // Data leg: from the moment both sides were ready to the delivery. Falls
    // back to the payload-send time for spans without a modelled recv post
    // (host converse messages).
    sim::TimePoint from = PhaseTimes::kNone;
    if (pt.has(Phase::RecvPosted)) from = pt.get(Phase::RecvPosted);
    if (pt.has(Phase::MatchedUnexpected) &&
        (from == PhaseTimes::kNone || pt.get(Phase::MatchedUnexpected) > from))
      from = pt.get(Phase::MatchedUnexpected);
    if (from == PhaseTimes::kNone && pt.has(Phase::PayloadSent))
      from = pt.get(Phase::PayloadSent);
    if (from == PhaseTimes::kNone) from = info.begin;
    emitSeg(from, info.end, dataClass(cfg_, info));
  }
}

std::vector<CritPath::Iteration> CritPath::attribute(
    const std::vector<sim::TimePoint>& marks) const {
  std::vector<Iteration> out;
  if (marks.size() < 2) return out;
  out.reserve(marks.size() - 1);

  std::vector<Seg> clipped;
  std::vector<sim::TimePoint> bounds;
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    const sim::TimePoint w0 = marks[i];
    const sim::TimePoint w1 = marks[i + 1];
    Iteration it;
    it.begin = w0;
    it.end = w1;
    if (w1 <= w0) {
      out.push_back(it);
      continue;
    }

    clipped.clear();
    bounds.clear();
    bounds.push_back(w0);
    bounds.push_back(w1);
    for (const Seg& s : segs_) {
      if (s.b <= w0 || s.a >= w1) continue;
      const Seg c{std::max(s.a, w0), std::min(s.b, w1), s.cat};
      clipped.push_back(c);
      bounds.push_back(c.a);
      bounds.push_back(c.b);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    std::array<std::uint64_t, kCritCatCount> ns{};
    for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
      const sim::TimePoint x = bounds[b];
      const sim::TimePoint y = bounds[b + 1];
      CritCat best = CritCat::Compute;
      for (const Seg& c : clipped)
        if (c.a <= x && c.b >= y && c.cat < best) best = c.cat;
      ns[static_cast<std::size_t>(best)] += y - x;
    }
    // The sweep partitions [w0, w1) exactly, so sum(ns) == w1 - w0 and the
    // us components below sum to wall_us up to float rounding.
    it.wall_us = sim::toUs(w1 - w0);
    for (std::size_t c = 0; c < kCritCatCount; ++c) it.us[c] = sim::toUs(ns[c]);
    out.push_back(it);
  }
  return out;
}

}  // namespace cux::obs
