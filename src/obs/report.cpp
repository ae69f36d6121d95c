#include "obs/report.hpp"

#include <algorithm>
#include <cmath>

namespace cux::obs {

void Breakdown::accumulateSpan(const SpanInfo& s, const SpanEvent* events,
                               std::size_t n_events) {
  PhaseTimes pt;
  std::uint64_t span_retries = 0;
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    pt.see(e.phase, e.time);
    if (e.phase == Phase::Retry) ++span_retries;
    if (e.phase == Phase::Fallback) ++fallbacks;
    if (routedPhase(e.phase)) {
      ++multipath_events;
      const std::size_t route = unpackRoute(e.aux);
      if (route >= path_bytes.size()) path_bytes.resize(route + 1, 0);
      path_bytes[route] += unpackRouteBytes(e.aux);
    }
  }

  ++spans;
  retries += span_retries;
  if (!s.open && s.terminal == Phase::Completed) ++completed;
  if (!s.open && s.terminal == Phase::Errored) ++errored;
  if (pt.has(Phase::MatchedPosted)) ++matched_posted;
  if (pt.has(Phase::MatchedUnexpected)) ++matched_unexpected;

  if (!s.open && s.terminal == Phase::Completed) {
    total.push_back(sim::toUs(s.end - s.begin));
  }
  if (pt.has(Phase::MetaArrived)) {
    meta.push_back(sim::toUs(pt.get(Phase::MetaArrived) - s.begin));
    if (pt.has(Phase::RecvPosted)) {
      post_delay.push_back(sim::toUs(pt.get(Phase::RecvPosted) - pt.get(Phase::MetaArrived)));
    }
  }
  if (pt.has(Phase::EarlyArrival)) {
    const sim::TimePoint matched = pt.has(Phase::MatchedUnexpected)
                                       ? pt.get(Phase::MatchedUnexpected)
                                       : (pt.has(Phase::RecvPosted) ? pt.get(Phase::RecvPosted)
                                                                    : PhaseTimes::kNone);
    if (matched != PhaseTimes::kNone && matched >= pt.get(Phase::EarlyArrival)) {
      early_wait.push_back(sim::toUs(matched - pt.get(Phase::EarlyArrival)));
    }
  }
  if (pt.has(Phase::Completed)) {
    sim::TimePoint from = PhaseTimes::kNone;
    if (pt.has(Phase::RecvPosted)) from = pt.get(Phase::RecvPosted);
    if (pt.has(Phase::MatchedUnexpected) && pt.get(Phase::MatchedUnexpected) > from &&
        from != PhaseTimes::kNone) {
      from = pt.get(Phase::MatchedUnexpected);
    } else if (from == PhaseTimes::kNone && pt.has(Phase::MatchedUnexpected)) {
      from = pt.get(Phase::MatchedUnexpected);
    }
    if (from != PhaseTimes::kNone && pt.get(Phase::Completed) >= from) {
      data.push_back(sim::toUs(pt.get(Phase::Completed) - from));
    }
  }
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0) return v.front();
  if (p >= 100) return v.back();
  // Linear interpolation between closest ranks (numpy's default).
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

}  // namespace cux::obs
