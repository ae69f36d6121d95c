#include "coll/c4p_group.hpp"

#include <cassert>
#include <memory>

#include "sim/task.hpp"

namespace cux::coll {

int C4pRank::size() const { return grp_->size(); }
int C4pRank::pe() const { return grp_->peOf(rank_); }
hw::System& C4pRank::system() const { return grp_->py_.system(); }
bool C4pRank::aborted() const { return grp_->aborted_; }
bool C4pRank::dead() const { return grp_->memberDead(rank_); }

C4pReq C4pRank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  (void)tag;  // channels match by FIFO order, not tags
  return C4pReq{grp_->end(lane_, rank_, dst)->send(buf, bytes)};
}

C4pReq C4pRank::irecv(void* buf, std::uint64_t bytes, int src, int tag) {
  (void)tag;
  return C4pReq{grp_->end(lane_, rank_, src)->recv(buf, bytes)};
}

sim::Future<void> C4pRank::waitAll(const std::vector<C4pReq>& rs) {
  return sim::allOf(rs, [](const C4pReq& r) -> const sim::Future<void>& { return r.f; });
}

C4pGroup::C4pGroup(c4p::Charm4py& py, std::vector<int> pes, int lanes)
    : py_(py), pes_(std::move(pes)), lanes_(lanes < 1 ? 1 : lanes) {
  const std::size_t n = pes_.size();
  ends_.resize(static_cast<std::size_t>(lanes_));
  for (auto& lane : ends_) lane.assign(n * n, nullptr);
  for (int l = 0; l < lanes_; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        c4p::Channel ch = py_.makeChannel(pes_[i], pes_[j]);
        ends_[static_cast<std::size_t>(l)][i * n + j] = ch.a;
        ends_[static_cast<std::size_t>(l)][j * n + i] = ch.b;
      }
    }
  }
  member_dead_.assign(n, 0);
  failure_sub_ = py_.runtime().cmi().ucx().onPeerFailure(
      [this](int pe, sim::TimePoint) { onPeFailed(pe); });
}

C4pGroup::~C4pGroup() { py_.runtime().cmi().ucx().removePeerFailureSub(failure_sub_); }

void C4pGroup::onPeFailed(int pe) {
  // Channel-level drain (failing waiting receives, orphaning envelopes)
  // already happened in the Charm4py subscriber; here the group only tracks
  // membership so the coll:: templates see the abort.
  for (std::size_t r = 0; r < pes_.size(); ++r) {
    if (pes_[r] == pe) {
      member_dead_[r] = 1;
      aborted_ = true;
    }
  }
}

std::vector<int> C4pGroup::survivors() const {
  std::vector<int> out;
  out.reserve(pes_.size());
  for (std::size_t r = 0; r < pes_.size(); ++r) {
    if (member_dead_[r] == 0) out.push_back(pes_[r]);
  }
  return out;
}

std::unique_ptr<C4pGroup> C4pGroup::shrink() const {
  py_.system().obs.registry.addCounter("c4p.shrink_events", 1);
  return std::make_unique<C4pGroup>(py_, survivors(), lanes_);
}

}  // namespace cux::coll
