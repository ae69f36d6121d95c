#include "charm/charm.hpp"

#include <cstring>

namespace cux::ck {

namespace detail {

std::vector<EntryDesc>& entryTable() {
  static std::vector<EntryDesc> table;
  return table;
}

}  // namespace detail

Callback::Callback(Runtime& rt, int pe, core::DoneFn fn)
    : rt_(&rt), pe_(pe), fn_(std::make_shared<core::DoneFn>(std::move(fn))) {}

void Callback::send() const {
  if (!fn_ || !*fn_) return;
  auto fn = fn_;
  rt_->cmi().pe(pe_).exec(sim::usec(rt_->costs().callback_us), [fn] { (*fn)(); });
}

Runtime::Runtime(hw::System& sys, ucx::Context& ucx, const model::Model& model,
                 core::TagScheme tags)
    : sys_(sys),
      cmi_(std::make_unique<cmi::Converse>(sys, ucx, model.costs, tags)),
      dev_(std::make_unique<core::DeviceComm>(*cmi_)),
      chares_(static_cast<std::size_t>(cmi_->numPes())) {
  handler_ = cmi_->registerHandler([this](cmi::Message msg) { dispatch(std::move(msg)); });
}

std::vector<std::byte> Runtime::keepBytes(const HostBytes& run) {
  if (run.data == nullptr || run.size == 0) return {};
  std::vector<std::byte> kept = cmi_->ucx().takeBuffer(run.size);
  std::memcpy(kept.data(), run.data, run.size);
  return kept;
}

void Runtime::dispatch(cmi::Message msg) {
  const int pe = cmi_->currentPe();
  assert(pe >= 0);
  Unpacker u(msg.payload());
  const auto chare_idx = u.unpack<std::uint32_t>();
  const auto entry_id = u.unpack<std::uint32_t>();
  Chare* obj = chareAt(pe, chare_idx);
  assert(obj != nullptr && "entry-method message for unknown chare");
  assert(entry_id < detail::entryTable().size());
  cmi_->pe(pe).charge(sim::usec(costs().charm_entry_us));
  const auto off = u.offset();
  detail::entryTable()[entry_id].invoke(*this, pe, obj, msg, off);
}

static_assert(static_cast<std::uint8_t>(Buffer::Mode::Rndv) == 0,
              "a packed buffer's run kind byte must not read as a rendezvous header");

void Runtime::packBuffer(Packer& p, Buffer& b, int src_pe, int dst_pe) {
  if (rendezvous(b)) {
    p.pack(static_cast<std::uint8_t>(Buffer::Mode::Rndv));
    p.pack(b.size());
    core::CmiDeviceBuffer cdb{b.source(), b.size(), 0};
    dev_->lrtsSendDevice(src_pe, dst_pe, cdb, b.takeSentCallback(), core::DeviceRecvType::Charm);
    p.pack(cdb.tag);
  } else {
    p.pack(hostBytes(b.source(), b.size()));
    // Packed sends complete locally once the copy is made.
    if (core::DoneFn sent = b.takeSentCallback()) {
      cmi_->pe(src_pe).exec(sim::usec(costs().callback_us), std::move(sent));
    }
  }
}

}  // namespace cux::ck
