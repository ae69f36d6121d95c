#include "ucx/am.hpp"

#include <cassert>

namespace cux::ucx {

ActiveMessages::ActiveMessages(Context& ctx) : ctx_(ctx) {
  for (int pe = 0; pe < ctx.numWorkers(); ++pe) {
    ctx.worker(pe).setBufferedHandler(
        kAmType, kTypeMask,
        [this, pe](std::uint64_t len, Tag tag, int src_pe)
            -> std::pair<void*, CompletionFn> {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(pe) << 8) | idOf(tag);
          auto it = regs_.find(key);
          if (it == regs_.end()) return {nullptr, CompletionFn{}};  // unregistered id: decline
          void* buf = it->second.alloc(len, src_pe);
          Handler& handler = it->second.handler;
          CompletionFn done = [this, &handler, buf, len, src_pe](Request&) {
            ++delivered_;
            handler(buf, len, src_pe);
          };
          return {buf, std::move(done)};
        });
  }
}

void ActiveMessages::registerAm(int pe, std::uint32_t id, Allocator alloc, Handler handler) {
  assert(id < 256 && "AM ids occupy 8 tag bits");
  const std::uint64_t key = (static_cast<std::uint64_t>(pe) << 8) | id;
  assert(regs_.find(key) == regs_.end() && "AM id already registered on this PE");
  regs_.emplace(key, Registration{std::move(alloc), std::move(handler)});
}

RequestPtr ActiveMessages::amSend(int src_pe, int dst_pe, std::uint32_t id, const void* buf,
                                  std::uint64_t len, CompletionFn cb) {
  assert(id < 256);
  auto& seq = seq_[(static_cast<std::uint64_t>(src_pe) << 8) | id];
  const Tag tag = makeTag(id, src_pe, seq++);
  return ctx_.tagSend(src_pe, dst_pe, buf, len, tag, std::move(cb));
}

}  // namespace cux::ucx
