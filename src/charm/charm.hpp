#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "charm/buffer.hpp"
#include "charm/pup.hpp"
#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "model/model.hpp"
#include "obs/span.hpp"

/// \file charm.hpp
/// The Charm++-like runtime: chares, typed entry-method invocation, post
/// entry methods for GPU-aware zero-copy receives (paper Section III-B).
///
/// Real Charm++ generates marshalling code from .ci interface files; here
/// C++20 templates produce the same thunks. The paper's `nocopydevice`
/// parameter attribute corresponds to passing a ck::Buffer argument, and the
/// post entry method is a member taking std::span<ck::Buffer> registered via
/// ck::setPostEntry<&C::entry, &C::entryPost>().
///
/// Flow of an invocation with device buffers (paper Fig. 6):
///  1. proxy.send<&C::recv>(ck::Buffer(gpu_ptr, n), ...) on the sender PE;
///  2. the runtime calls LrtsSendDevice per buffer — the machine layer
///     generates a tag and ships the GPU payload through UCX;
///  3. tags and host-side args are packed into the metadata message, sent
///     through Converse;
///  4. on arrival, the post entry runs so the user can set destination GPU
///     pointers, then LrtsRecvDevice posts the receives;
///  5. when every buffer has landed, the regular entry method runs.

namespace cux::ck {

class Runtime;

struct ChareId {
  int pe = -1;
  std::uint32_t index = 0;
};

/// Base class of all chares.
class Chare {
 public:
  virtual ~Chare() = default;

  [[nodiscard]] int myPe() const noexcept { return id_.pe; }
  [[nodiscard]] ChareId ckId() const noexcept { return id_; }
  [[nodiscard]] Runtime& ckRuntime() const noexcept { return *rt_; }

 private:
  friend class Runtime;
  ChareId id_{};
  Runtime* rt_ = nullptr;
};

template <class M>
struct MethodTraits;
template <class C, class... Args>
struct MethodTraits<void (C::*)(Args...)> {
  using Class = C;
  using Tuple = std::tuple<std::decay_t<Args>...>;
  static constexpr std::size_t arity = sizeof...(Args);
};

namespace detail {

template <class T>
inline constexpr bool is_buffer_v = std::is_same_v<std::decay_t<T>, Buffer>;

template <class Tuple>
[[nodiscard]] constexpr std::uint32_t bufferCount() {
  return []<std::size_t... I>(std::index_sequence<I...>) {
    return static_cast<std::uint32_t>(
        (0u + ... + (is_buffer_v<std::tuple_element_t<I, Tuple>> ? 1u : 0u)));
  }(std::make_index_sequence<std::tuple_size_v<Tuple>>{});
}

struct EntryDesc {
  void (*invoke)(Runtime&, int pe, Chare*, std::shared_ptr<cmi::Message>, std::size_t off);
};

[[nodiscard]] std::vector<EntryDesc>& entryTable();

/// Post entry registered for entry method M (global, like codegen output).
/// The Unpacker is positioned at the start of the host arguments so a post
/// entry can inspect them (e.g. which face a halo message carries) before
/// choosing destinations; it operates on a copy, so consuming it does not
/// disturb the regular entry's unpacking.
template <auto M>
struct PostOf {
  static inline std::function<void(Chare*, std::span<Buffer>, Unpacker)> fn;
};

template <auto M>
void entryThunk(Runtime& rt, int pe, Chare* obj, std::shared_ptr<cmi::Message> msg,
                std::size_t off);

template <auto M>
[[nodiscard]] std::uint32_t entryId() {
  static const std::uint32_t id = [] {
    entryTable().push_back(EntryDesc{&entryThunk<M>});
    return static_cast<std::uint32_t>(entryTable().size() - 1);
  }();
  return id;
}

}  // namespace detail

/// Registers `PostM` as the post entry method of `M`. `PostM` must have the
/// signature `void (C::*)(std::span<ck::Buffer>)` or
/// `void (C::*)(std::span<ck::Buffer>, ck::Unpacker&)` and set a destination
/// on every buffer. (Deviation from the paper's codegen: the post entry
/// takes the buffer span — plus optionally a host-argument reader — rather
/// than mirroring the full parameter list.)
template <auto M, auto PostM>
void setPostEntry() {
  using C = typename MethodTraits<decltype(M)>::Class;
  detail::PostOf<M>::fn = [](Chare* obj, std::span<Buffer> bufs, Unpacker args) {
    if constexpr (std::is_invocable_v<decltype(PostM), C*, std::span<Buffer>, Unpacker&>) {
      (static_cast<C*>(obj)->*PostM)(bufs, args);
    } else {
      (void)args;
      (static_cast<C*>(obj)->*PostM)(bufs);
    }
  };
}

/// CkCallback: a deferred invocation on a specific PE (paper Fig. 5 stores
/// one inside CkDeviceBuffer to notify senders of completion).
class Callback {
 public:
  Callback() = default;
  Callback(Runtime& rt, int pe, std::function<void()> fn);

  /// Schedules the callback on its PE (CkCallback::send()).
  void send() const;

  [[nodiscard]] explicit operator bool() const noexcept { return static_cast<bool>(fn_); }

 private:
  Runtime* rt_ = nullptr;
  int pe_ = -1;
  std::shared_ptr<std::function<void()>> fn_;
};

template <class T>
class Proxy;

class Runtime {
 public:
  Runtime(hw::System& sys, ucx::Context& ucx, const model::Model& model,
          core::TagScheme tags = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] hw::System& system() noexcept { return sys_; }
  [[nodiscard]] cmi::Converse& cmi() noexcept { return *cmi_; }
  [[nodiscard]] core::DeviceComm& dev() noexcept { return *dev_; }
  [[nodiscard]] const model::LayerCosts& costs() const noexcept { return cmi_->costs(); }
  [[nodiscard]] int numPes() const noexcept { return cmi_->numPes(); }

  /// Creates a chare of type T on `pe`; setup-time operation (no cost).
  template <class T, class... A>
  Proxy<T> create(int pe, A&&... args);

  /// Bootstraps execution: runs `fn` on `pe` in PE context at current time.
  void startOn(int pe, std::function<void()> fn) { cmi_->runOn(pe, std::move(fn)); }

  /// Entry-method send; normally called through Proxy<T>::send. The source
  /// PE is the currently executing one.
  template <auto M, class... Args>
  void sendTo(ChareId dst, Args&&... args) {
    const int src_pe = cmi_->currentPe();
    assert(src_pe >= 0 && "entry-method sends must run in PE context (use startOn/sendFrom)");
    sendFrom<M>(src_pe, dst, std::forward<Args>(args)...);
  }

  /// Entry-method send with an explicit source PE; used by layers (AMPI,
  /// Charm4py) that know their PE even when running outside a scheduler
  /// continuation (e.g. a coroutine resumed from a timer).
  template <auto M, class... Args>
  void sendFrom(int src_pe, ChareId dst, Args&&... args);

  [[nodiscard]] Chare* chareAt(int pe, std::uint32_t idx) {
    return chares_[static_cast<std::size_t>(pe)][idx].get();
  }

 private:
  template <auto>
  friend void detail::entryThunk(Runtime&, int, Chare*, std::shared_ptr<cmi::Message>,
                                 std::size_t);

  void dispatch(cmi::Message msg);
  /// Device and large host buffers rendezvous; small host buffers are packed.
  [[nodiscard]] bool rendezvous(const Buffer& b) const {
    return sys_.memory.isDevice(b.source()) || b.size() >= costs().host_pack_threshold;
  }
  /// Bytes packBuffer() appends for `b`: mode, size, then the tag or the data.
  [[nodiscard]] std::size_t packedBufferBytes(const Buffer& b) const {
    return 1 + sizeof(std::uint64_t) + (rendezvous(b) ? sizeof(std::uint64_t) : b.size());
  }
  /// Packs one Buffer argument: rendezvous (device or large host) buffers go
  /// through LrtsSendDevice; small host buffers are packed inline.
  void packBuffer(Packer& p, const Buffer& b, int src_pe, int dst_pe,
                  std::uint64_t& inline_bulk);

  hw::System& sys_;
  std::unique_ptr<cmi::Converse> cmi_;
  std::unique_ptr<core::DeviceComm> dev_;
  int handler_ = -1;
  std::vector<std::vector<std::unique_ptr<Chare>>> chares_;
};

template <class T>
class Proxy {
 public:
  Proxy() = default;
  Proxy(Runtime& rt, ChareId id) : rt_(&rt), id_(id) {}

  /// Asynchronous entry-method invocation (message-driven: no reply).
  template <auto M, class... A>
  void send(A&&... args) const {
    static_assert(std::is_base_of_v<Chare, T>, "chare types must derive from ck::Chare");
    static_assert(std::is_base_of_v<typename MethodTraits<decltype(M)>::Class, T>,
                  "entry method does not belong to this chare type");
    rt_->template sendTo<M>(id_, std::forward<A>(args)...);
  }

  /// Send with an explicit source PE (for coroutine contexts outside the
  /// scheduler; see Runtime::sendFrom).
  template <auto M, class... A>
  void sendFrom(int src_pe, A&&... args) const {
    rt_->template sendFrom<M>(src_pe, id_, std::forward<A>(args)...);
  }

  /// Direct access to the chare object (tests / local setup only).
  [[nodiscard]] T* local() const {
    return static_cast<T*>(rt_->chareAt(id_.pe, id_.index));
  }

  [[nodiscard]] ChareId id() const noexcept { return id_; }
  [[nodiscard]] int pe() const noexcept { return id_.pe; }
  [[nodiscard]] Runtime& runtime() const noexcept { return *rt_; }

 private:
  Runtime* rt_ = nullptr;
  ChareId id_{};
};

// ---------------------------------------------------------------------------
// template implementations
// ---------------------------------------------------------------------------

template <class T, class... A>
Proxy<T> Runtime::create(int pe, A&&... args) {
  auto obj = std::make_unique<T>(std::forward<A>(args)...);
  obj->id_ = ChareId{pe, static_cast<std::uint32_t>(chares_[static_cast<std::size_t>(pe)].size())};
  obj->rt_ = this;
  Proxy<T> proxy(*this, obj->id_);
  chares_[static_cast<std::size_t>(pe)].push_back(std::move(obj));
  return proxy;
}

template <auto M, class... Args>
void Runtime::sendFrom(int src_pe, ChareId dst, Args&&... args) {
  using Traits = MethodTraits<decltype(M)>;
  using Tuple = typename Traits::Tuple;
  static_assert(sizeof...(Args) == Traits::arity, "argument count mismatch");
  assert(src_pe >= 0 && src_pe < numPes());

  // Sized up front, with room for the Converse header: every byte of the
  // message is written once, into one allocation.
  std::size_t bytes = cmi::Message::kHeaderBytes + 3 * sizeof(std::uint32_t);
  (
      [&] {
        if constexpr (detail::is_buffer_v<Args>) {
          bytes += packedBufferBytes(args);
        } else {
          bytes += packedSize(args);
        }
      }(),
      ...);
  Packer p(cmi::Message::kHeaderBytes, bytes);
  p.pack(dst.index);
  p.pack(detail::entryId<M>());
  constexpr std::uint32_t nbuf = detail::bufferCount<Tuple>();
  p.pack(nbuf);

  std::uint64_t inline_bulk = 0;
  // Pass 1: buffers, in declaration order.
  (
      [&] {
        if constexpr (detail::is_buffer_v<Args>) {
          packBuffer(p, args, src_pe, dst.pe, inline_bulk);
        }
      }(),
      ...);
  // Pass 2: host args, in declaration order.
  (
      [&] {
        if constexpr (!detail::is_buffer_v<Args>) {
          p.pack(args);
        }
      }(),
      ...);

  // Message allocation plus runtime-side copies of packed payload.
  const double copy_us =
      (static_cast<double>(inline_bulk + p.bulkBytes()) / 1e3) / sys_.config.host_memcpy_gbps;
  cmi_->pe(src_pe).charge(sim::usec(costs().charm_msg_alloc_us + copy_us));
  cmi_->send(src_pe, dst.pe, handler_, p.take());
}

namespace detail {

template <auto M>
void invokeWithArgs(Runtime& rt, Chare* obj, Unpacker& u, std::vector<Buffer>& bufs) {
  using Traits = MethodTraits<decltype(M)>;
  using C = typename Traits::Class;
  using Tuple = typename Traits::Tuple;
  auto* self = static_cast<C*>(obj);
  std::size_t bi = 0;
  (void)rt;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    // Braced-init guarantees left-to-right evaluation, preserving the packed
    // argument order.
    Tuple argv{[&]() -> std::tuple_element_t<I, Tuple> {
      using T = std::tuple_element_t<I, Tuple>;
      if constexpr (is_buffer_v<T>) {
        return bufs[bi++];
      } else {
        return u.template unpack<T>();
      }
    }()...};
    std::apply([&](auto&&... a) { (self->*M)(std::move(a)...); }, std::move(argv));
  }(std::make_index_sequence<std::tuple_size_v<Tuple>>{});
}

template <auto M>
void entryThunk(Runtime& rt, int pe, Chare* obj, std::shared_ptr<cmi::Message> msg,
                std::size_t off) {
  Unpacker u(msg->payload(), off);
  const auto nbuf = u.unpack<std::uint32_t>();
  auto bufs = std::make_shared<std::vector<Buffer>>();
  bufs->reserve(nbuf);
  std::vector<std::pair<std::size_t, std::size_t>> packed;  // (buffer idx, payload offset)
  for (std::uint32_t i = 0; i < nbuf; ++i) {
    const auto mode = static_cast<Buffer::Mode>(u.unpack<std::uint8_t>());
    const auto size = u.unpack<std::uint64_t>();
    Buffer b;
    b.internalSetMode(mode);
    b.internalSetSize(size);
    if (mode == Buffer::Mode::Rndv) {
      b.internalSetTag(u.unpack<std::uint64_t>());
      // Metadata carrying this device tag has reached the receiving PE; the
      // gap to the lrtsRecvDevice below is the paper's recv-post delay.
      obs::SpanCollector& spans = rt.system().obs.spans;
      spans.phase(spans.spanForTag(b.tag()), rt.system().engine.now(),
                  obs::Phase::MetaArrived, pe, b.size());
    } else {
      packed.emplace_back(i, u.offset());
      u.skip(size);
    }
    bufs->push_back(std::move(b));
  }
  const std::size_t args_off = u.offset();

  if (nbuf > 0) {
    auto& post = PostOf<M>::fn;
    assert(post && "entry with ck::Buffer parameters needs setPostEntry<>()");
    post(obj, std::span<Buffer>(*bufs), Unpacker(msg->payload(), args_off));
  }

  // Small host payloads packed into the metadata message: copy into the
  // user-provided destinations now (the receive-side runtime memcpy the
  // paper attributes host-staging slowdowns to).
  std::uint64_t packed_bytes = 0;
  for (const auto& [i, poff] : packed) {
    Buffer& b = (*bufs)[i];
    assert(b.data() != nullptr && b.capacity() >= b.size() && "post entry must set destinations");
    if (msg->payload_valid && rt.system().memory.dereferenceable(b.data()) && b.size() > 0) {
      std::memcpy(b.data(), msg->payload().data() + poff, b.size());
    }
    packed_bytes += b.size();
  }
  if (packed_bytes > 0) {
    const double copy_us =
        (static_cast<double>(packed_bytes) / 1e3) / rt.system().config.host_memcpy_gbps;
    rt.cmi().pe(pe).charge(sim::usec(copy_us));
  }

  auto invoke = [&rt, obj, bufs, msg, args_off] {
    Unpacker u2(msg->payload(), args_off);
    invokeWithArgs<M>(rt, obj, u2, *bufs);
  };

  auto pending = std::make_shared<int>(0);
  for (const Buffer& b : *bufs) {
    if (b.mode() == Buffer::Mode::Rndv) ++*pending;
  }
  if (*pending == 0) {
    invoke();
    return;
  }
  for (Buffer& b : *bufs) {
    if (b.mode() != Buffer::Mode::Rndv) continue;
    assert(b.data() != nullptr && b.capacity() >= b.size() && "post entry must set destinations");
    rt.dev().lrtsRecvDevice(pe, core::DeviceRdmaOp{b.data(), b.size(), b.tag()},
                            core::DeviceRecvType::Charm, [pending, invoke] {
                              if (--*pending == 0) invoke();
                            });
  }
}

}  // namespace detail

}  // namespace cux::ck
