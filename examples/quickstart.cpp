/// Quickstart: GPU-aware entry-method invocation in the Charm++-like runtime.
///
/// Mirrors the paper's Fig. 4: a sender chare invokes `recv` on a peer with a
/// `nocopydevice` GPU buffer parameter (here: a ck::Buffer argument); the
/// receiver's *post entry method* supplies the destination GPU buffer, the
/// machine layer moves the payload directly between the simulated GPUs via
/// mini-UCX, and the regular entry method runs once the data has landed.
///
/// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <cstring>

#include "charm/charm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

using namespace cux;

namespace {

constexpr std::size_t kBytes = 1u << 20;  // 1 MiB of GPU data

struct MyChare : ck::Chare {
  // Post entry method: runs before `recv`, lets us set the destination GPU
  // buffer so the incoming data lands with zero copies (paper Fig. 4 (2)).
  void recvPost(std::span<ck::Buffer> bufs) {
    std::printf("[pe %d] post entry at t=%.2f us: supplying destination GPU buffer\n", myPe(),
                sim::toUs(ckRuntime().system().engine.now()));
    bufs[0].setDestination(recv_gpu_data, kBytes);
  }

  // Regular entry method: the GPU data is available (paper Fig. 4 (3)).
  void recv(ck::Buffer data, std::uint64_t size) {
    // Report where the data landed, not its address: the address differs
    // from run to run, the placement does not.
    std::printf("[pe %d] regular entry at t=%.2f us: received %llu bytes %s\n", myPe(),
                sim::toUs(ckRuntime().system().engine.now()),
                static_cast<unsigned long long>(size),
                data.data() == recv_gpu_data ? "in the posted GPU buffer" : "ELSEWHERE");
    const auto* bytes = static_cast<const unsigned char*>(data.data());
    std::printf("[pe %d] first bytes: %02x %02x %02x %02x\n", myPe(), bytes[0], bytes[1],
                bytes[2], bytes[3]);
  }

  void* recv_gpu_data = nullptr;
};

}  // namespace

int main() {
  // One simulated Summit node: 2 Power9 CPUs, 6 V100s, NVLink + X-Bus.
  model::Model m = model::summit(/*nodes=*/1);
  hw::System sys(m.machine);
  ucx::Context ucx(sys, m.ucx);
  ck::Runtime rt(sys, ucx, m);

  ck::setPostEntry<&MyChare::recv, &MyChare::recvPost>();

  // Two chares on different GPUs of the node (PE = GPU).
  [[maybe_unused]] auto sender = rt.create<MyChare>(0);
  auto receiver = rt.create<MyChare>(4);  // other CPU socket: crosses the X-Bus

  // Simulated device allocations: real memory backs them, so data integrity
  // is observable end to end.
  cuda::DeviceBuffer src(sys, 0, kBytes);
  cuda::DeviceBuffer dst(sys, 4, kBytes);
  std::memset(src.get(), 0xAB, kBytes);
  std::memset(dst.get(), 0x00, kBytes);
  receiver.local()->recv_gpu_data = dst.get();

  // Invoke the entry method with a GPU buffer parameter. The runtime sends
  // the metadata message through Converse and the payload through the
  // GPU-aware UCX machine layer (paper Fig. 6).
  rt.startOn(0, [&] {
    std::printf("[pe 0] sending %zu bytes of GPU data at t=%.2f us\n", kBytes,
                sim::toUs(sys.engine.now()));
    receiver.send<&MyChare::recv>(ck::Buffer(src.get(), kBytes), std::uint64_t{kBytes});
  });

  sys.engine.run();

  const bool ok = std::memcmp(src.get(), dst.get(), kBytes) == 0;
  std::printf("\ndata integrity: %s; total virtual time %.2f us\n", ok ? "OK" : "FAILED",
              sim::toUs(sys.engine.now()));
  return ok ? 0 : 1;
}
