// Allocation gate for the ccl message path: a collective message starts and
// completes without allocating once a communicator is warm.
//
// One communicator over 4 HPN hosts (32 GPUs, default CclConfig: bulk rings,
// 2 channels per edge, 8 pipeline chunks) runs ring AllReduce and PXN
// AllToAll until every connection, path, op slot, message record and event
// slot it needs exists, then runs each again while this binary's replaced
// global operator new counts calls. Every flow in those runs is a flow the
// session started and drained, so the count divided by the session's
// completions is the allocations per flow start. What is left per
// collective (its phase list, the op's done callback) is a handful of calls
// spread over hundreds of flows; a per-message closure or hash node would
// add one or more per flow. Exits 1 above kMaxPerFlow.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "ccl/communicator.h"
#include "routing/router.h"
#include "topo/builders.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Kept out of line: inlined, the malloc and free inside would meet each
// other's operator in a container's allocate/deallocate pair, which GCC's
// -Wmismatched-new-delete reports as a mismatch in Release builds.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hpn;

/// Allowed operator-new calls per flow start in steady state.
constexpr double kMaxPerFlow = 0.1;
constexpr int kWarmRuns = 2;
constexpr int kCountedRuns = 5;

std::uint64_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

struct Rig {
  topo::Cluster cluster = topo::build_hpn(topo::HpnConfig::tiny());
  sim::Simulator sim;
  flowsim::FlowSession session{cluster.topo, sim};
  routing::Router router{cluster.topo};
  ccl::ConnectionManager conns{cluster, router};
  ccl::Communicator comm{cluster, sim, session, conns, ranks(4)};

  [[nodiscard]] std::vector<int> ranks(int hosts) const {
    std::vector<int> out;
    for (int r = 0; r < hosts * cluster.gpus_per_host; ++r) out.push_back(r);
    return out;
  }
};

/// Runs `op` kWarmRuns times, then kCountedRuns times while counting;
/// prints the count per flow start and returns whether it is in bounds.
template <typename Op>
bool measure(Rig& rig, const char* name, Op op) {
  for (int i = 0; i < kWarmRuns; ++i) op();
  const std::uint64_t flows0 = rig.session.stats().completions;
  const std::uint64_t a0 = allocs();
  for (int i = 0; i < kCountedRuns; ++i) op();
  const std::uint64_t allocations = allocs() - a0;
  const std::uint64_t flows = rig.session.stats().completions - flows0;
  const double per_flow =
      flows == 0 ? 1e9 : static_cast<double>(allocations) / static_cast<double>(flows);
  const bool ok = flows > 0 && per_flow <= kMaxPerFlow;
  std::printf("%-22s %8llu flow starts %8llu allocations %.4f per flow start (max %.2f) %s\n",
              name, static_cast<unsigned long long>(flows),
              static_cast<unsigned long long>(allocations), per_flow, kMaxPerFlow,
              ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  Rig rig;
  bool ok = measure(rig, "ring all_reduce", [&] {
    rig.comm.run_all_reduce(DataSize::megabytes(64));
  });
  ok = measure(rig, "pxn all_to_all", [&] {
         bool done = false;
         rig.comm.all_to_all(DataSize::megabytes(16), /*allow_host_relay=*/true,
                             [&done] { done = true; });
         rig.sim.run();
         if (!done) std::abort();
       }) && ok;
  return ok ? 0 : 1;
}
