// Parallel execution of independent simulation runs.
//
// The paper's evaluation aggregates hundreds of independent experiments —
// Fig 13-19 parameter sweeps, reliability soaks over months of simulated
// time, 500-run fuzz batches — and every one of them is a self-contained
// (topology, Simulator, workload) triple with no shared mutable state.
// parallel_for exploits exactly that shape: it executes N indexed tasks
// ("run simulation i") on up to `jobs` threads, and parallel_map hands the
// results back *by index*, so aggregation order — table rows, CSV bytes,
// failure reports — is a function of the task list alone, never of thread
// interleaving. `--jobs 8` must be byte-identical to `--jobs 1`.
//
// Scheduling: the caller's thread is one of the `jobs` threads, and each
// thread takes the next index from one shared atomic counter. Tasks here
// are whole simulations (micro- to multi-second scale), so one counter
// costs nothing measurable and leaves nothing to wake or to steal.
//
// Error handling: a task that throws stops the hand-out of new indices;
// running tasks always finish (a Simulator cannot be interrupted midway
// without losing determinism). The call then rethrows the exception of the
// LOWEST failing index. Indices start in ascending order, so every index
// below a failing one has started, and that exception is the same at any
// job count.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace hpn::exec {

/// Run `fn(0) .. fn(count-1)` on up to `jobs` threads, the caller's among
/// them (`jobs <= 1` starts no thread), and return once every started task
/// has returned. Rethrows the lowest failing index's exception.
void parallel_for(int jobs, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// parallel_for() collecting `fn(i)` into a vector ordered by task index —
/// the deterministic-aggregation primitive sweeps are built on. `jobs == 1`
/// is the reference serial order every other job count must reproduce.
template <typename Fn>
auto parallel_map(int jobs, std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(count);
  parallel_for(jobs, count, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(count);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace hpn::exec
