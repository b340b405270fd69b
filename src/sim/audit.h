// Always-compiled invariant auditing: conservation and sanity checks that
// run *during* a simulation, enabled per-run like the Tracer.
//
// The fuzzing subsystem (tests/fuzz) throws randomized topology × workload
// × fault-schedule scenarios at every engine; the auditor is the oracle
// that turns "the run finished" into "the run was physically plausible":
// bytes injected = delivered + dropped + in-flight, no negative queues,
// per-link rate <= capacity, FIFO order within a port, event-time
// monotonicity, and no flow forwarded over a down link. Every rule guards
// a dense hot path (the pooled event core, the flat-array packet engine,
// the incremental max-min solver), where an indexing bug corrupts numbers
// silently.
//
// Disabled (the default) every probe is a single predictable branch on
// `enabled_` — the same contract as metrics::Tracer, so the auditor can
// stay compiled into release builds and benches. Enabled, violations are
// collected (capped) for the harness to report, or thrown immediately in
// failfast mode so unit tests pinpoint the exact event.
//
// The auditor lives in sim (below topo/flowsim in the layer order), so all
// checks speak raw 32-bit entity ids and doubles; each engine supplies the
// domain meaning at the call site.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace hpn::sim {

enum class AuditRule : std::uint8_t {
  kEventTimeMonotonic,  ///< An event fired before the clock it left behind.
  kNegativeQueue,       ///< A port/queue byte counter went below zero.
  kRateOverCapacity,    ///< Allocated or delivered rate exceeded link capacity.
  kFifoOrder,           ///< A port dequeued packets out of enqueue order.
  kConservation,        ///< injected != delivered + dropped + in-flight.
  kDownLinkForwarding,  ///< A flow carried traffic over a down link.
  kStuckQueue,          ///< Bytes left queued after the simulation drained.
  kCompletionHeap,      ///< A session's next-completion heap disagrees with a full scan.
  kLazySettle,          ///< Lazily settled remaining bits disagree with eager settling.
};

std::string_view to_string(AuditRule rule);

struct AuditViolation {
  TimePoint at;
  AuditRule rule{};
  std::string detail;
};

class InvariantAuditor {
 public:
  /// Start auditing. Call before the audited run injects traffic — the
  /// conservation accumulators in each engine only count while enabled.
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Throw CheckError on the first violation instead of collecting.
  void set_failfast(bool on) { failfast_ = on; }

  /// Hot path: one predictable branch when disabled; the detail string is
  /// built only on failure.
  template <typename DetailFn>
  void check(bool ok, AuditRule rule, TimePoint at, DetailFn&& detail) {
    if (!enabled_ || ok) return;
    fail(rule, at, std::forward<DetailFn>(detail)());
  }

  void fail(AuditRule rule, TimePoint at, std::string detail);

  // ---- Per-port FIFO tickets ----------------------------------------------
  // A port hands out a ticket at enqueue and must retire tickets in the
  // same order at dequeue. Dense by link index; grows on demand.
  [[nodiscard]] std::uint64_t fifo_enqueue(std::uint32_t link) {
    if (link >= fifo_in_.size()) grow_fifo(link);
    return fifo_in_[link]++;
  }
  void fifo_dequeue(std::uint32_t link, std::uint64_t ticket, TimePoint at);

  // ---- Results ------------------------------------------------------------
  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t violation_count() const { return total_violations_; }
  /// Retained violations (collection caps at kMaxRetained; the count keeps
  /// incrementing past it).
  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  /// One line per retained violation, for harness/test failure messages.
  [[nodiscard]] std::string report() const;

  static constexpr std::size_t kMaxRetained = 64;

 private:
  void grow_fifo(std::uint32_t link);

  bool enabled_ = false;
  bool failfast_ = false;
  std::uint64_t total_violations_ = 0;
  std::vector<AuditViolation> violations_;
  std::vector<std::uint64_t> fifo_in_;   ///< Next enqueue ticket per link.
  std::vector<std::uint64_t> fifo_out_;  ///< Next expected dequeue ticket.
};

}  // namespace hpn::sim
