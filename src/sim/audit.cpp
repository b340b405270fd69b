#include "sim/audit.h"

#include "common/check.h"

namespace hpn::sim {

std::string_view to_string(AuditRule rule) {
  switch (rule) {
    case AuditRule::kEventTimeMonotonic: return "event_time_monotonic";
    case AuditRule::kNegativeQueue: return "negative_queue";
    case AuditRule::kRateOverCapacity: return "rate_over_capacity";
    case AuditRule::kFifoOrder: return "fifo_order";
    case AuditRule::kConservation: return "conservation";
    case AuditRule::kDownLinkForwarding: return "down_link_forwarding";
    case AuditRule::kStuckQueue: return "stuck_queue";
    case AuditRule::kCompletionHeap: return "completion_heap";
    case AuditRule::kLazySettle: return "lazy_settle";
  }
  return "unknown";
}

void InvariantAuditor::fail(AuditRule rule, TimePoint at, std::string detail) {
  ++total_violations_;
  if (failfast_) {
    std::ostringstream os;
    os << "invariant violated: " << to_string(rule) << " at t=" << to_string(at)
       << " — " << detail;
    throw CheckError{os.str()};
  }
  if (violations_.size() < kMaxRetained) {
    violations_.push_back(AuditViolation{at, rule, std::move(detail)});
  }
}

void InvariantAuditor::fifo_dequeue(std::uint32_t link, std::uint64_t ticket,
                                    TimePoint at) {
  if (!enabled_) return;
  if (link >= fifo_out_.size()) grow_fifo(link);
  const std::uint64_t expected = fifo_out_[link]++;
  if (ticket != expected) {
    std::ostringstream os;
    os << "link " << link << " dequeued ticket " << ticket << ", expected "
       << expected;
    fail(AuditRule::kFifoOrder, at, os.str());
  }
}

void InvariantAuditor::grow_fifo(std::uint32_t link) {
  const std::size_t need = static_cast<std::size_t>(link) + 1;
  if (fifo_in_.size() < need) fifo_in_.resize(need, 0);
  if (fifo_out_.size() < need) fifo_out_.resize(need, 0);
}

std::string InvariantAuditor::report() const {
  std::ostringstream os;
  os << total_violations_ << " invariant violation(s)";
  if (total_violations_ > violations_.size()) {
    os << " (" << violations_.size() << " retained)";
  }
  os << '\n';
  for (const AuditViolation& v : violations_) {
    os << "  [" << to_string(v.rule) << "] t=" << to_string(v.at) << " " << v.detail
       << '\n';
  }
  return os.str();
}

}  // namespace hpn::sim
