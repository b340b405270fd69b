// Test-only oracle check shared by the session differential suite and the
// fuzz driver: two runs of one workload (the production FlowSession and the
// eager reference in reference_session.h) must complete the same flows, in
// the same same-instant groups, with FCTs within max(1 ns, 1e-9 relative).
// FCTs, not absolute instants: a flow a callback starts inherits its
// parent's nanosecond of rounding, so instants may drift along a chain.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace hpn::reference {

/// Completion instant of one flow in ns since origin; kNeverCompleted if the
/// flow was aborted or still stalled when the run ended.
inline constexpr std::int64_t kNeverCompleted = -1;

struct Completion {
  std::int64_t start_ns = 0;
  std::int64_t done_ns = kNeverCompleted;
};

/// Empty when `got` matches `want` flow for flow; otherwise a description of
/// the first few disagreements. Index i names the same logical flow in both.
inline std::string compare_completions(const std::vector<Completion>& got,
                                       const std::vector<Completion>& want) {
  std::ostringstream os;
  int reported = 0;
  auto note = [&](const std::string& msg) {
    if (reported++ < 8) os << msg << '\n';
  };
  if (got.size() != want.size()) {
    os << "flow count " << got.size() << " != " << want.size() << '\n';
    return os.str();
  }
  // Instant groups: every flow the reference completes at one instant must
  // complete at one (shared) instant here, and no two reference instants
  // may merge.
  std::map<std::int64_t, std::int64_t> want_to_got;
  std::map<std::int64_t, std::int64_t> got_to_want;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::int64_t g = got[i].done_ns;
    const std::int64_t w = want[i].done_ns;
    if ((g == kNeverCompleted) != (w == kNeverCompleted)) {
      note("flow " + std::to_string(i) + (g == kNeverCompleted ? " never completed" : " completed") +
           " but the reference " + (w == kNeverCompleted ? "never completed it" : "completed it"));
      continue;
    }
    if (g == kNeverCompleted) continue;
    const std::int64_t g_fct = g - got[i].start_ns;
    const std::int64_t w_fct = w - want[i].start_ns;
    const auto tol =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(1e-9 * static_cast<double>(w_fct)));
    if (std::llabs(g_fct - w_fct) > tol) {
      note("flow " + std::to_string(i) + " FCT " + std::to_string(g_fct) +
           " ns, the reference's " + std::to_string(w_fct) + " ns");
    }
    const auto [wi, w_new] = want_to_got.try_emplace(w, g);
    const auto [gi, g_new] = got_to_want.try_emplace(g, w);
    if (wi->second != g || gi->second != w) {
      note("flow " + std::to_string(i) + " at " + std::to_string(g) +
           " ns splits or merges the reference's completion instant " + std::to_string(w) +
           " ns");
    }
  }
  if (reported > 8) os << "... " << (reported - 8) << " more\n";
  return os.str();
}

}  // namespace hpn::reference
