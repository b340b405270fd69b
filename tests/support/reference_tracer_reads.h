// Test-only oracle: the Tracer's original copy-and-scan read path, kept
// verbatim (as free functions over Tracer::events(), renamed into namespace
// hpn::reference) so the per-(kind, entity) index that replaced it can be
// differentially tested against the reads every bench and golden was
// produced with.
#pragma once

#include <string>
#include <vector>

#include "metrics/trace.h"

namespace hpn::reference {

/// Retained events of one kind (optionally one primary entity), in order.
inline std::vector<metrics::TraceEvent> events_of(const metrics::Tracer& t,
                                                  metrics::TraceEventKind kind,
                                                  std::uint32_t a = metrics::kTraceNoId) {
  std::vector<metrics::TraceEvent> out;
  for (const metrics::TraceEvent& ev : t.events()) {
    if (ev.kind != kind) continue;
    if (a != metrics::kTraceNoId && ev.a != a) continue;
    out.push_back(ev);
  }
  return out;
}

/// Periodic samples of `kind` for entity `a` as a TimeSeries.
inline metrics::TimeSeries series(const metrics::Tracer& t, metrics::TraceEventKind kind,
                                  std::uint32_t a) {
  metrics::TimeSeries ts{std::string{metrics::to_string(kind)} + ":" + std::to_string(a)};
  for (const metrics::TraceEvent& ev : t.events()) {
    if (ev.kind == kind && ev.a == a) ts.record(ev.at, ev.value);
  }
  return ts;
}

}  // namespace hpn::reference
