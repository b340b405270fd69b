// Test-only oracle: the Tracer's original stream exporters, kept verbatim
// (as free functions over Tracer::events(), renamed into namespace
// hpn::reference) so the chunked text:: exporters that replaced them can be
// differentially tested, byte for byte, against the files every golden and
// export was produced with.
#pragma once

#include <cstdio>
#include <ostream>
#include <string_view>

#include "metrics/trace.h"

namespace hpn::reference {

/// time_ns,kind,a,b,value,label — one line per retained event.
inline void write_csv(const metrics::Tracer& t, std::ostream& os) {
  using metrics::kTraceNoId;
  os << "time_ns,kind,a,b,value,label\n";
  char num[32];
  for (const metrics::TraceEvent& ev : t.events()) {
    os << ev.at.as_nanos() << ',' << to_string(ev.kind) << ',';
    if (ev.a != kTraceNoId) os << ev.a;
    os << ',';
    if (ev.b != kTraceNoId) os << ev.b;
    std::snprintf(num, sizeof num, "%.9g", ev.value);
    os << ',' << num << ',' << (ev.label != nullptr ? ev.label : "") << '\n';
  }
}

namespace detail {

/// Microsecond timestamp for the chrome `ts` field.
inline void put_ts(std::ostream& os, TimePoint at) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(at.as_nanos()) / 1e3);
  os << buf;
}

}  // namespace detail

/// Chrome trace_event JSON (chrome://tracing, Perfetto).
inline void write_chrome_json(const metrics::Tracer& t, std::ostream& os) {
  using metrics::kTraceNoId;
  using metrics::TraceEventKind;
  using detail::put_ts;
  // One process; tracks (tid) separate the layers so the timeline groups
  // flows, links, control plane, collectives and iterations.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char num[32];
  for (const metrics::TraceEvent& ev : t.events()) {
    if (!first) os << ",\n";
    first = false;
    const std::string_view kind = to_string(ev.kind);
    switch (ev.kind) {
      case TraceEventKind::kCollectiveBegin:
      case TraceEventKind::kCollectiveEnd:
      case TraceEventKind::kIterationBegin:
      case TraceEventKind::kIterationEnd:
      case TraceEventKind::kJobBegin:
      case TraceEventKind::kJobEnd: {
        const bool begin = ev.kind == TraceEventKind::kCollectiveBegin ||
                           ev.kind == TraceEventKind::kIterationBegin ||
                           ev.kind == TraceEventKind::kJobBegin;
        const bool iter = ev.kind == TraceEventKind::kIterationBegin ||
                          ev.kind == TraceEventKind::kIterationEnd;
        const bool job = ev.kind == TraceEventKind::kJobBegin ||
                         ev.kind == TraceEventKind::kJobEnd;
        os << "{\"name\":\"";
        if (ev.label != nullptr) {
          os << ev.label;
        } else {
          os << (job ? "job" : iter ? "iteration" : "collective");
        }
        if (iter || job) os << ' ' << ev.a;
        os << "\",\"cat\":\"" << (job ? "cluster" : iter ? "train" : "ccl")
           << "\",\"ph\":\"" << (begin ? 'b' : 'e') << "\",\"id\":" << ev.a
           << ",\"pid\":1,\"tid\":" << (job ? 4 : iter ? 1 : 2) << ",\"ts\":";
        put_ts(os, ev.at);
        os << "}";
        break;
      }
      case TraceEventKind::kLinkUtilization:
      case TraceEventKind::kQueueDepth: {
        std::snprintf(num, sizeof num, "%.6g", ev.value);
        os << "{\"name\":\"" << kind << ":link" << ev.a
           << "\",\"ph\":\"C\",\"pid\":1,\"ts\":";
        put_ts(os, ev.at);
        os << ",\"args\":{\"value\":" << num << "}}";
        break;
      }
      default: {
        std::snprintf(num, sizeof num, "%.6g", ev.value);
        os << "{\"name\":\"" << kind;
        if (ev.a != kTraceNoId) os << ' ' << ev.a;
        os << "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":3,\"ts\":";
        put_ts(os, ev.at);
        os << ",\"args\":{\"value\":" << num;
        if (ev.b != kTraceNoId) os << ",\"b\":" << ev.b;
        os << "}}";
        break;
      }
    }
  }
  os << "\n]}\n";
}

}  // namespace hpn::reference
