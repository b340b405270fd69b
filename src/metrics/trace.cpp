#include "metrics/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace hpn::metrics {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kFlowStart: return "flow_start";
    case TraceEventKind::kFlowFinish: return "flow_finish";
    case TraceEventKind::kFlowAbort: return "flow_abort";
    case TraceEventKind::kFlowReroute: return "flow_reroute";
    case TraceEventKind::kFlowStall: return "flow_stall";
    case TraceEventKind::kFlowResume: return "flow_resume";
    case TraceEventKind::kLinkDown: return "link_down";
    case TraceEventKind::kLinkUp: return "link_up";
    case TraceEventKind::kLinkUtilization: return "link_util";
    case TraceEventKind::kQueueDepth: return "queue_depth";
    case TraceEventKind::kPfcPause: return "pfc_pause";
    case TraceEventKind::kPfcResume: return "pfc_resume";
    case TraceEventKind::kPacketDrop: return "packet_drop";
    case TraceEventKind::kCollectiveBegin: return "collective_begin";
    case TraceEventKind::kCollectiveEnd: return "collective_end";
    case TraceEventKind::kIterationBegin: return "iteration_begin";
    case TraceEventKind::kIterationEnd: return "iteration_end";
    case TraceEventKind::kJobBegin: return "job_begin";
    case TraceEventKind::kJobEnd: return "job_end";
  }
  return "unknown";
}

void Tracer::enable(std::size_t capacity) {
  HPN_CHECK_MSG(capacity > 0, "tracer needs a nonzero ring");
  HPN_CHECK_MSG(capacity <= std::size_t{0xFFFFFFFFu}, "tracer ring is capped at 2^32 events");
  if (ring_.size() != capacity) {
    ring_.assign(capacity, TraceEvent{});
    total_ = 0;
    ++generation_;
  }
  enabled_ = true;
}

void Tracer::push(const TraceEvent& ev) {
  if (ring_.empty()) ring_.assign(1u << 20, TraceEvent{});  // enable() skipped
  ring_[total_ % ring_.size()] = ev;
  ++total_;
  ++generation_;
}

void Tracer::watch_link(LinkId link) {
  HPN_CHECK(link.is_valid());
  if (watched_.size() <= link.index()) watched_.resize(link.index() + 1, 0);
  watched_[link.index()] = 1;
}

std::size_t Tracer::size() const {
  return static_cast<std::size_t>(std::min<std::uint64_t>(total_, ring_.size()));
}

std::uint64_t Tracer::dropped() const {
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

template <typename F>
void Tracer::for_each_event(F&& f) const {
  const std::size_t n = size();
  const std::size_t start = static_cast<std::size_t>(total_ - n);
  for (std::size_t i = 0; i < n; ++i) f(ring_[(start + i) % ring_.size()]);
}

namespace {

std::uint64_t index_key(TraceEventKind kind, std::uint32_t a) {
  return static_cast<std::uint64_t>(kind) << 32 | a;
}

}  // namespace

template <typename F>
void Tracer::for_each_of(TraceEventKind kind, std::uint32_t a, F&& f) const {
  const std::lock_guard<std::mutex> lock{index_mu_};
  if (index_generation_ != generation_) {
    index_.clear();
    for_each_event([&](const TraceEvent& ev) {
      index_[index_key(ev.kind, ev.a)].push_back(
          static_cast<std::uint32_t>(&ev - ring_.data()));
    });
    index_generation_ = generation_;
  }
  const auto it = index_.find(index_key(kind, a));
  if (it == index_.end()) return;
  for (const std::uint32_t slot : it->second) f(ring_[slot]);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each_event([&](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

std::vector<TraceEvent> Tracer::events_of(TraceEventKind kind, std::uint32_t a) const {
  std::vector<TraceEvent> out;
  const auto keep = [&](const TraceEvent& ev) { out.push_back(ev); };
  if (a != kTraceNoId) {
    for_each_of(kind, a, keep);
  } else {
    for_each_event([&](const TraceEvent& ev) {
      if (ev.kind == kind) keep(ev);
    });
  }
  return out;
}

TimeSeries Tracer::series(TraceEventKind kind, std::uint32_t a) const {
  TimeSeries ts{std::string{to_string(kind)} + ":" + std::to_string(a)};
  for_each_of(kind, a, [&](const TraceEvent& ev) { ts.record(ev.at, ev.value); });
  return ts;
}

void Tracer::write_csv(std::ostream& os) const {
  os << "time_ns,kind,a,b,value,label\n";
  char num[32];
  for_each_event([&](const TraceEvent& ev) {
    os << ev.at.as_nanos() << ',' << to_string(ev.kind) << ',';
    if (ev.a != kTraceNoId) os << ev.a;
    os << ',';
    if (ev.b != kTraceNoId) os << ev.b;
    std::snprintf(num, sizeof num, "%.9g", ev.value);
    os << ',' << num << ',' << (ev.label != nullptr ? ev.label : "") << '\n';
  });
}

namespace {

/// Microsecond timestamp for the chrome `ts` field.
void put_ts(std::ostream& os, TimePoint at) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(at.as_nanos()) / 1e3);
  os << buf;
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  // One process; tracks (tid) separate the layers so the timeline groups
  // flows, links, control plane, collectives and iterations.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char num[32];
  for_each_event([&](const TraceEvent& ev) {
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
  });
  os << "\n]}\n";
}

bool Tracer::save(const std::string& path) const {
  std::ofstream f{path};
  if (!f.good()) return false;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    write_chrome_json(f);
  } else {
    write_csv(f);
  }
  return f.good();
}

}  // namespace hpn::metrics
