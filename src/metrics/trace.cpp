#include "metrics/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>

#include "common/check.h"
#include "common/text.h"

namespace hpn::metrics {

namespace {

/// First storage step of an enabled ring, in events (40 KB).
constexpr std::size_t kFirstReserve = 1024;

}  // namespace

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
  if (capacity_ != capacity) {
    ring_ = std::vector<TraceEvent>{};  // frees the old storage
    capacity_ = capacity;
    total_ = 0;
    ++generation_;
  }
  enabled_ = true;
}

void Tracer::push(const TraceEvent& ev) {
  if (ring_.size() < capacity_) {
    if (ring_.size() == ring_.capacity()) {
      // Double explicitly, and stop at capacity_ rather than past it.
      ring_.reserve(std::min(capacity_, std::max(kFirstReserve, 2 * ring_.size())));
    }
    ring_.push_back(ev);
  } else {
    ring_[total_ % capacity_] = ev;
  }
  ++total_;
  ++generation_;
}

void Tracer::watch_link(LinkId link) {
  HPN_CHECK(link.is_valid());
  if (watched_.size() <= link.index()) watched_.resize(link.index() + 1, 0);
  watched_[link.index()] = 1;
}

template <typename F>
void Tracer::for_each_event(F&& f) const {
  // Oldest first: slot total_ % n once the ring has wrapped, slot 0 before.
  const std::size_t n = ring_.size();
  const std::size_t start = n == 0 ? 0 : static_cast<std::size_t>(total_ % n);
  for (std::size_t i = start; i < n; ++i) f(ring_[i]);
  for (std::size_t i = 0; i < start; ++i) f(ring_[i]);
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

namespace {

/// Exporters hand the stream this much at a time.
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

void append_csv_line(std::string& out, const TraceEvent& ev) {
  text::append_int(out, ev.at.as_nanos());
  out += ',';
  out += to_string(ev.kind);
  out += ',';
  if (ev.a != kTraceNoId) text::append_uint(out, ev.a);
  out += ',';
  if (ev.b != kTraceNoId) text::append_uint(out, ev.b);
  out += ',';
  text::append_g(out, ev.value, 9);
  out += ',';
  if (ev.label != nullptr) out += ev.label;
  out += '\n';
}

/// Microsecond timestamp for the chrome `ts` field: printf's `%.3f`.
void append_ts(std::string& out, TimePoint at) {
  char buf[32];  // |ns| < 2^63, so |us| < 1e16: at most 22 bytes
  const auto res = std::to_chars(buf, buf + sizeof buf,
                                 static_cast<double>(at.as_nanos()) / 1e3,
                                 std::chars_format::fixed, 3);
  out.append(buf, res.ptr);
}

/// One chrome trace_event object. One process; tracks (tid) separate the
/// layers so the timeline groups flows, links, control plane, collectives
/// and iterations.
void append_chrome_event(std::string& out, const TraceEvent& ev) {
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
      out += "{\"name\":\"";
      if (ev.label != nullptr) {
        out += ev.label;
      } else {
        out += job ? "job" : iter ? "iteration" : "collective";
      }
      if (iter || job) {
        out += ' ';
        text::append_uint(out, ev.a);
      }
      out += "\",\"cat\":\"";
      out += job ? "cluster" : iter ? "train" : "ccl";
      out += "\",\"ph\":\"";
      out += begin ? 'b' : 'e';
      out += "\",\"id\":";
      text::append_uint(out, ev.a);
      out += ",\"pid\":1,\"tid\":";
      out += job ? '4' : iter ? '1' : '2';
      out += ",\"ts\":";
      append_ts(out, ev.at);
      out += '}';
      break;
    }
    case TraceEventKind::kLinkUtilization:
    case TraceEventKind::kQueueDepth: {
      out += "{\"name\":\"";
      out += kind;
      out += ":link";
      text::append_uint(out, ev.a);
      out += "\",\"ph\":\"C\",\"pid\":1,\"ts\":";
      append_ts(out, ev.at);
      out += ",\"args\":{\"value\":";
      text::append_g(out, ev.value, 6);
      out += "}}";
      break;
    }
    default: {
      out += "{\"name\":\"";
      out += kind;
      if (ev.a != kTraceNoId) {
        out += ' ';
        text::append_uint(out, ev.a);
      }
      out += "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":3,\"ts\":";
      append_ts(out, ev.at);
      out += ",\"args\":{\"value\":";
      text::append_g(out, ev.value, 6);
      if (ev.b != kTraceNoId) {
        out += ",\"b\":";
        text::append_uint(out, ev.b);
      }
      out += "}}";
      break;
    }
  }
}

}  // namespace

template <typename F>
void Tracer::write_chunked(std::ostream& os, std::string_view head, F&& append,
                           std::string_view tail) const {
  std::string buf;
  buf.reserve(kChunkBytes + 512);  // one event's line past a full chunk
  buf += head;
  for_each_event([&](const TraceEvent& ev) {
    append(buf, ev);
    if (buf.size() >= kChunkBytes) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  });
  buf += tail;
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void Tracer::write_csv(std::ostream& os) const {
  write_chunked(os, "time_ns,kind,a,b,value,label\n", append_csv_line, "");
}

void Tracer::write_chrome_json(std::ostream& os) const {
  bool first = true;
  write_chunked(
      os, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
      [&first](std::string& out, const TraceEvent& ev) {
        if (!first) out += ",\n";
        first = false;
        append_chrome_event(out, ev);
      },
      "\n]}\n");
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
