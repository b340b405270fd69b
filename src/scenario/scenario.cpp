#include "scenario/scenario.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/text.h"
#include "fabric/fabric.h"
#include "routing/router.h"
#include "sim/simulator.h"
#include "topo/builders.h"

namespace hpn::fuzz {

namespace {

constexpr std::string_view kHeader = "hpnsim-scenario v1";

/// The shrinker's terminal topology: hosts as bare NICs, two ToRs, one or
/// two Aggs. Keeps dual-ToR origination and tier2 transit meaningful at
/// 4-8 nodes (1 host + 2 ToRs + 1 Agg = 4).
topo::Cluster build_tiny_clos(std::uint32_t hosts_knob, std::uint32_t aggs_knob) {
  const int hosts = static_cast<int>(std::clamp<std::uint32_t>(hosts_knob, 1, 4));
  const int aggs = static_cast<int>(std::clamp<std::uint32_t>(aggs_knob, 1, 2));
  topo::Cluster c;
  c.arch = topo::Arch::kHpn;
  c.gpus_per_host = 0;  // NIC-only hosts; nothing here navigates GPUs.
  c.pods = 1;
  c.segments_per_pod = 1;

  topo::Location sloc;
  sloc.pod = 0;
  sloc.segment = 0;
  const NodeId tor0 = c.topo.add_node(topo::NodeKind::kTor, "tor0", sloc);
  const NodeId tor1 = c.topo.add_node(topo::NodeKind::kTor, "tor1", sloc);
  c.tors = {tor0, tor1};
  for (int a = 0; a < aggs; ++a) {
    topo::Location aloc;
    aloc.pod = 0;
    aloc.local = a;
    const NodeId agg =
        c.topo.add_node(topo::NodeKind::kAgg, "agg" + std::to_string(a), aloc);
    c.aggs.push_back(agg);
    c.topo.add_duplex_link(tor0, agg, topo::LinkKind::kFabric, Bandwidth::gbps(400),
                           Duration::micros(1));
    c.topo.add_duplex_link(tor1, agg, topo::LinkKind::kFabric, Bandwidth::gbps(400),
                           Duration::micros(1));
  }
  for (int h = 0; h < hosts; ++h) {
    topo::Location hloc;
    hloc.pod = 0;
    hloc.segment = 0;
    hloc.host = h;
    std::string name = "h";
    name += std::to_string(h);
    name += ".nic";
    const NodeId nic = c.topo.add_node(topo::NodeKind::kNic, std::move(name), hloc);
    topo::Host host;
    host.index = h;
    topo::NicAttachment att;
    att.nic = nic;
    att.ports = 2;
    att.tor[0] = tor0;
    att.tor[1] = tor1;
    att.access[0] = c.topo
                        .add_duplex_link(nic, tor0, topo::LinkKind::kAccess,
                                         Bandwidth::gbps(200), Duration::micros(1))
                        .forward;
    att.access[1] = c.topo
                        .add_duplex_link(nic, tor1, topo::LinkKind::kAccess,
                                         Bandwidth::gbps(200), Duration::micros(1))
                        .forward;
    host.nics.push_back(att);
    c.hosts.push_back(std::move(host));
  }
  c.rebuild_gpu_index();
  return c;
}

/// Connected random multigraph (the solver tests' net shape), rebuilt
/// deterministically from (seed, size_knob, wiring) so a shrunk recipe
/// reproduces its wiring.
topo::Cluster build_random_net(std::uint64_t seed, std::uint32_t nodes_knob,
                               std::uint32_t extra_knob) {
  const int nodes = static_cast<int>(std::clamp<std::uint32_t>(nodes_knob, 2, 32));
  const int extra = static_cast<int>(std::min<std::uint32_t>(extra_knob, 64));
  Rng rng{seed ^ 0xC2B2AE3D27D4EB4FULL};
  topo::Cluster c;
  c.arch = topo::Arch::kFatTree;  // closest "generic graph" label
  c.gpus_per_host = 0;
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    ids.push_back(c.topo.add_node(topo::NodeKind::kTor, std::move(name)));
  }
  c.tors = ids;
  static constexpr double kPaletteGbps[] = {10, 25, 40, 100, 200, 400};
  const auto random_capacity = [&rng] {
    if (rng.bernoulli(0.6)) return Bandwidth::gbps(kPaletteGbps[rng.uniform_index(6)]);
    return Bandwidth::gbps(rng.uniform_real(5.0, 500.0));
  };
  const auto wire = [&](NodeId a, NodeId b) {
    c.topo.add_duplex_link(a, b, topo::LinkKind::kFabric, random_capacity(),
                           Duration::micros(1));
  };
  for (int i = 1; i < nodes; ++i) {
    wire(ids[static_cast<std::size_t>(i - 1)], ids[static_cast<std::size_t>(i)]);
  }
  for (int e = 0; e < extra; ++e) {
    const auto a = rng.uniform_index(static_cast<std::uint64_t>(nodes));
    auto b = rng.uniform_index(static_cast<std::uint64_t>(nodes));
    if (a == b) b = (b + 1) % static_cast<std::uint64_t>(nodes);
    wire(ids[a], ids[b]);
  }
  c.rebuild_gpu_index();
  return c;
}

enum class NumParse : std::uint8_t { kOk, kMalformed, kOverflow };

NumParse parse_u64_checked(std::string_view token, std::uint64_t& value) {
  value = 0;
  if (token.empty()) return NumParse::kMalformed;
  for (const char ch : token) {
    if (ch < '0' || ch > '9') return NumParse::kMalformed;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return NumParse::kOverflow;
    }
    value = value * 10 + digit;
  }
  return NumParse::kOk;
}

}  // namespace

std::string_view to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kTinyClos: return "tiny_clos";
    case TopologyKind::kHpnSegment: return "hpn_segment";
    case TopologyKind::kDcnPlus: return "dcn_plus";
    case TopologyKind::kFatTree: return "fat_tree";
    case TopologyKind::kRailOnly: return "rail_only";
    case TopologyKind::kRailX: return "railx_lite";
    case TopologyKind::kUbMesh: return "ubmesh_lite";
    case TopologyKind::kRandom: return "random";
    case TopologyKind::kHpnPod: return "hpn_pod";
  }
  return "unknown";
}

std::optional<TopologyKind> topology_kind_from(std::string_view name) {
  for (const TopologyKind k :
       {TopologyKind::kTinyClos, TopologyKind::kHpnSegment, TopologyKind::kDcnPlus,
        TopologyKind::kFatTree, TopologyKind::kRailOnly, TopologyKind::kRailX,
        TopologyKind::kUbMesh, TopologyKind::kRandom, TopologyKind::kHpnPod}) {
    if (to_string(k) == name) return k;
  }
  return std::nullopt;
}

std::string_view to_string(ScenarioFault::Kind kind) {
  switch (kind) {
    case ScenarioFault::Kind::kLinkFail: return "link_fail";
    case ScenarioFault::Kind::kLinkFlap: return "link_flap";
    case ScenarioFault::Kind::kTorCrash: return "tor_crash";
  }
  return "unknown";
}

std::string Scenario::to_text() const {
  std::string out;
  // Lines run ~30 bytes; the longest possible flow line is 73.
  out.reserve(96 + 40 * (flows.size() + faults.size() + jobs.size()));
  out += kHeader;
  out += "\nseed ";
  text::append_uint(out, seed);
  out += "\ntopology ";
  out += to_string(topology);
  out += "\nsize ";
  text::append_uint(out, size_knob);
  out += "\nwiring ";
  text::append_uint(out, wiring);
  out += '\n';
  for (const ScenarioFlow& f : flows) {
    out += "flow ";
    text::append_uint(out, f.src);
    out += ' ';
    text::append_uint(out, f.dst);
    out += ' ';
    text::append_int(out, f.size_bytes);
    out += ' ';
    text::append_g(out, f.cap_gbps, 17);
    out += '\n';
  }
  for (const ScenarioFault& f : faults) {
    out += "fault ";
    out += to_string(f.kind);
    out += ' ';
    text::append_int(out, f.at_ns);
    out += ' ';
    text::append_uint(out, f.target);
    out += ' ';
    text::append_int(out, f.down_for_ns);
    out += '\n';
  }
  for (const ScenarioJob& j : jobs) {
    out += "job ";
    text::append_int(out, j.arrival_ns);
    out += ' ';
    text::append_uint(out, j.hosts);
    out += ' ';
    text::append_uint(out, j.iters);
    out += '\n';
  }
  out += "end\n";
  return out;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x00000100000001B3ULL;
  }
  return h;
}

std::optional<Scenario> Scenario::from_text(std::string_view text) {
  return from_text(text, nullptr);
}

std::optional<Scenario> Scenario::from_text(std::string_view text, std::string* error) {
  const auto set_error = [&](std::string msg) {
    if (error) *error = std::move(msg);
  };
  std::size_t next = 0;
  std::string_view line;
  int line_no = 0;
  // Next meaningful line: strips the CR of CRLF endings and '#'-to-EOL
  // comments, skips blank lines (only spaces and tabs count as blank).
  // Formatting leniency lives entirely here; everything below is strict.
  const auto next_line = [&]() -> bool {
    while (next < text.size()) {
      const std::size_t nl = text.find('\n', next);
      const std::size_t stop = nl == std::string_view::npos ? text.size() : nl;
      line = text.substr(next, stop - next);
      next = stop + 1;
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
        line = line.substr(0, hash);
      }
      if (line.find_first_not_of(" \t") != std::string_view::npos) return true;
    }
    return false;
  };
  const auto fail_at = [&](int at, std::string msg) -> std::optional<Scenario> {
    set_error("line " + std::to_string(at) + ": " + std::move(msg));
    return std::nullopt;
  };

  if (!next_line()) {
    set_error("truncated scenario: missing header");
    return std::nullopt;
  }
  {
    text::Cursor hs{line};
    const std::string_view magic = hs.token();
    const std::string_view version = hs.token();
    if (magic != "hpnsim-scenario" || version != "v1" || !hs.done()) {
      return fail_at(line_no, "bad header (want 'hpnsim-scenario v1')");
    }
  }

  Scenario s;
  bool saw_seed = false;
  bool saw_topology = false;
  bool saw_size = false;
  bool saw_wiring = false;
  bool saw_end = false;
  while (next_line()) {
    text::Cursor ls{line};
    const std::string_view key = ls.token();
    // Every entry ends with `ls.done()`: trailing junk usually means a
    // truncated/merged line, and silently ignoring it is how corrupted
    // scenarios replay "clean".
    //
    // One base-10 token as u32 (recipe indices/knobs are all u32).
    const auto read_u32 = [&ls](std::uint32_t& out, const char* what,
                                std::string& msg) -> bool {
      const std::string_view tok = ls.token();
      std::uint64_t v = 0;
      if (parse_u64_checked(tok, v) == NumParse::kMalformed) {
        msg = std::string("malformed '") + what + "' entry";
        return false;
      }
      if (v > std::numeric_limits<std::uint32_t>::max()) {
        msg = std::string("'") + what + "' value out of range";
        return false;
      }
      out = static_cast<std::uint32_t>(v);
      return true;
    };
    std::string msg;

    if (key == "end") {
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'end'");
      saw_end = true;
      break;
    }
    if (key == "seed") {
      if (saw_seed) return fail_at(line_no, "duplicate 'seed'");
      saw_seed = true;
      switch (parse_u64_checked(ls.token(), s.seed)) {
        case NumParse::kMalformed: return fail_at(line_no, "malformed 'seed' entry");
        case NumParse::kOverflow:
          return fail_at(line_no, "'seed' does not fit in 64 bits");
        case NumParse::kOk: break;
      }
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'seed'");
    } else if (key == "topology") {
      if (saw_topology) return fail_at(line_no, "duplicate 'topology'");
      saw_topology = true;
      const std::string_view name = ls.token();
      if (name.empty()) return fail_at(line_no, "malformed 'topology' entry");
      const auto kind = topology_kind_from(name);
      if (!kind) return fail_at(line_no, "unknown topology '" + std::string{name} + "'");
      s.topology = *kind;
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'topology'");
    } else if (key == "size") {
      if (saw_size) return fail_at(line_no, "duplicate 'size'");
      saw_size = true;
      if (!read_u32(s.size_knob, "size", msg)) return fail_at(line_no, msg);
      if (s.size_knob == 0) return fail_at(line_no, "'size' must be >= 1");
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'size'");
    } else if (key == "wiring") {
      if (saw_wiring) return fail_at(line_no, "duplicate 'wiring'");
      saw_wiring = true;
      if (!read_u32(s.wiring, "wiring", msg)) return fail_at(line_no, msg);
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'wiring'");
    } else if (key == "flow") {
      ScenarioFlow f;
      if (!read_u32(f.src, "flow", msg) || !read_u32(f.dst, "flow", msg)) {
        return fail_at(line_no, msg);
      }
      if (!ls.read(f.size_bytes) || !ls.read(f.cap_gbps)) {
        return fail_at(line_no, "malformed 'flow' entry");
      }
      if (f.size_bytes < 0) return fail_at(line_no, "'flow' size_bytes must be >= 0");
      if (!(f.cap_gbps > 0.0) || !(f.cap_gbps <= 10'000.0)) {
        return fail_at(line_no, "'flow' cap_gbps out of range (0, 10000]");
      }
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'flow'");
      s.flows.push_back(f);
    } else if (key == "fault") {
      ScenarioFault f;
      const std::string_view kind_name = ls.token();
      if (kind_name.empty()) return fail_at(line_no, "malformed 'fault' entry");
      if (kind_name == "link_fail") {
        f.kind = ScenarioFault::Kind::kLinkFail;
      } else if (kind_name == "link_flap") {
        f.kind = ScenarioFault::Kind::kLinkFlap;
      } else if (kind_name == "tor_crash") {
        f.kind = ScenarioFault::Kind::kTorCrash;
      } else {
        return fail_at(line_no, "unknown fault kind '" + std::string{kind_name} + "'");
      }
      if (!ls.read(f.at_ns)) return fail_at(line_no, "malformed 'fault' entry");
      if (!read_u32(f.target, "fault", msg)) return fail_at(line_no, msg);
      if (!ls.read(f.down_for_ns)) return fail_at(line_no, "malformed 'fault' entry");
      if (f.at_ns < 0 || f.down_for_ns < 0) {
        return fail_at(line_no, "'fault' times must be >= 0");
      }
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'fault'");
      s.faults.push_back(f);
    } else if (key == "job") {
      ScenarioJob j;
      if (!ls.read(j.arrival_ns)) return fail_at(line_no, "malformed 'job' entry");
      if (!read_u32(j.hosts, "job", msg) || !read_u32(j.iters, "job", msg)) {
        return fail_at(line_no, msg);
      }
      if (j.arrival_ns < 0) return fail_at(line_no, "'job' arrival_ns must be >= 0");
      if (j.hosts == 0 || j.iters == 0) {
        return fail_at(line_no, "'job' hosts and iters must be >= 1");
      }
      if (!ls.done()) return fail_at(line_no, "trailing junk after 'job'");
      s.jobs.push_back(j);
    } else {
      return fail_at(line_no, "unknown key '" + std::string{key} + "'");
    }
  }
  if (!saw_end) {
    set_error("truncated scenario: missing 'end'");
    return std::nullopt;
  }
  // Only blank/comment lines may follow 'end' — real content after it means
  // two scenarios were concatenated or the file was corrupted mid-write.
  if (next_line()) return fail_at(line_no, "content after 'end'");
  return s;
}

Materialized materialize(const Scenario& scenario) {
  Materialized m;
  switch (scenario.topology) {
    case TopologyKind::kTinyClos:
      m.cluster = build_tiny_clos(scenario.size_knob, scenario.wiring);
      break;
    case TopologyKind::kHpnSegment: {
      topo::HpnConfig cfg;
      cfg.pods = 1;
      cfg.segments_per_pod = 2;  // >1 so tier2 exists
      cfg.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 3));
      cfg.gpus_per_host = 2;
      cfg.tor_uplinks = 2;
      cfg.aggs_per_plane = 2;
      cfg.agg_core_uplinks = 1;
      m.cluster = topo::build_hpn(cfg);
      break;
    }
    case TopologyKind::kHpnPod: {
      // Honest Pod scale for the serve daemon / bench_serve: tens of
      // segments, up to thousands of NICs. Fuzz sweeps never draw it, so
      // only serve-scale callers pay for the build.
      topo::HpnConfig cfg;
      cfg.pods = 1;
      cfg.segments_per_pod =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.wiring, 1, 16));
      cfg.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 128));
      cfg.gpus_per_host = 2;
      cfg.tor_uplinks = 2;
      cfg.aggs_per_plane = 2;
      cfg.agg_core_uplinks = 1;
      m.cluster = topo::build_hpn(cfg);
      break;
    }
    case TopologyKind::kDcnPlus: {
      topo::DcnPlusConfig cfg;
      cfg.pods = 1;
      cfg.segments_per_pod = 2;
      cfg.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 2));
      cfg.gpus_per_host = 2;
      cfg.aggs_per_pod = 2;
      cfg.links_per_tor_agg = 1;
      m.cluster = topo::build_dcn_plus(cfg);
      break;
    }
    case TopologyKind::kFatTree: {
      topo::FatTreeConfig cfg;
      cfg.k = 4;
      m.cluster = topo::build_fat_tree(cfg);
      break;
    }
    case TopologyKind::kRailOnly: {
      // Through the strategy registry, so fuzzing also exercises the
      // Fabric build path. Rail-only: one "segment" of size_knob hosts.
      fabric::FabricScale scale;
      scale.segments_per_pod = 1;
      scale.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 4));
      scale.gpus_per_host = 2;
      m.cluster = fabric::fabric_or_throw("rail-only").build(scale);
      break;
    }
    case TopologyKind::kRailX: {
      fabric::FabricScale scale;
      scale.segments_per_pod =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.wiring, 2, 5));
      scale.hosts_per_segment =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 2));
      scale.gpus_per_host = 2;
      m.cluster = fabric::fabric_or_throw("railx-lite").build(scale);
      break;
    }
    case TopologyKind::kUbMesh: {
      fabric::FabricScale scale;
      scale.segments_per_pod =
          static_cast<int>(std::clamp<std::uint32_t>(scenario.size_knob, 1, 3));
      scale.hosts_per_segment = 1;
      scale.gpus_per_host = 2;
      m.cluster = fabric::fabric_or_throw("ubmesh-lite").build(scale);
      break;
    }
    case TopologyKind::kRandom:
      m.cluster = build_random_net(scenario.seed, scenario.size_knob, scenario.wiring);
      break;
  }
  // PFC-lossless is only safe where up-down routing precludes cyclic buffer
  // dependencies. The RailX circuit ring and the UB-Mesh row/column meshes
  // route switch-to-switch laterally, so they run lossy like kRandom.
  m.lossless_safe = scenario.topology != TopologyKind::kRandom &&
                    scenario.topology != TopologyKind::kRailX &&
                    scenario.topology != TopologyKind::kUbMesh;

  // Eligible endpoints: every NIC for built clusters, every node for the
  // random multigraph (whose nodes are all generic switches).
  if (scenario.topology == TopologyKind::kRandom) {
    for (const topo::Node& n : m.cluster.topo.nodes()) m.endpoints.push_back(n.id);
  } else {
    for (const topo::Host& h : m.cluster.hosts) {
      for (const topo::NicAttachment& att : h.nics) m.endpoints.push_back(att.nic);
    }
  }
  HPN_CHECK_MSG(!m.endpoints.empty(), "scenario topology produced no endpoints");

  for (const topo::Link& l : m.cluster.topo.links()) {
    if (l.kind != topo::LinkKind::kAccess && l.kind != topo::LinkKind::kFabric) continue;
    if (l.id.index() < l.reverse.index()) m.cables.push_back(l.id);
  }

  const auto n = static_cast<std::uint32_t>(m.endpoints.size());
  for (const ScenarioFlow& f : scenario.flows) {
    const std::uint32_t src_idx = f.src % n;
    std::uint32_t dst_idx = f.dst % n;
    if (dst_idx == src_idx) dst_idx = (dst_idx + 1) % n;
    if (dst_idx == src_idx) continue;  // single-endpoint topology
    Materialized::Flow flow;
    flow.src = m.endpoints[src_idx];
    flow.dst = m.endpoints[dst_idx];
    flow.size = DataSize::bytes(std::max<std::int64_t>(1, f.size_bytes));
    flow.cap = Bandwidth::gbps(std::clamp(f.cap_gbps, 0.5, 400.0));
    m.flows.push_back(std::move(flow));
  }
  m.routing = route_flows(m.cluster.topo, m.flows);
  std::erase_if(m.flows, [](const Materialized::Flow& f) { return f.path.empty(); });

  for (const ScenarioFault& f : scenario.faults) {
    Materialized::Fault fault;
    fault.kind = f.kind;
    fault.at = TimePoint::origin() + Duration::nanos(std::max<std::int64_t>(0, f.at_ns));
    fault.down_for = Duration::nanos(std::max<std::int64_t>(0, f.down_for_ns));
    if (f.kind == ScenarioFault::Kind::kTorCrash) {
      if (m.cluster.tors.empty()) continue;
      fault.tor = m.cluster.tors[f.target % m.cluster.tors.size()];
    } else {
      if (m.cables.empty()) continue;
      fault.cable = m.cables[f.target % m.cables.size()];
    }
    m.faults.push_back(fault);
  }
  // Apply in time order regardless of textual order (stable: equal times
  // keep file order, which the engines then see identically).
  std::stable_sort(m.faults.begin(), m.faults.end(),
                   [](const Materialized::Fault& a, const Materialized::Fault& b) {
                     return a.at < b.at;
                   });
  return m;
}

routing::Router::Stats route_flows(const topo::Topology& topo,
                                   std::vector<Materialized::Flow>& flows) {
  routing::Router router{topo};
  for (Materialized::Flow& f : flows) f.path = router.first_path(f.src, f.dst).links;
  return router.stats();
}

void schedule_faults(sim::Simulator& sim, topo::Topology& topo,
                     const std::vector<Materialized::Fault>& faults,
                     const std::function<void()>& on_change) {
  const auto set_links = [&](const Materialized::Fault& f, bool up) {
    return [&topo, on_change, f, up] {
      if (f.kind == ScenarioFault::Kind::kTorCrash) {
        for (const LinkId l : topo.out_links(f.tor)) topo.set_duplex_up(l, up);
      } else {
        topo.set_duplex_up(f.cable, up);
      }
      on_change();
    };
  };
  for (const Materialized::Fault& f : faults) {
    sim.schedule_at(f.at, set_links(f, false));
    if (f.down_for > Duration::zero()) sim.schedule_at(f.at + f.down_for, set_links(f, true));
  }
}

}  // namespace hpn::fuzz
