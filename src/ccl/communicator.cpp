#include "ccl/communicator.h"

#include <algorithm>
#include <set>

#include "common/check.h"

namespace hpn::ccl {

Communicator::Communicator(const topo::Cluster& cluster, sim::Simulator& simulator,
                           flowsim::FlowSession& session, ConnectionManager& connections,
                           std::vector<int> ranks, CclConfig config)
    : cluster_{&cluster},
      sim_{&simulator},
      session_{&session},
      conns_{&connections},
      config_{config},
      ranks_{std::move(ranks)},
      rails_{cluster.gpus_per_host} {
  HPN_CHECK_MSG(!ranks_.empty(), "empty communicator");
  // Group ranks by host and demand whole hosts, in first-seen order.
  std::set<int> seen;
  for (const int r : ranks_) {
    HPN_CHECK_MSG(r >= 0 && r < cluster.gpu_count(), "rank out of range: " << r);
    const int host = r / rails_;
    if (seen.insert(host).second) hosts_.push_back(host);
  }
  HPN_CHECK_MSG(ranks_.size() == hosts_.size() * static_cast<std::size_t>(rails_),
                "communicator must cover whole hosts (" << ranks_.size() << " ranks over "
                                                        << hosts_.size() << " hosts)");
  const auto& att = cluster.nic_of(ranks_.front());
  port_rate_ = cluster.topo.link(att.access[0]).capacity;
}

Communicator::~Communicator() { *alive_ = false; }

int Communicator::global_rank(int host_pos, int rail) const {
  return hosts_[static_cast<std::size_t>(host_pos)] * rails_ + rail;
}

int Communicator::chunks_for(DataSize total) const {
  const auto by_min = static_cast<int>(total.as_bits() / config_.min_chunk.as_bits());
  return std::clamp(by_min, 1, config_.pipeline_chunks);
}

Communicator::DoneFn Communicator::traced(const char* op, DataSize per_gpu, DoneFn done) {
  metrics::Tracer& tracer = sim_->tracer();
  if (!tracer.enabled()) return done;
  const std::uint32_t span = tracer.begin_span();
  sim_->trace(metrics::TraceEventKind::kCollectiveBegin, span,
              static_cast<std::uint32_t>(world_size()),
              static_cast<double>(per_gpu.as_bytes()), op);
  return [sim = sim_, span, op, done = std::move(done)] {
    sim->trace(metrics::TraceEventKind::kCollectiveEnd, span, metrics::kTraceNoId, 0.0, op);
    if (done) done();
  };
}

// ---- The op engine ----------------------------------------------------------

int Communicator::launch(const std::vector<Phase>& phases, int chunks, DoneFn done) {
  HPN_CHECK(!phases.empty());
  HPN_CHECK(chunks >= 1);
  std::uint32_t slot;
  if (free_ops_.empty()) {
    slot = static_cast<std::uint32_t>(ops_.size());
    ops_.emplace_back();
  } else {
    slot = free_ops_.back();
    free_ops_.pop_back();
  }
  Op& op = ops_[slot];
  op.stages.clear();
  for (const Phase& phase : phases) op.stages.push_back(Stage{phase});
  op.rings.assign(phases.size() * static_cast<std::size_t>(rails_), Ring{});
  op.chunks = chunks;
  op.unroutable = 0;
  op.done = std::move(done);
  advance(slot);
  return ops_[slot].unroutable;
}

Communicator::Op& Communicator::op_at(Ref ref) {
  Op& op = ops_[ref.slot];
  HPN_CHECK_MSG(op.gen == ref.gen, "stale ccl op callback (slot " << ref.slot << ")");
  return op;
}

void Communicator::advance(std::uint32_t slot) {
  // Starting a chunk only starts flows and events; nothing completes (or
  // launches) synchronously, so `op` stays valid across run().
  Op& op = ops_[slot];
  for (std::size_t s = 0; s < op.stages.size(); ++s) {
    Stage& stage = op.stages[s];
    if (stage.busy || stage.next_chunk >= op.chunks) continue;
    // A chunk may enter stage s once it has left stage s-1.
    if (s > 0) {
      const Stage& prev = op.stages[s - 1];
      if (prev.next_chunk - (prev.busy ? 1 : 0) <= stage.next_chunk) continue;
    }
    stage.busy = true;
    ++stage.next_chunk;
    run(Ref{slot, op.gen, static_cast<std::uint16_t>(s), 0});
  }
}

void Communicator::finish(Ref ref) {
  Op& op = op_at(ref);
  Stage& stage = op.stages[ref.stage];
  HPN_CHECK(stage.busy && stage.outstanding == 0);
  stage.busy = false;
  if (ref.stage + 1u == op.stages.size() && stage.next_chunk == op.chunks) {
    // Free the slot first: `done` may launch the next collective.
    DoneFn done = std::move(op.done);
    op.done = nullptr;
    ++op.gen;
    free_ops_.push_back(ref.slot);
    if (done) done();
    return;
  }
  advance(ref.slot);
}

void Communicator::arrive(Ref ref) {
  Stage& stage = op_at(ref).stages[ref.stage];
  if (--stage.outstanding > 0) return;
  // Each tree level is a synchronization point and pays the same fixed cost
  // a ring step does (propagation + kernel launch + doorbell).
  if (stage.phase.kind == Phase::kTreeUp || stage.phase.kind == Phase::kTreeDown) {
    defer<&Communicator::finish>(config_.step_overhead, ref);
    return;
  }
  finish(ref);
}

void Communicator::run(Ref ref) {
  Stage& stage = ops_[ref.slot].stages[ref.stage];
  const Phase& phase = stage.phase;
  const int hosts = host_count();
  switch (phase.kind) {
    case Phase::kIntraUp:
    case Phase::kIntraDown:
      intra_phase(phase.bytes, phase.kind == Phase::kIntraUp, ref);
      return;
    case Phase::kAllGatherIntra:
      // Send side: each GPU unicasts its column 7 ways (no multicast
      // without NVLS). Receive side additionally pays the switch's
      // store-and-forward of 7 serialized columns: 2x the bytes.
      intra_phase(phase.bytes, /*up=*/true, ref);
      intra_phase(phase.bytes * 2.0, /*up=*/false, ref);
      return;
    case Phase::kRings: {
      const int steps = phase.arg;
      if (hosts <= 1 || steps <= 0) {
        stage.outstanding = 1;
        defer<&Communicator::arrive>(Duration::zero(), ref);
        return;
      }
      // One ring per rail over the member hosts; the stage is done when
      // every rail's ring is.
      stage.outstanding = rails_;
      Ring* rings = &ops_[ref.slot].rings[static_cast<std::size_t>(ref.stage * rails_)];
      if (!config_.bulk_rings) {
        // Steps serialized, each step `hosts` concurrent neighbor transfers.
        for (int rail = 0; rail < rails_; ++rail) {
          rings[rail] = Ring{};
          ring_step(Ref{ref.slot, ref.gen, ref.stage, static_cast<std::uint16_t>(rail)});
        }
        return;
      }
      // Bulk: one flow per ring edge (and channel) carrying all steps'
      // bytes; a ring completes when its slowest edge drains, plus the
      // per-step synchronization overhead the barriers would have cost.
      const DataSize edge_bytes = phase.bytes * static_cast<double>(steps);
      const int channels = std::max(1, config_.channels_per_edge);
      const DataSize channel_bytes = edge_bytes / static_cast<double>(channels);
      for (int rail = 0; rail < rails_; ++rail) {
        rings[rail] = Ring{0, hosts * channels};
        const Ref rail_ref{ref.slot, ref.gen, ref.stage, static_cast<std::uint16_t>(rail)};
        for (int i = 0; i < hosts; ++i) {
          const int src = global_rank(i, rail);
          const int dst = global_rank((i + 1) % hosts, rail);
          for (int ch = 0; ch < channels; ++ch) send_message(src, dst, channel_bytes, rail_ref);
        }
      }
      return;
    }
    case Phase::kTreeUp:
    case Phase::kTreeDown: {
      // Binary tree over hosts_ positions: parent(i) = (i-1)/2. Level L
      // holds positions [2^L - 1, 2^(L+1) - 1); an upward wave moves level
      // L+1 -> level L, a downward wave the reverse.
      const bool up = phase.kind == Phase::kTreeUp;
      const int child_lo = (1 << (phase.arg + 1)) - 1;
      const int child_hi = std::min(hosts, (1 << (phase.arg + 2)) - 1);
      if (child_lo >= hosts) {
        defer<&Communicator::finish>(Duration::zero(), ref);
        return;
      }
      stage.outstanding = (child_hi - child_lo) * rails_;
      for (int child = child_lo; child < child_hi; ++child) {
        const int parent = (child - 1) / 2;
        for (int rail = 0; rail < rails_; ++rail) {
          send_message(global_rank(up ? child : parent, rail),
                       global_rank(up ? parent : child, rail), phase.bytes, ref);
        }
      }
      return;
    }
    case Phase::kAllToAll:
      ops_[ref.slot].unroutable = all_to_all_messages(phase.bytes, phase.arg != 0, ref);
      if (stage.outstanding == 0) {
        stage.outstanding = 1;
        defer<&Communicator::arrive>(Duration::zero(), ref);
      }
      return;
    case Phase::kMessage:
      stage.outstanding = 1;
      send_message(phase.arg, phase.dst, phase.bytes, ref);
      return;
  }
}

void Communicator::ring_arrive(Ref ref) {
  Op& op = op_at(ref);
  Ring& ring = op.rings[static_cast<std::size_t>(ref.stage * rails_ + ref.rail)];
  if (--ring.flows_left > 0) return;
  if (config_.bulk_rings) {
    const int steps = op.stages[ref.stage].phase.arg;
    defer<&Communicator::arrive>(config_.step_overhead * static_cast<double>(steps), ref);
  } else {
    defer<&Communicator::ring_step>(config_.step_overhead, ref);
  }
}

void Communicator::ring_step(Ref ref) {
  Op& op = op_at(ref);
  const Phase& phase = op.stages[ref.stage].phase;
  Ring& ring = op.rings[static_cast<std::size_t>(ref.stage * rails_ + ref.rail)];
  if (ring.step++ >= phase.arg) {
    arrive(ref);
    return;
  }
  const int hosts = host_count();
  ring.flows_left = hosts;
  for (int i = 0; i < hosts; ++i) {
    send_message(global_rank(i, ref.rail), global_rank((i + 1) % hosts, ref.rail), phase.bytes,
                 ref);
  }
}

// ---- Messages and flows -----------------------------------------------------

void Communicator::send_message(int src_rank, int dst_rank, DataSize size, Ref ref) {
  const auto& conn_ids = conns_->establish(src_rank, dst_rank);
  const ConnId conn = conns_->pick(conn_ids);
  const routing::Path& path = conns_->path_of(conn);
  if (!path.valid()) {
    // Destination unreachable right now (e.g. both dst ports down). RDMA
    // keeps retrying; the message goes out once a path exists again.
    sim_->schedule_after(config_.unreachable_retry,
                         [this, alive = alive_, src_rank, dst_rank, size, ref] {
                           if (*alive) send_message(src_rank, dst_rank, size, ref);
                         });
    return;
  }
  conns_->post_wqe(conn, size);
  if (conn.index() >= conn_paths_.size()) conn_paths_.resize(conn.index() + 1);
  CachedPath& cached = conn_paths_[conn.index()];
  const std::uint64_t epoch = conns_->connection(conn).path_epoch;
  if (!cached.valid || cached.epoch != epoch) {
    cached.path = session_->paths().intern(path.links);
    cached.epoch = epoch;
    cached.valid = true;
  }
  const FlowId flow = session_->start_flow(
      cached.path, size, port_rate_,
      [this, alive = alive_, cm = conns_, conn, size, ref](FlowId id) {
        cm->complete_wqe(conn, size);  // the manager outlives communicators
        if (!*alive) return;
        inflight_.erase(id);
        if (op_at(ref).stages[ref.stage].phase.kind == Phase::kRings) {
          ring_arrive(ref);
        } else {
          arrive(ref);
        }
      });
  inflight_.emplace(flow, conn);
}

void Communicator::on_fabric_change() {
  // Shared QP contexts let in-flight messages move ports (§4); re-trace
  // every active connection and hand the session the new path, in
  // ascending FlowId order rather than the hash map's bucket order.
  std::vector<FlowId> flows;
  flows.reserve(inflight_.size());
  for (const auto& entry : inflight_) flows.push_back(entry.first);
  std::sort(flows.begin(), flows.end());
  for (const FlowId flow : flows) {
    const routing::Path& path = conns_->path_of(inflight_.at(flow));
    if (path.valid()) session_->reroute_flow(flow, path.links);
  }
  session_->refresh();
}

void Communicator::intra_host_flow(int rank, bool up, DataSize size, Ref ref) {
  const topo::Host& h = cluster_->host_of(rank);
  const LinkId up_link = h.gpu_nvlink.at(static_cast<std::size_t>(cluster_->rail_of(rank)));
  const LinkId link = up ? up_link : cluster_->topo.link(up_link).reverse;
  const Bandwidth cap = cluster_->topo.link(link).capacity;
  ++ops_[ref.slot].stages[ref.stage].outstanding;
  // Intern the single-hop path directly — no per-flow vector materialized.
  session_->start_flow(session_->paths().intern(&link, 1), size, cap,
                       [this, alive = alive_, ref](FlowId) {
                         if (*alive) arrive(ref);
                       });
}

void Communicator::intra_phase(DataSize bytes, bool up, Ref ref) {
  if (rails_ == 1 || bytes == DataSize::zero()) {
    // Single-GPU hosts (fat tree) have no intra-host exchange.
    ++ops_[ref.slot].stages[ref.stage].outstanding;
    defer<&Communicator::arrive>(Duration::zero(), ref);
    return;
  }
  for (const int rank : ranks_) intra_host_flow(rank, up, bytes, ref);
}

int Communicator::all_to_all_messages(DataSize per_gpu, bool allow_host_relay, Ref ref) {
  const int hosts = host_count();
  const int world = world_size();
  if (world <= 1) return 0;
  const double per_peer = per_gpu.as_bytes() / (world - 1);
  int unroutable = 0;

  // Intra-host exchange (same-host peers) + relay staging share the
  // NVSwitch: each GPU moves bytes up, and receives bytes down. With PXN,
  // relay adds the cross-rail remote share in both directions.
  const double intra_share = per_peer * (rails_ - 1);
  const double cross_share = per_peer * static_cast<double>((hosts - 1) * (rails_ - 1));
  const double up_bytes = intra_share + (allow_host_relay ? cross_share : 0.0);
  if (rails_ > 1 && up_bytes > 0.0) {
    const DataSize bytes = DataSize::bytes(static_cast<std::int64_t>(up_bytes));
    for (const int rank : ranks_) {
      intra_host_flow(rank, /*up=*/true, bytes, ref);
      intra_host_flow(rank, /*up=*/false, bytes, ref);
    }
  }

  Stage& stage = ops_[ref.slot].stages[ref.stage];
  if (allow_host_relay) {
    // PXN: the network only carries rail-aligned host-pair flows. Rail q of
    // host i aggregates all 8 local GPUs' bytes destined to (host j, rail q).
    const DataSize flow_bytes =
        DataSize::bytes(static_cast<std::int64_t>(per_peer * rails_));
    for (int i = 0; i < hosts; ++i) {
      for (int j = 0; j < hosts; ++j) {
        if (i == j) continue;
        for (int rail = 0; rail < rails_; ++rail) {
          ++stage.outstanding;
          send_message(global_rank(i, rail), global_rank(j, rail), flow_bytes, ref);
        }
      }
    }
    return 0;
  }
  // Serverless mode: every (src rail, dst rail) host pair is a direct
  // network message; cross-rail ones need a fabric route.
  const DataSize flow_bytes = DataSize::bytes(static_cast<std::int64_t>(per_peer));
  for (int i = 0; i < hosts; ++i) {
    for (int j = 0; j < hosts; ++j) {
      if (i == j) continue;
      for (int r = 0; r < rails_; ++r) {
        for (int q = 0; q < rails_; ++q) {
          const int src = global_rank(i, r);
          const int dst = global_rank(j, q);
          // Probe routability up front: a permanently-unroutable message
          // would retry forever and hang the collective.
          if (!conns_->routable(src, dst)) {
            ++unroutable;
            continue;
          }
          ++stage.outstanding;
          send_message(src, dst, flow_bytes, ref);
        }
      }
    }
  }
  return unroutable;
}

// ---- Collectives: byte sizes and phase lists --------------------------------

int Communicator::tree_depth() const {
  int depth = 0;
  for (std::size_t span = 1; span < hosts_.size(); span *= 2) ++depth;
  return depth;
}

bool Communicator::use_tree(DataSize per_gpu) const {
  if (hosts_.size() <= 2) return false;
  switch (config_.algorithm) {
    case RingAlgorithm::kRing: return false;
    case RingAlgorithm::kTree: return true;
    case RingAlgorithm::kAuto: return per_gpu < config_.tree_threshold;
  }
  return false;
}

DataSize Communicator::intra_share(DataSize chunk, bool reduction) const {
  const double gain = reduction && config_.nvls ? config_.nvls_gain : 1.0;
  return chunk * (static_cast<double>(rails_ - 1) / rails_ / gain);
}

void Communicator::add_tree_wave(std::vector<Phase>& phases, bool up, DataSize edge_bytes) const {
  const int depth = tree_depth();
  for (int i = 0; i < depth; ++i) {
    phases.push_back({up ? Phase::kTreeUp : Phase::kTreeDown, edge_bytes, up ? depth - 1 - i : i});
  }
}

void Communicator::all_reduce_tree(DataSize per_gpu, DoneFn done) {
  // Tree allreduce: reduce wave to the root, broadcast wave back. Each
  // level is a pipeline stage, so large payloads stream at ~edge bandwidth
  // while small ones pay only 2 x depth x overhead — NCCL's reason for
  // switching algorithms by size.
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const DataSize edge_bytes = chunk / static_cast<double>(rails_);
  std::vector<Phase> phases{{Phase::kIntraUp, intra_share(chunk, true)}};
  add_tree_wave(phases, /*up=*/true, edge_bytes);
  add_tree_wave(phases, /*up=*/false, edge_bytes);
  phases.push_back({Phase::kIntraDown, intra_share(chunk, true)});
  launch(phases, chunks, std::move(done));
}

void Communicator::all_reduce(DataSize per_gpu, DoneFn done) {
  done = traced("all_reduce", per_gpu, std::move(done));
  if (use_tree(per_gpu)) {
    all_reduce_tree(per_gpu, std::move(done));
    return;
  }
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = host_count();
  launch({{Phase::kIntraUp, intra_share(chunk, true)},
          {Phase::kRings, chunk / static_cast<double>(rails_ * hosts), 2 * (hosts - 1)},
          {Phase::kIntraDown, intra_share(chunk, true)}},
         chunks, std::move(done));
}

void Communicator::reduce_scatter(DataSize per_gpu, DoneFn done) {
  done = traced("reduce_scatter", per_gpu, std::move(done));
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = host_count();
  launch({{Phase::kIntraUp, intra_share(chunk, true)},
          {Phase::kRings, chunk / static_cast<double>(rails_ * hosts), hosts - 1}},
         chunks, std::move(done));
}

void Communicator::all_gather(DataSize gathered, DoneFn done) {
  done = traced("all_gather", gathered, std::move(done));
  const int chunks = chunks_for(gathered);
  const DataSize chunk = gathered / static_cast<double>(chunks);
  const int hosts = host_count();
  // NVLS cannot accelerate AllGather (§9.2): every GPU unicasts its column
  // to 7 peers *and* receives 7 columns through the NVSwitch — both
  // directions carry (rails-1)/rails of the chunk, which is what makes
  // AllGather NVSwitch-bound on either fabric.
  launch({{Phase::kRings, chunk / static_cast<double>(rails_ * hosts), hosts - 1},
          {Phase::kAllGatherIntra, intra_share(chunk, false)}},
         chunks, std::move(done));
}

void Communicator::multi_all_reduce(DataSize per_gpu, DoneFn done) {
  // Fig 17c: every rail ring all-reduces the *full* per-GPU buffer; no
  // NVLink participation at all.
  done = traced("multi_all_reduce", per_gpu, std::move(done));
  const int chunks = chunks_for(per_gpu);
  const DataSize chunk = per_gpu / static_cast<double>(chunks);
  const int hosts = host_count();
  launch({{Phase::kRings, chunk / static_cast<double>(hosts), 2 * (hosts - 1)}}, chunks,
         std::move(done));
}

int Communicator::all_to_all(DataSize per_gpu, bool allow_host_relay, DoneFn done) {
  done = traced("all_to_all", per_gpu, std::move(done));
  return launch({{Phase::kAllToAll, per_gpu, allow_host_relay ? 1 : 0}}, 1, std::move(done));
}

void Communicator::point_to_point(int src_rank, int dst_rank, DataSize size, DoneFn done) {
  launch({{Phase::kMessage, size, src_rank, dst_rank}}, 1, std::move(done));
}

namespace {

Duration run_blocking(sim::Simulator& sim, const std::function<void(std::function<void()>)>& op) {
  const TimePoint start = sim.now();
  bool finished = false;
  op([&finished] { finished = true; });
  while (!finished && sim.step()) {
  }
  HPN_CHECK_MSG(finished, "collective did not complete (no more events)");
  return sim.now() - start;
}

}  // namespace

Duration Communicator::run_all_reduce(DataSize per_gpu) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    all_reduce(per_gpu, std::move(done));
  });
}

Duration Communicator::run_reduce_scatter(DataSize per_gpu) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    reduce_scatter(per_gpu, std::move(done));
  });
}

Duration Communicator::run_all_gather(DataSize gathered) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    all_gather(gathered, std::move(done));
  });
}

Duration Communicator::run_multi_all_reduce(DataSize per_gpu) {
  return run_blocking(*sim_, [&](std::function<void()> done) {
    multi_all_reduce(per_gpu, std::move(done));
  });
}

double Communicator::bus_bw_all_reduce(int n, DataSize per_gpu, Duration t) {
  return 2.0 * (n - 1) / n * per_gpu.as_bytes() / t.as_seconds();
}

double Communicator::bus_bw_all_gather(int n, DataSize gathered, Duration t) {
  return static_cast<double>(n - 1) / n * gathered.as_bytes() / t.as_seconds();
}

double Communicator::bus_bw_reduce_scatter(int n, DataSize per_gpu, Duration t) {
  return static_cast<double>(n - 1) / n * per_gpu.as_bytes() / t.as_seconds();
}

}  // namespace hpn::ccl
