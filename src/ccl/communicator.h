// Collective communication over the simulated fabric — the NCCL stand-in.
//
// Collectives are *schedules of flows*, not formulas: every inter-host
// message is routed through the ConnectionManager's planned paths and
// contends inside the FlowSession, so hash collisions, dual-plane pinning
// and failures shape the results instead of being assumed.
//
// Algorithm shapes (Megatron/NCCL-style on 8-GPU NVLink hosts), the
// collectives HPN's evaluation runs:
//  * AllReduce      — hierarchical: intra-host reduce-scatter (NVLS-
//                     accelerated), 8 parallel rail rings across hosts
//                     (2(H-1) steps), intra-host all-gather; phases overlap
//                     through a chunked pipeline. The tree algorithm runs a
//                     reduce wave to the root and a broadcast wave back.
//  * ReduceScatter  — intra RS + rail rings with (H-1) steps.
//  * AllGather      — rail rings (H-1 steps) + intra all-gather; NVLS does
//                     not apply (§9.2), so it is NVSwitch-bound.
//  * Multi-AllReduce— Fig 17c: per-rail flat rings over the *full* per-GPU
//                     payload, all data inter-host, no NVLink phases.
//  * AllToAll       — MoE expert exchange (§10), optionally PXN-relayed.
//  * point-to-point — PP send/recv between two global ranks.
//
// Every operation is data: it computes its byte sizes and hands `launch` a
// list of phases (intra up/down, rail rings, one tree level, an all-to-all
// fan-out, one message) plus a chunk count. One engine runs every op out of
// the communicator's op table as a chunked pipeline: chunks pass the phases
// in order, each phase runs one chunk at a time, and a phase admits chunk c
// once c has left the phase before it. Flow, timer and retry callbacks carry
// only (op slot, generation, stage, rail).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ccl/connection.h"
#include "flowsim/session.h"
#include "sim/simulator.h"

namespace hpn::ccl {

enum class RingAlgorithm : std::uint8_t {
  kRing,  ///< Bandwidth-optimal: 2(H-1)/H x payload per edge.
  kTree,  ///< Latency-optimal: log2(H) rounds, 2x payload per edge.
  kAuto,  ///< Tree below tree_threshold, ring above.
};

struct CclConfig {
  /// NVLS in-switch reduction speeds intra-host AllReduce phases (§9.2).
  bool nvls = true;
  double nvls_gain = 1.5;
  /// Chunked pipelining across phases.
  int pipeline_chunks = 8;
  DataSize min_chunk = DataSize::megabytes(1);
  /// Fixed per-ring-step overhead (propagation + kernel launch + QP doorbell).
  Duration step_overhead = Duration::micros(20);
  /// Bulk rings: collapse a ring's steps into one steady-state flow per
  /// edge (size = steps x step_bytes) plus the accumulated step overhead.
  /// Exact for bandwidth-bound rings (all edges are concurrently active in
  /// steady state anyway) and orders of magnitude fewer simulator events;
  /// turn off to simulate every step barrier explicitly.
  bool bulk_rings = true;
  /// NCCL channels per ring edge (bulk mode): each edge splits into this
  /// many concurrent messages, which the connection picker spreads over the
  /// NIC's two ports/planes — engaging the full 2x200G of the rail.
  int channels_per_edge = 2;
  /// Retry interval when a message's destination is currently unreachable.
  Duration unreachable_retry = Duration::millis(10);
  /// Inter-host AllReduce algorithm; NCCL switches ring->tree by size.
  RingAlgorithm algorithm = RingAlgorithm::kRing;
  DataSize tree_threshold = DataSize::megabytes(8);
};

class Communicator {
 public:
  using DoneFn = std::function<void()>;

  /// `ranks` are global GPU ranks (cluster.gpu order); they must cover
  /// whole hosts (the paper's jobs always use all 8 GPUs of a host).
  Communicator(const topo::Cluster& cluster, sim::Simulator& simulator,
               flowsim::FlowSession& session, ConnectionManager& connections,
               std::vector<int> ranks, CclConfig config = {});
  /// Safe to destroy with collectives in flight. The op table dies with
  /// the communicator, so no unfinished collective's `done` (nor its span's
  /// end record) ever fires. Session and simulator callbacks check a shared
  /// liveness flag before touching this object; in-flight flows keep
  /// draining in the session, and each still returns its WQE bytes to the
  /// ConnectionManager, which outlives its communicators.
  ~Communicator();
  /// Not movable either: in-flight callbacks point at this object.
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int world_size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] int host_count() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] const CclConfig& config() const { return config_; }

  // ---- Asynchronous collectives -------------------------------------------
  /// `per_gpu` is the buffer size on every GPU.
  void all_reduce(DataSize per_gpu, DoneFn done);
  void reduce_scatter(DataSize per_gpu, DoneFn done);
  /// `gathered` is the output size (each GPU contributes gathered / N).
  void all_gather(DataSize gathered, DoneFn done);
  void multi_all_reduce(DataSize per_gpu, DoneFn done);

  /// MoE-style AllToAll (§10): every GPU scatters `per_gpu` evenly over all
  /// other ranks. With `allow_host_relay` (NCCL PXN), cross-rail traffic
  /// hops the NVSwitch to the destination rail first, so the network only
  /// ever carries rail-aligned flows — this is what makes AllToAll work at
  /// all on a rail-only tier2. Without relay (multi-tenant serverless,
  /// where a host's NICs belong to different tenants), cross-rail messages
  /// must route through the fabric; on a rail-only tier2 no such route
  /// exists. Returns the number of *unroutable* message groups (skipped);
  /// non-zero means the collective cannot actually complete on this fabric.
  int all_to_all(DataSize per_gpu, bool allow_host_relay, DoneFn done);

  /// Point-to-point (send/recv) between two *global* GPU ranks (need not
  /// be members) — PP stage boundaries.
  void point_to_point(int src_rank, int dst_rank, DataSize size, DoneFn done);

  // ---- Blocking helpers (drive the simulator until the op completes) ------
  Duration run_all_reduce(DataSize per_gpu);
  Duration run_reduce_scatter(DataSize per_gpu);
  Duration run_all_gather(DataSize gathered);
  Duration run_multi_all_reduce(DataSize per_gpu);

  /// Re-steer in-flight inter-host messages after a fabric change (port
  /// failover via shared QP contexts, §4), in ascending FlowId order.
  void on_fabric_change();

  /// Op-table slots held by collectives that have not finished yet.
  [[nodiscard]] std::size_t ops_in_flight() const { return ops_.size() - free_ops_.size(); }

  // ---- NCCL-convention bus bandwidth (bytes/sec) ---------------------------
  static double bus_bw_all_reduce(int n, DataSize per_gpu, Duration t);
  static double bus_bw_all_gather(int n, DataSize gathered, Duration t);
  static double bus_bw_reduce_scatter(int n, DataSize per_gpu, Duration t);

 private:
  /// One step of a collective's schedule; every chunk runs each of its
  /// op's phases in order.
  struct Phase {
    enum Kind : std::uint8_t {
      kIntraUp,         ///< one GPU->NVSwitch flow of `bytes` per member GPU
      kIntraDown,       ///< one NVSwitch->GPU flow of `bytes` per member GPU
      kAllGatherIntra,  ///< kIntraUp of `bytes`, then kIntraDown of 2 x `bytes`
      kRings,           ///< `arg` ring steps of `bytes` per host per rail
      kTreeUp,          ///< tree level `arg`, children -> parents, `bytes` per edge
      kTreeDown,        ///< tree level `arg`, parents -> children
      kAllToAll,        ///< `bytes` per GPU over all ranks; `arg` != 0: host relay
      kMessage,         ///< `bytes` from global rank `arg` to global rank `dst`
    };
    Kind kind;
    DataSize bytes;
    int arg = 0;
    int dst = 0;
  };

  /// A phase's progress: the next chunk to admit, whether a chunk is in it,
  /// and how many messages (or empty-phase events) that chunk waits for.
  struct Stage {
    Phase phase;
    int next_chunk = 0;
    bool busy = false;
    int outstanding = 0;
  };

  /// One rail's ring inside a kRings stage.
  struct Ring {
    int step = 0;        ///< per-step mode: ring steps started so far
    int flows_left = 0;  ///< messages of the current step (bulk: of the ring)
  };

  /// One collective in flight. A slot is reused once its `done` fires;
  /// `gen` changes then, so a stale callback fails an HPN_CHECK.
  struct Op {
    std::vector<Stage> stages;
    std::vector<Ring> rings;  ///< stage-major: stage x rails_ + rail
    int chunks = 0;
    int unroutable = 0;  ///< messages the all-to-all fan-out skipped
    std::uint32_t gen = 0;
    DoneFn done;
  };

  /// What every flow, timer and retry callback carries back into the table.
  struct Ref {
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint16_t stage;
    std::uint16_t rail;
  };

  /// ConnId -> interned path, keyed by the connection's path epoch.
  /// Collectives send many messages per connection (channels x pipeline
  /// chunks x ring steps), so after the first send a message reuses the
  /// PathId and skips the per-send path-vector hash entirely; a fabric
  /// change bumps the epoch and re-interns on the next send.
  struct CachedPath {
    std::uint64_t epoch = 0;
    PathId path;
    bool valid = false;
  };

  /// Opens an op over `phases` and admits its first chunk. Returns the
  /// messages that chunk skipped as unroutable (all-to-all only).
  int launch(const std::vector<Phase>& phases, int chunks, DoneFn done);
  /// Starts every chunk the pipeline rule admits, scanning phases in order.
  void advance(std::uint32_t slot);
  /// Starts the admitted chunk of `ref.stage`.
  void run(Ref ref);
  /// One message or empty-phase event of the running chunk is done.
  void arrive(Ref ref);
  /// The running chunk has left `ref.stage`.
  void finish(Ref ref);
  /// A message of one rail's ring is done.
  void ring_arrive(Ref ref);
  /// Starts the next step of one rail's per-step ring.
  void ring_step(Ref ref);
  [[nodiscard]] Op& op_at(Ref ref);
  /// Calls `Step(ref)` after `delay`, unless the communicator is gone.
  template <void (Communicator::*Step)(Ref)>
  void defer(Duration delay, Ref ref) {
    sim_->schedule_after(delay, [this, alive = alive_, ref] {
      if (*alive) (this->*Step)(ref);
    });
  }

  /// One message src -> dst (global ranks) over planned connections;
  /// retries while unreachable.
  void send_message(int src_rank, int dst_rank, DataSize size, Ref ref);
  /// Intra-host transfer for `rank` (up: GPU->NVSwitch, down: reverse).
  void intra_host_flow(int rank, bool up, DataSize size, Ref ref);
  /// One flow of `bytes` per member GPU, or one empty-phase event.
  void intra_phase(DataSize bytes, bool up, Ref ref);
  /// Every message of a MoE all-to-all; returns the unroutable ones.
  int all_to_all_messages(DataSize per_gpu, bool allow_host_relay, Ref ref);

  [[nodiscard]] int tree_depth() const;
  /// Dispatch ring vs tree for this payload per config.algorithm.
  [[nodiscard]] bool use_tree(DataSize per_gpu) const;
  void all_reduce_tree(DataSize per_gpu, DoneFn done);
  /// A chunk's intra-host share, (rails-1)/rails of it; NVLS in-switch
  /// reduction speeds it up only for reductions.
  [[nodiscard]] DataSize intra_share(DataSize chunk, bool reduction) const;
  /// Appends one tree level per phase: a reduce wave (up) runs the deepest
  /// level first, a broadcast wave (down) the root's.
  void add_tree_wave(std::vector<Phase>& phases, bool up, DataSize edge_bytes) const;

  [[nodiscard]] int chunks_for(DataSize total) const;
  [[nodiscard]] int global_rank(int host_pos, int rail) const;

  /// Opens a tracer collective span and returns `done` wrapped to close it.
  /// No-op passthrough while the tracer is disabled.
  DoneFn traced(const char* op, DataSize per_gpu, DoneFn done);

  const topo::Cluster* cluster_;
  sim::Simulator* sim_;
  flowsim::FlowSession* session_;
  ConnectionManager* conns_;
  CclConfig config_;
  std::vector<int> ranks_;
  std::vector<int> hosts_;  ///< Host indexes, ring order.
  int rails_ = 0;
  Bandwidth port_rate_;
  std::unordered_map<FlowId, ConnId> inflight_;  ///< In-flight messages' connections.
  std::vector<CachedPath> conn_paths_;  ///< ConnId-indexed.
  std::vector<Op> ops_;
  std::vector<std::uint32_t> free_ops_;
  /// Cleared on destruction; every session and simulator callback checks it
  /// before touching this object.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace hpn::ccl
