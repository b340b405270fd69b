// ECMP hashing as production switch ASICs do it — including the failure
// mode this paper is about.
//
// Hash polarization (§2.2): a flow's five-tuple is hashed at every tier; if
// switches share the same hash function (or draw from a small vendor
// family), the hash at tier k+1 is *correlated* with the choice already
// made at tier k, so entire subtrees of equal-cost paths are never used.
// We model a switch's hash as CRC32(five_tuple) mixed with a per-switch
// seed; the SeedPolicy controls how correlated seeds are across the fleet.
//
// §7's remedy at the Core layer is also here: per-port hashing makes the
// egress choice a pure function of (ingress port, destination), so the
// five-tuple — already fully hashed below — stops mattering.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/ids.h"

namespace hpn::routing {

/// RoCEv2 flow identity. IPs are synthetic (one per NIC); the UDP source
/// port is the entropy knob RDMA NICs expose for path control (RePaC).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 4791;  ///< RoCEv2 well-known port.
  std::uint8_t protocol = 17;     ///< UDP.

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
};

/// Table-driven CRC32 (IEEE 802.3 polynomial) — the hash family commodity
/// switching ASICs actually use for ECMP.
std::uint32_t crc32(std::span<const std::uint8_t> data);
/// CRC32 of the tuple's 13 wire bytes: the seed-free half of a switch's
/// hash, so a path trace computes it once and mixes each hop's seed in with
/// mix_seed.
std::uint32_t tuple_crc(const FiveTuple& ft);
/// A switch's hash of a tuple whose CRC is `crc`.
std::uint32_t mix_seed(std::uint32_t crc, std::uint32_t seed);

enum class SeedPolicy : std::uint8_t {
  /// Every switch uses the same seed — worst-case polarization, the
  /// "cascading hashing" of §2.2.
  kIdentical,
  /// Seeds drawn from a 4-member family (same-vendor fleet): partial
  /// decorrelation, still visibly polarized.
  kVendorFamily,
  /// Independent per-switch seeds — the idealized no-polarization baseline.
  kPerSwitch,
};

struct HashConfig {
  SeedPolicy seeds = SeedPolicy::kIdentical;
  /// §7: Core switches forward on (ingress port, destination) alone.
  bool per_port_at_core = false;
  std::uint32_t salt = 0x48504E;  ///< Fleet-wide salt ("HPN").
};

class EcmpHasher {
 public:
  explicit EcmpHasher(HashConfig config = {}) : config_{config} {}

  [[nodiscard]] const HashConfig& config() const { return config_; }

  /// Seed a given switch uses, per the policy.
  [[nodiscard]] std::uint32_t seed_for(NodeId node) const;

  /// Pick one of `n` equal-cost candidates at `node` for a tuple whose
  /// tuple_crc() is `crc`.
  [[nodiscard]] std::size_t select_crc(std::uint32_t crc, NodeId node, std::size_t n) const;

  /// Core-switch variant (`crc` = tuple_crc(ft)): when per_port_at_core is
  /// on, the choice is a pure function of (ingress_port, dst_ip) — five-tuple
  /// irrelevant (§7).
  [[nodiscard]] std::size_t select_at_core(const FiveTuple& ft, std::uint32_t crc, NodeId node,
                                           std::uint16_t ingress_port, std::size_t n) const;

 private:
  HashConfig config_;
};

}  // namespace hpn::routing
