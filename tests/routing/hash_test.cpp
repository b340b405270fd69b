#include "routing/hash.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "common/rng.h"

namespace hpn::routing {
namespace {

/// A switch's tuple hash as it was before the CRC and the seed finalizer
/// were split: the whole 13-byte CRC per call, i.e. once per hop of a trace.
std::uint32_t per_hop_hash_tuple(const FiveTuple& ft, std::uint32_t seed) {
  std::array<std::uint8_t, 13> buf{};
  auto put32 = [&buf](std::size_t at, std::uint32_t v) {
    buf[at] = static_cast<std::uint8_t>(v);
    buf[at + 1] = static_cast<std::uint8_t>(v >> 8);
    buf[at + 2] = static_cast<std::uint8_t>(v >> 16);
    buf[at + 3] = static_cast<std::uint8_t>(v >> 24);
  };
  put32(0, ft.src_ip);
  put32(4, ft.dst_ip);
  buf[8] = static_cast<std::uint8_t>(ft.src_port);
  buf[9] = static_cast<std::uint8_t>(ft.src_port >> 8);
  buf[10] = static_cast<std::uint8_t>(ft.dst_port);
  buf[11] = static_cast<std::uint8_t>(ft.dst_port >> 8);
  buf[12] = ft.protocol;
  std::uint32_t h = crc32(buf) ^ seed;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

/// The one-CRC hash a trace applies at a hop with seed `seed`.
std::uint32_t one_crc_hash(const FiveTuple& ft, std::uint32_t seed) {
  return mix_seed(tuple_crc(ft), seed);
}

TEST(Crc32, KnownVector) {
  // Standard IEEE CRC32 check value for "123456789".
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32({}), 0u);
}

TEST(HashTuple, Deterministic) {
  const FiveTuple ft{.src_ip = 1, .dst_ip = 2, .src_port = 100};
  EXPECT_EQ(one_crc_hash(ft, 7), one_crc_hash(ft, 7));
}

TEST(HashTuple, SeedSensitivity) {
  const FiveTuple ft{.src_ip = 1, .dst_ip = 2, .src_port = 100};
  EXPECT_NE(one_crc_hash(ft, 7), one_crc_hash(ft, 8));
}

TEST(HashTuple, SourcePortMovesHash) {
  // RePaC relies on the UDP source port steering the hash.
  FiveTuple a{.src_ip = 1, .dst_ip = 2, .src_port = 100};
  FiveTuple b = a;
  b.src_port = 101;
  EXPECT_NE(one_crc_hash(a, 7), one_crc_hash(b, 7));
}

TEST(HashTuple, OneCrcSelectionMatchesPerHopHash) {
  // A trace takes tuple_crc once and mixes each hop's seed in; every pick
  // must equal the per-hop hash's, for any tuple, seed and group size.
  Rng rng{0xC4C32};
  const std::array<EcmpHasher, 3> hashers{
      EcmpHasher{HashConfig{.seeds = SeedPolicy::kIdentical}},
      EcmpHasher{HashConfig{.seeds = SeedPolicy::kVendorFamily}},
      EcmpHasher{HashConfig{.seeds = SeedPolicy::kPerSwitch}}};
  std::size_t mismatches = 0;
  constexpr int kDraws = 1'000'000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t bits = rng.next_u64();
    const FiveTuple ft{.src_ip = static_cast<std::uint32_t>(bits),
                       .dst_ip = static_cast<std::uint32_t>(bits >> 32),
                       .src_port = static_cast<std::uint16_t>(rng.next_u64()),
                       .dst_port = static_cast<std::uint16_t>(i % 3 == 0 ? rng.next_u64() : 4791),
                       .protocol = static_cast<std::uint8_t>(i % 5 == 0 ? rng.next_u64() : 17)};
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::size_t n = 1 + rng.uniform_index(128);
    const std::uint32_t crc = tuple_crc(ft);
    mismatches += mix_seed(crc, seed) != per_hop_hash_tuple(ft, seed);
    const EcmpHasher& h = hashers[static_cast<std::size_t>(i) % hashers.size()];
    const NodeId node{static_cast<std::uint32_t>(rng.uniform_index(1u << 20))};
    const std::size_t want = n == 1 ? 0 : per_hop_hash_tuple(ft, h.seed_for(node)) % n;
    mismatches += h.select_crc(crc, node, n) != want;
    mismatches += h.select_at_core(ft, crc, node, static_cast<std::uint16_t>(i), n) != want;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << 3 * kDraws << " comparisons";
}

TEST(SeedPolicy, IdenticalSeedsEverywhere) {
  EcmpHasher h{HashConfig{.seeds = SeedPolicy::kIdentical}};
  EXPECT_EQ(h.seed_for(NodeId{1}), h.seed_for(NodeId{999}));
}

TEST(SeedPolicy, VendorFamilyHasFourVariants) {
  EcmpHasher h{HashConfig{.seeds = SeedPolicy::kVendorFamily}};
  std::set<std::uint32_t> seeds;
  for (std::uint32_t i = 0; i < 100; ++i) seeds.insert(h.seed_for(NodeId{i}));
  EXPECT_EQ(seeds.size(), 4u);
}

TEST(SeedPolicy, PerSwitchSeedsDistinct) {
  EcmpHasher h{HashConfig{.seeds = SeedPolicy::kPerSwitch}};
  std::set<std::uint32_t> seeds;
  for (std::uint32_t i = 0; i < 100; ++i) seeds.insert(h.seed_for(NodeId{i}));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(EcmpHasher, SelectWithinRange) {
  EcmpHasher h;
  for (std::uint32_t ip = 0; ip < 100; ++ip) {
    const FiveTuple ft{.src_ip = ip, .dst_ip = 1};
    EXPECT_LT(h.select_crc(tuple_crc(ft), NodeId{1}, 7), 7u);
  }
}

TEST(EcmpHasher, SingleCandidateAlwaysZero) {
  EcmpHasher h;
  EXPECT_EQ(h.select_crc(tuple_crc(FiveTuple{}), NodeId{1}, 1), 0u);
}

TEST(EcmpHasher, IdenticalSeedsPolarize) {
  // The §2.2 cascade: with identical seeds, a flow's choice at a second
  // switch is fully determined by its choice at the first when candidate
  // counts share a divisor. n1=60, n2=2: idx2 == idx1 % 2 for every flow.
  EcmpHasher h{HashConfig{.seeds = SeedPolicy::kIdentical}};
  for (std::uint32_t ip = 0; ip < 500; ++ip) {
    const FiveTuple ft{.src_ip = ip, .dst_ip = 9, .src_port = static_cast<std::uint16_t>(ip)};
    const std::size_t first = h.select_crc(tuple_crc(ft), NodeId{1}, 60);
    const std::size_t second = h.select_crc(tuple_crc(ft), NodeId{2}, 2);
    EXPECT_EQ(second, first % 2);
  }
}

TEST(EcmpHasher, PerSwitchSeedsDecorrelate) {
  EcmpHasher h{HashConfig{.seeds = SeedPolicy::kPerSwitch}};
  int match = 0;
  const int n = 2000;
  for (std::uint32_t ip = 0; ip < static_cast<std::uint32_t>(n); ++ip) {
    const FiveTuple ft{.src_ip = ip, .dst_ip = 9, .src_port = static_cast<std::uint16_t>(ip)};
    const std::uint32_t crc = tuple_crc(ft);
    match += h.select_crc(crc, NodeId{1}, 60) % 2 == h.select_crc(crc, NodeId{2}, 2);
  }
  // Independent hashes agree ~50% of the time.
  EXPECT_NEAR(static_cast<double>(match) / n, 0.5, 0.05);
}

TEST(EcmpHasher, PerPortCoreIgnoresFiveTuple) {
  EcmpHasher h{HashConfig{.per_port_at_core = true}};
  const FiveTuple a{.src_ip = 1, .dst_ip = 42, .src_port = 10};
  const FiveTuple b{.src_ip = 2, .dst_ip = 42, .src_port = 999};
  for (std::uint16_t port = 0; port < 32; ++port) {
    EXPECT_EQ(h.select_at_core(a, tuple_crc(a), NodeId{5}, port, 8),
              h.select_at_core(b, tuple_crc(b), NodeId{5}, port, 8));
  }
}

TEST(EcmpHasher, PerPortCoreSpreadsAcrossPorts) {
  EcmpHasher h{HashConfig{.per_port_at_core = true}};
  const FiveTuple ft{.src_ip = 1, .dst_ip = 42};
  std::set<std::size_t> picks;
  for (std::uint16_t port = 0; port < 64; ++port) {
    picks.insert(h.select_at_core(ft, tuple_crc(ft), NodeId{5}, port, 8));
  }
  EXPECT_EQ(picks.size(), 8u);  // all egress choices reachable
}

TEST(EcmpHasher, PerPortCoreOffFallsBackToTupleHash) {
  EcmpHasher h{HashConfig{.per_port_at_core = false}};
  const FiveTuple ft{.src_ip = 1, .dst_ip = 42};
  const std::uint32_t crc = tuple_crc(ft);
  EXPECT_EQ(h.select_at_core(ft, crc, NodeId{5}, 3, 8), h.select_crc(crc, NodeId{5}, 8));
}

TEST(EcmpHasher, CoreSelectionWithPrecomputedCrc) {
  for (const bool per_port : {false, true}) {
    EcmpHasher h{HashConfig{.seeds = SeedPolicy::kPerSwitch, .per_port_at_core = per_port}};
    for (std::uint16_t sport = 0; sport < 2'000; ++sport) {
      const FiveTuple ft{.src_ip = 7, .dst_ip = 42, .src_port = sport};
      const auto port = static_cast<std::uint16_t>(sport % 64);
      const std::size_t n = 1 + sport % 16;
      // Per-port: (ingress port, destination) alone; otherwise the tuple hash.
      const std::uint32_t seed = h.seed_for(NodeId{5});
      const std::size_t want =
          n == 1     ? 0
          : per_port ? ((static_cast<std::uint32_t>(port) * 2654435761u) ^ (ft.dst_ip * 40503u) ^
                        seed) % n
                     : per_hop_hash_tuple(ft, seed) % n;
      EXPECT_EQ(h.select_at_core(ft, tuple_crc(ft), NodeId{5}, port, n), want);
    }
  }
}

}  // namespace
}  // namespace hpn::routing
