#include "routing/hash.h"

#include <array>

#include "common/check.h"

namespace hpn::routing {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t tuple_crc(const FiveTuple& ft) {
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
  return crc32(buf);
}

std::uint32_t mix_seed(std::uint32_t crc, std::uint32_t seed) {
  // CRC alone is linear in its input, so XORing a seed into the message
  // would only XOR the output by a constant — all "different" seeds would
  // stay perfectly correlated. Real ASICs select among rotated/permuted
  // hash variants; we model that with a non-linear (murmur3-style) seed
  // finalizer on top of the tuple CRC.
  std::uint32_t h = crc ^ seed;
  h ^= h >> 16;
  h *= 0x85EBCA6Bu;
  h ^= h >> 13;
  h *= 0xC2B2AE35u;
  h ^= h >> 16;
  return h;
}

std::uint32_t EcmpHasher::seed_for(NodeId node) const {
  switch (config_.seeds) {
    case SeedPolicy::kIdentical:
      return config_.salt;
    case SeedPolicy::kVendorFamily:
      // Four firmware variants in the fleet.
      return config_.salt + node.value() % 4;
    case SeedPolicy::kPerSwitch:
      return config_.salt ^ (node.value() * 0x9E3779B9u + 0x7F4A7C15u);
  }
  return config_.salt;
}

std::size_t EcmpHasher::select_crc(std::uint32_t crc, NodeId node, std::size_t n) const {
  HPN_CHECK(n > 0);
  if (n == 1) return 0;
  return mix_seed(crc, seed_for(node)) % n;
}

std::size_t EcmpHasher::select_at_core(const FiveTuple& ft, std::uint32_t crc, NodeId node,
                                       std::uint16_t ingress_port, std::size_t n) const {
  HPN_CHECK(n > 0);
  if (n == 1) return 0;
  if (!config_.per_port_at_core) return select_crc(crc, node, n);
  // Pure (ingress port, destination prefix) mapping — no five-tuple terms.
  const std::uint32_t mixed =
      (static_cast<std::uint32_t>(ingress_port) * 2654435761u) ^ (ft.dst_ip * 40503u) ^
      seed_for(node);
  return mixed % n;
}

}  // namespace hpn::routing
