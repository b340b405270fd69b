#include "serve/wire.h"

#include <bit>
#include <cstring>
#include <string_view>

namespace hpn::serve {

namespace {

constexpr std::uint16_t kVersion = 1;
constexpr std::string_view kScenarioMagic = "HPNS";

template <typename T>
void put_le(std::string& out, T v) {
  static_assert(std::endian::native == std::endian::little ||
                std::endian::native == std::endian::big);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
      std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
    }
  }
  out.append(reinterpret_cast<const char*>(bytes), sizeof(T));
}

void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
void put_i64(std::string& out, std::int64_t v) { put_le(out, v); }
/// The exact bit pattern (bit_cast to u64): no text, no rounding.
void put_f64(std::string& out, double v) { put_le(out, std::bit_cast<std::uint64_t>(v)); }

}  // namespace

std::string encode_scenario(const fuzz::Scenario& s) {
  std::string out;
  out.append(kScenarioMagic);
  put_u16(out, kVersion);
  put_u64(out, s.seed);
  put_u8(out, static_cast<std::uint8_t>(s.topology));
  put_u32(out, s.size_knob);
  put_u32(out, s.wiring);
  put_u32(out, static_cast<std::uint32_t>(s.flows.size()));
  for (const fuzz::ScenarioFlow& f : s.flows) {
    put_u32(out, f.src);
    put_u32(out, f.dst);
    put_i64(out, f.size_bytes);
    put_f64(out, f.cap_gbps);
  }
  put_u32(out, static_cast<std::uint32_t>(s.faults.size()));
  for (const fuzz::ScenarioFault& f : s.faults) {
    put_u8(out, static_cast<std::uint8_t>(f.kind));
    put_i64(out, f.at_ns);
    put_u32(out, f.target);
    put_i64(out, f.down_for_ns);
  }
  put_u32(out, static_cast<std::uint32_t>(s.jobs.size()));
  for (const fuzz::ScenarioJob& j : s.jobs) {
    put_i64(out, j.arrival_ns);
    put_u32(out, j.hosts);
    put_u32(out, j.iters);
  }
  return out;
}

}  // namespace hpn::serve
