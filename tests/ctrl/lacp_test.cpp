#include "ctrl/lacp.h"

#include <gtest/gtest.h>

namespace hpn::ctrl {
namespace {

/// A vendor chassis MAC (what stock LACP would use) — unique per switch:
/// a locally-administered unicast OUI, serialized per switch.
MacAddress chassis(std::uint32_t serial) {
  return MacAddress{{0x02, 0x1A, 0x2B, static_cast<std::uint8_t>(serial >> 16),
                     static_cast<std::uint8_t>(serial >> 8),
                     static_cast<std::uint8_t>(serial)}};
}

TEST(MacAddress, ReservedVirtualRouterMac) {
  EXPECT_EQ(MacAddress::reserved_virtual_router().to_string(), "00:00:5E:00:01:01");
}

TEST(MacAddress, ChassisMacsAreUnique) {
  EXPECT_NE(chassis(1), chassis(2));
}

TEST(TorLacpAgent, RespondsWithPreconfiguredSysId) {
  TorLacpAgent agent{TorLacpConfig{}};
  const Lacpdu resp = agent.respond(Lacpdu{}, 17);
  EXPECT_EQ(resp.actor_system, MacAddress::reserved_virtual_router());
  EXPECT_EQ(resp.actor_port, 17 + 300);
}

TEST(TorLacpAgent, OffsetBelowPortCountRejected) {
  TorLacpConfig cfg;
  cfg.port_id_offset = 100;  // < 256: a shifted ID could collide with a real port
  EXPECT_THROW(TorLacpAgent{cfg}, CheckError);
}

TEST(TorLacpAgent, PhysicalPortOutOfRangeRejected) {
  TorLacpAgent agent{TorLacpConfig{}};
  EXPECT_THROW((void)agent.respond(Lacpdu{}, 256), CheckError);
}

// The paper's non-stacked scheme: same pre-configured MAC, different
// offsets -> the host aggregates both independent ToRs as one device.
TEST(HostBond, NonStackedPairAggregates) {
  TorLacpConfig cfg0, cfg1;
  cfg0.port_id_offset = 300;
  cfg1.port_id_offset = 600;
  TorLacpAgent tor0{cfg0}, tor1{cfg1};
  const auto v = HostBond::evaluate(tor0.respond(Lacpdu{}, 17), tor1.respond(Lacpdu{}, 17));
  EXPECT_EQ(v.state, HostBond::State::kAggregated) << v.reason;
}

// Stock (un-customized) LACP on independent ToRs: each uses its own chassis
// MAC, sysIDs differ, and the host refuses to bundle.
TEST(HostBond, StockLacpOnIndependentTorsFailsToAggregate) {
  TorLacpConfig cfg0, cfg1;
  cfg0.system_mac = chassis(1);
  cfg1.system_mac = chassis(2);
  TorLacpAgent tor0{cfg0}, tor1{cfg1};
  const auto v = HostBond::evaluate(tor0.respond(Lacpdu{}, 17), tor1.respond(Lacpdu{}, 17));
  EXPECT_EQ(v.state, HostBond::State::kDegraded);
  EXPECT_NE(v.reason.find("sysID mismatch"), std::string::npos);
}

// Identical offsets: both ToRs present the same portID for similarly-wired
// hosts and the bundle cannot distinguish the ports.
TEST(HostBond, EqualOffsetsCollideOnPortId) {
  TorLacpAgent tor0{TorLacpConfig{}}, tor1{TorLacpConfig{}};
  const auto v = HostBond::evaluate(tor0.respond(Lacpdu{}, 17), tor1.respond(Lacpdu{}, 17));
  EXPECT_EQ(v.state, HostBond::State::kDegraded);
  EXPECT_NE(v.reason.find("duplicate portID"), std::string::npos);
}

TEST(HostBond, OnePortDownDegrades) {
  TorLacpConfig cfg1;
  cfg1.port_id_offset = 600;
  TorLacpAgent tor1{cfg1};
  const auto v = HostBond::evaluate(std::nullopt, tor1.respond(Lacpdu{}, 17));
  EXPECT_EQ(v.state, HostBond::State::kDegraded);
}

TEST(HostBond, BothPortsDownIsDown) {
  const auto v = HostBond::evaluate(std::nullopt, std::nullopt);
  EXPECT_EQ(v.state, HostBond::State::kDown);
}

TEST(HostBond, KeyMismatchDegrades) {
  TorLacpConfig cfg0, cfg1;
  cfg1.port_id_offset = 600;
  cfg1.aggregation_key = 2;
  TorLacpAgent tor0{cfg0}, tor1{cfg1};
  const auto v = HostBond::evaluate(tor0.respond(Lacpdu{}, 3), tor1.respond(Lacpdu{}, 3));
  EXPECT_EQ(v.state, HostBond::State::kDegraded);
}

}  // namespace
}  // namespace hpn::ctrl
