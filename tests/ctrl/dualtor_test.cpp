#include "ctrl/dualtor.h"

#include <gtest/gtest.h>

namespace hpn::ctrl {
namespace {

// §4.1 scenario 1: the MMU-overflow trap. ToR1 (primary) loses its data
// plane but its control plane still answers on the out-of-band network.
// Sync over the direct link fails; the secondary shuts itself down to avoid
// inconsistent forwarding; the rack goes fully offline.
TEST(StackedDualTor, PrimaryDataPlaneDeathTakesRackOffline) {
  StackedDualTorPair pair;
  EXPECT_TRUE(pair.rack_online());
  pair.fail_data_plane(TorRole::kPrimary);
  EXPECT_FALSE(pair.sync_healthy());
  EXPECT_TRUE(pair.tor(TorRole::kSecondary).self_shutdown);
  EXPECT_FALSE(pair.rack_online()) << "stacked dual-ToR rack-level failure";
}

TEST(StackedDualTor, SyncLinkFailureAloneKillsRackWithHealthyPrimary) {
  StackedDualTorPair pair;
  pair.fail_sync_link();
  // Primary keeps forwarding, secondary shuts down: rack still online via
  // primary — degraded but alive.
  EXPECT_TRUE(pair.tor(TorRole::kSecondary).self_shutdown);
  EXPECT_TRUE(pair.rack_online());
  // Now the primary's data plane dies too (the compound failure): offline.
  pair.fail_data_plane(TorRole::kPrimary);
  EXPECT_FALSE(pair.rack_online());
}

// §4.1 scenario 2: upgrade incompatibility. 70% of upgrades exceed ISSU's
// tolerated diff; the version skew breaks control-plane sync.
TEST(StackedDualTor, UpgradeSkewBreaksSync) {
  StackedDualTorPair pair;
  pair.set_issu_tolerance(0);
  pair.upgrade(TorRole::kPrimary, 2);  // secondary still v1
  EXPECT_FALSE(pair.sync_healthy());
  EXPECT_TRUE(pair.tor(TorRole::kSecondary).self_shutdown);
  // Finishing the rolling upgrade restores sync and clears the shutdown.
  pair.upgrade(TorRole::kSecondary, 2);
  EXPECT_TRUE(pair.sync_healthy());
  EXPECT_FALSE(pair.tor(TorRole::kSecondary).self_shutdown);
  EXPECT_TRUE(pair.rack_online());
}

TEST(StackedDualTor, IssuToleranceAbsorbsSmallDiffs) {
  StackedDualTorPair pair;
  pair.set_issu_tolerance(1);
  pair.upgrade(TorRole::kPrimary, 2);
  EXPECT_TRUE(pair.sync_healthy());
  EXPECT_TRUE(pair.rack_online());
  pair.upgrade(TorRole::kPrimary, 3);  // skew 2 > tolerance 1
  EXPECT_FALSE(pair.sync_healthy());
}

TEST(StackedDualTor, RepairRestoresService) {
  StackedDualTorPair pair;
  pair.fail_data_plane(TorRole::kPrimary);
  EXPECT_FALSE(pair.rack_online());
  pair.repair(TorRole::kPrimary);
  EXPECT_TRUE(pair.sync_healthy());
  EXPECT_TRUE(pair.rack_online());
  EXPECT_FALSE(pair.tor(TorRole::kSecondary).self_shutdown);
}

// The non-stacked design: same MMU-overflow event, no shared fate.
TEST(NonStackedDualTor, DataPlaneDeathLeavesRackOnline) {
  NonStackedDualTorPair pair;
  pair.fail_data_plane(TorRole::kPrimary);
  EXPECT_FALSE(pair.tor(TorRole::kPrimary).forwarding());
  EXPECT_TRUE(pair.tor(TorRole::kSecondary).forwarding());
  EXPECT_TRUE(pair.rack_online());
}

TEST(NonStackedDualTor, UpgradeSkewIsHarmless) {
  NonStackedDualTorPair pair;
  pair.upgrade(TorRole::kPrimary, 99);
  EXPECT_TRUE(pair.rack_online());
  EXPECT_TRUE(pair.tor(TorRole::kPrimary).forwarding());
  EXPECT_TRUE(pair.tor(TorRole::kSecondary).forwarding());
}

TEST(NonStackedDualTor, OnlyDoubleFailureKillsRack) {
  NonStackedDualTorPair pair;
  pair.fail_data_plane(TorRole::kPrimary);
  EXPECT_TRUE(pair.rack_online());
  pair.fail_data_plane(TorRole::kSecondary);
  EXPECT_FALSE(pair.rack_online());
  pair.repair(TorRole::kSecondary);
  EXPECT_TRUE(pair.rack_online());
}

}  // namespace
}  // namespace hpn::ctrl
