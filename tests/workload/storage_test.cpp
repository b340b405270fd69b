#include "workload/storage.h"

#include <gtest/gtest.h>

#include "tests/support/checkpoint_write.h"
#include "topo/builders.h"

namespace hpn::workload {
namespace {

using testsupport::run_checkpoint_write;
using topo::Cluster;
using topo::HpnConfig;

struct Rig {
  Cluster c = topo::build_hpn(HpnConfig::tiny());
  sim::Simulator s;
  flowsim::FlowSession fs{c.topo, s};
  routing::Router r{c.topo};
};

TEST(StorageTraffic, FrontendCheckpointWriteCompletes) {
  Rig rig;
  const auto storage = topo::attach_frontend(rig.c);
  StorageTraffic st{rig.c, rig.fs, rig.r};
  const std::vector<int> hosts{0, 1, 2, 3};
  // 240GB per host (8 x 30GB), 4 hosts at up to 400G each, storage-side
  // bound: finishes in single-digit simulated seconds.
  const Duration t = run_checkpoint_write(rig.s, st, hosts, storage, DataSize::gigabytes(240));
  EXPECT_EQ(st.unroutable(), 0);
  EXPECT_GT(t.as_seconds(), 2.0);
  EXPECT_LT(t.as_seconds(), 60.0);
}

TEST(StorageTraffic, BackendCheckpointWriteCompletes) {
  Rig rig;
  const auto storage = topo::attach_backend_storage(rig.c, 8);
  StorageTraffic st{rig.c, rig.fs, rig.r};
  const Duration t =
      run_checkpoint_write(rig.s, st, {0, 1, 2, 3}, storage, DataSize::gigabytes(240));
  EXPECT_EQ(st.unroutable(), 0);
  EXPECT_GT(t.as_seconds(), 1.0);
}

TEST(StorageTraffic, BackendSplitsAcrossRailNics) {
  // Backend-attached storage is reached through all 8 rail NICs; frontend
  // through the single NIC0. Same bytes, different fan-out: with 8 storage
  // hosts the backend write from ONE host can use 8x the access bandwidth.
  Rig backend_rig;
  const auto bstorage = topo::attach_backend_storage(backend_rig.c, 8);
  StorageTraffic bst{backend_rig.c, backend_rig.fs, backend_rig.r};
  const Duration t_back =
      run_checkpoint_write(backend_rig.s, bst, {0}, bstorage, DataSize::gigabytes(240));

  Rig frontend_rig;
  const auto fstorage = topo::attach_frontend(frontend_rig.c);
  StorageTraffic fst{frontend_rig.c, frontend_rig.fs, frontend_rig.r};
  const Duration t_front =
      run_checkpoint_write(frontend_rig.s, fst, {0}, fstorage, DataSize::gigabytes(240));

  EXPECT_LT(t_back.as_seconds() * 2.0, t_front.as_seconds())
      << "backend bandwidth advantage is real — the paper rejects it anyway";
}

TEST(StorageTraffic, RequiresFrontendWhenStorageIsFrontend) {
  Rig rig;  // no attach_frontend
  std::vector<topo::StorageHost> fake(1);
  fake[0].on_backend = false;
  StorageTraffic st{rig.c, rig.fs, rig.r};
  EXPECT_THROW(st.checkpoint_write({0}, fake, DataSize::gigabytes(1), nullptr), CheckError);
}

}  // namespace
}  // namespace hpn::workload
