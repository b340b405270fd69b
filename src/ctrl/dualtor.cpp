#include "ctrl/dualtor.h"

namespace hpn::ctrl {

void StackedDualTorPair::fail_data_plane(TorRole which) {
  (which == TorRole::kPrimary ? primary_ : secondary_).data_plane_up = false;
  reconcile();
}

void StackedDualTorPair::fail_sync_link() {
  sync_link_up_ = false;
  reconcile();
}

void StackedDualTorPair::upgrade(TorRole which, int new_version) {
  (which == TorRole::kPrimary ? primary_ : secondary_).firmware_version = new_version;
  reconcile();
}

void StackedDualTorPair::repair(TorRole which) {
  TorState& t = which == TorRole::kPrimary ? primary_ : secondary_;
  t = TorState{};
  t.firmware_version =
      (which == TorRole::kPrimary ? secondary_ : primary_).firmware_version;
  reconcile();
}

void StackedDualTorPair::repair_sync_link() {
  sync_link_up_ = true;
  reconcile();
}

bool StackedDualTorPair::sync_healthy() const {
  if (!sync_link_up_) return false;
  // The direct link carries data-plane state: a dead data plane on either
  // side breaks synchronization even if both control planes are up.
  if (!primary_.data_plane_up || !secondary_.data_plane_up) return false;
  const int skew = primary_.firmware_version - secondary_.firmware_version;
  if (skew > issu_tolerance_ || skew < -issu_tolerance_) return false;
  return true;
}

void StackedDualTorPair::reconcile() {
  if (sync_healthy()) {
    // Healthy stack: clear any defensive shutdown once sync is restored.
    if (secondary_.self_shutdown || primary_.self_shutdown) {
      primary_.self_shutdown = false;
      secondary_.self_shutdown = false;
      last_transition_ = "sync restored; both ToRs forwarding";
    }
    return;
  }
  // Sync broken. The secondary cannot verify the primary's forwarding state
  // any more. The primary's control plane still answers on the out-of-band
  // network, so the primary insists it is healthy and keeps the primary role
  // — and the secondary shuts itself down to avoid inconsistent forwarding
  // (§4.1). That is precisely the trap: if the primary's data plane is
  // silently dead, the rack is now fully offline.
  if (!secondary_.self_shutdown) {
    secondary_.self_shutdown = true;
    last_transition_ =
        "sync lost while primary control plane is up: secondary self-shutdown";
  }
}

bool StackedDualTorPair::rack_online() const {
  return primary_.forwarding() || secondary_.forwarding();
}

void NonStackedDualTorPair::fail_data_plane(TorRole which) {
  (which == TorRole::kPrimary ? a_ : b_).data_plane_up = false;
}

void NonStackedDualTorPair::upgrade(TorRole which, int new_version) {
  // No sync RPC exists; a version skew is harmless by construction.
  (which == TorRole::kPrimary ? a_ : b_).firmware_version = new_version;
}

void NonStackedDualTorPair::repair(TorRole which) {
  (which == TorRole::kPrimary ? a_ : b_) = TorState{};
}

}  // namespace hpn::ctrl
