// Stacked vs non-stacked dual-ToR state machines (§4.1 / §4.2).
//
// The stacked pair reproduces the two production failure classes the paper
// reports (together >40% of critical failures over three years):
//   1. Stack failure: ToR1's data plane dies (e.g. MMU overflow) while its
//      control plane stays healthy on the out-of-band network. ToR2 can no
//      longer sync ARP/MAC over the direct link; to avoid inconsistent
//      forwarding it shuts itself down — and with ToR1's data plane already
//      dead, the whole rack goes offline.
//   2. Upgrade incompatibility: during a rolling upgrade the two ToRs run
//      different firmware; if the control-plane RPC schema changed more than
//      ISSU tolerates, sync fails the same way.
// The non-stacked pair has no sync link: each ToR forwards independently,
// so any single failure leaves the rack reachable.
#pragma once

#include <cstdint>
#include <string>

namespace hpn::ctrl {

enum class TorRole : std::uint8_t { kPrimary, kSecondary };

struct TorState {
  bool data_plane_up = true;
  int firmware_version = 1;
  bool self_shutdown = false;  ///< Secondary's defensive shutdown (stacked).

  [[nodiscard]] bool forwarding() const {
    return data_plane_up && !self_shutdown;
  }
};

/// Commodity stacked dual-ToR (vPC / M-LAG / stacking).
class StackedDualTorPair {
 public:
  StackedDualTorPair() = default;

  /// How far apart firmware can be before the sync RPC schema breaks.
  /// The paper: 70% of ToR upgrades exceed what ISSU tolerates.
  void set_issu_tolerance(int versions) { issu_tolerance_ = versions; }

  void fail_data_plane(TorRole which);
  void fail_sync_link();
  void upgrade(TorRole which, int new_version);
  void repair(TorRole which);
  void repair_sync_link();

  [[nodiscard]] const TorState& tor(TorRole which) const {
    return which == TorRole::kPrimary ? primary_ : secondary_;
  }
  [[nodiscard]] bool sync_link_up() const { return sync_link_up_; }
  /// Can the ToRs still exchange forwarding state?
  [[nodiscard]] bool sync_healthy() const;
  /// At least one ToR is forwarding: the rack is reachable.
  [[nodiscard]] bool rack_online() const;
  [[nodiscard]] const std::string& last_transition() const { return last_transition_; }

 private:
  /// Re-evaluate the pair after any event — this is where the defensive
  /// shutdown logic bites.
  void reconcile();

  TorState primary_;
  TorState secondary_;
  bool sync_link_up_ = true;
  int issu_tolerance_ = 0;  ///< 0: any version skew breaks sync.
  std::string last_transition_;
};

/// HPN's non-stacked pair: no sync link, no shared fate.
class NonStackedDualTorPair {
 public:
  void fail_data_plane(TorRole which);
  void upgrade(TorRole which, int new_version);
  void repair(TorRole which);

  [[nodiscard]] const TorState& tor(TorRole which) const {
    return which == TorRole::kPrimary ? a_ : b_;
  }
  [[nodiscard]] bool rack_online() const { return a_.forwarding() || b_.forwarding(); }

 private:
  TorState a_;
  TorState b_;
};

}  // namespace hpn::ctrl
