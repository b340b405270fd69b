// Replays a fault::FailureInjector plan onto a FabricController over
// simulated time: each entry fails (and, with repair_after > 0, later
// repairs) its access link or ToR, or flaps its link. The runs only draw
// plans (the soak bench adjudicates them itself); the failover tests drive
// the fabric through this.
#pragma once

#include <vector>

#include "common/check.h"
#include "ctrl/fabric_controller.h"
#include "fault/failure_injector.h"
#include "sim/simulator.h"

namespace hpn::fault::testsupport {

/// Schedules every entry of `plan` on `sim`; returns the number scheduled.
/// `sim` and `fabric` must outlive the scheduled events.
inline int schedule_plan(sim::Simulator& sim, ctrl::FabricController& fabric,
                         const std::vector<InjectionPlanEntry>& plan) {
  for (const InjectionPlanEntry& e : plan) {
    HPN_CHECK(e.at >= sim.now());
    switch (e.kind) {
      case InjectionPlanEntry::Kind::kLinkFail:
        sim.schedule_at(e.at, [&sim, &fabric, e] {
          fabric.fail_access(e.host, e.rail, e.port);
          if (e.repair_after > Duration::zero()) {
            sim.schedule_after(e.repair_after, [&fabric, e] {
              fabric.repair_access(e.host, e.rail, e.port);
            });
          }
        });
        break;
      case InjectionPlanEntry::Kind::kLinkFlap:
        sim.schedule_at(e.at, [&fabric, e] {
          fabric.flap_access(e.host, e.rail, e.port, e.repair_after);
        });
        break;
      case InjectionPlanEntry::Kind::kTorCrash:
        sim.schedule_at(e.at, [&sim, &fabric, e] {
          fabric.fail_tor(e.tor);
          if (e.repair_after > Duration::zero()) {
            sim.schedule_after(e.repair_after, [&fabric, e] { fabric.repair_tor(e.tor); });
          }
        });
        break;
    }
  }
  return static_cast<int>(plan.size());
}

}  // namespace hpn::fault::testsupport
