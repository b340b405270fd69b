// The completion callback every flow engine takes: FlowSession,
// FluidSimulator and PacketSimulator call it with the finished flow's id.
// It is move-only and stores captures of up to 40 bytes inline, so a
// completion that carries `this` plus a few ids never allocates.
#pragma once

#include "common/ids.h"
#include "sim/inline_callback.h"

namespace hpn::flowsim {

using CompletionFn = sim::InlineFunction<void(FlowId)>;

}  // namespace hpn::flowsim
