// Stateful network-function semantics: Action = func(pkt, rules, states).
//
// finalize_action() is the process_pkt(pre-actions, states) of Fig 1 — the
// one piece of logic that needs BOTH the stateless pre-actions and the
// session state, and therefore runs wherever the two meet: the local
// vSwitch traditionally; under Nezha at the FE for TX packets (state arrives
// in the packet) and at the BE for RX packets (pre-actions arrive in the
// packet). §5.1 walks through the stateful-ACL case this implements.
#pragma once

#include "src/flow/direction.h"
#include "src/flow/pre_actions.h"
#include "src/flow/session.h"

namespace nezha::nf {

/// Combines the pre-actions with the session state to produce the final
/// verdict for a packet travelling in `dir`.
///
/// Stateful-ACL rule (§5.1): a direction passes if its own pre-action
/// accepts, or if the session was initiated from the opposite direction and
/// that direction's pre-action accepts (responses to locally-initiated
/// connections must pass even when the ACL denies inbound traffic).
flow::Verdict finalize_action(flow::Direction dir,
                              const flow::PreActions& pre,
                              const flow::SessionState& state);

}  // namespace nezha::nf
