#include "src/nf/stateful.h"

namespace nezha::nf {

flow::Verdict finalize_action(flow::Direction dir,
                              const flow::PreActions& pre,
                              const flow::SessionState& state) {
  if (pre.dir(dir).acl_verdict == flow::Verdict::kAccept) {
    return flow::Verdict::kAccept;
  }
  // This direction's pre-action is "drop": allow only response traffic of a
  // session initiated from the opposite direction, and only if that
  // direction itself was permitted.
  const flow::Direction opposite = flow::reverse(dir);
  const bool initiated_opposite =
      (state.first_dir == flow::FirstDirection::kTx &&
       opposite == flow::Direction::kTx) ||
      (state.first_dir == flow::FirstDirection::kRx &&
       opposite == flow::Direction::kRx);
  if (initiated_opposite &&
      pre.dir(opposite).acl_verdict == flow::Verdict::kAccept) {
    return flow::Verdict::kAccept;
  }
  return flow::Verdict::kDrop;
}

}  // namespace nezha::nf
