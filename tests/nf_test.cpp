// Unit tests for the NF layer: the §5.1 stateful-ACL truth table of
// finalize_action and the middlebox profiles that drive Table 3 (stateful
// decap is covered end to end by NezhaCoreTest.StatefulDecapAcrossOffload).
#include <gtest/gtest.h>

#include "src/nf/middlebox.h"
#include "src/nf/stateful.h"
#include "src/tables/cost_model.h"
#include "src/tables/rule_set.h"

namespace nezha::nf {
namespace {

using flow::Direction;
using flow::FirstDirection;
using flow::PreActions;
using flow::SessionState;
using flow::Verdict;

PreActions pre(Verdict tx, Verdict rx) {
  PreActions p;
  p.tx.acl_verdict = tx;
  p.rx.acl_verdict = rx;
  return p;
}

SessionState state_with_first(FirstDirection dir) {
  SessionState s;
  s.first_dir = dir;
  return s;
}

TEST(FinalizeActionTest, AcceptWhenOwnPreActionAccepts) {
  // §5.1: pre-action accept is final regardless of state.
  auto p = pre(Verdict::kAccept, Verdict::kAccept);
  for (auto first : {FirstDirection::kNone, FirstDirection::kTx,
                     FirstDirection::kRx}) {
    EXPECT_EQ(finalize_action(Direction::kTx, p, state_with_first(first)),
              Verdict::kAccept);
    EXPECT_EQ(finalize_action(Direction::kRx, p, state_with_first(first)),
              Verdict::kAccept);
  }
}

TEST(FinalizeActionTest, Section51TruthTable) {
  // Paper's exact example: RX pre-action drop, TX pre-action accept.
  auto p = pre(Verdict::kAccept, Verdict::kDrop);
  // "If the state is TX, the final action for both RX and TX is accept."
  EXPECT_EQ(finalize_action(Direction::kTx, p,
                            state_with_first(FirstDirection::kTx)),
            Verdict::kAccept);
  EXPECT_EQ(finalize_action(Direction::kRx, p,
                            state_with_first(FirstDirection::kTx)),
            Verdict::kAccept);
  // "If the state is RX, the final action for the RX packet will be drop"
  // (unsolicited flow).
  EXPECT_EQ(finalize_action(Direction::kRx, p,
                            state_with_first(FirstDirection::kRx)),
            Verdict::kDrop);
}

TEST(FinalizeActionTest, SymmetricCaseOutboundDeny) {
  // Mirror case: outbound denied, inbound allowed → locally-generated
  // responses to an externally-initiated session must pass.
  auto p = pre(Verdict::kDrop, Verdict::kAccept);
  EXPECT_EQ(finalize_action(Direction::kTx, p,
                            state_with_first(FirstDirection::kRx)),
            Verdict::kAccept);
  EXPECT_EQ(finalize_action(Direction::kTx, p,
                            state_with_first(FirstDirection::kTx)),
            Verdict::kDrop);
}

TEST(FinalizeActionTest, BothDroppedStaysDropped) {
  auto p = pre(Verdict::kDrop, Verdict::kDrop);
  for (auto first : {FirstDirection::kNone, FirstDirection::kTx,
                     FirstDirection::kRx}) {
    EXPECT_EQ(finalize_action(Direction::kTx, p, state_with_first(first)),
              Verdict::kDrop);
    EXPECT_EQ(finalize_action(Direction::kRx, p, state_with_first(first)),
              Verdict::kDrop);
  }
}

TEST(FinalizeActionTest, UninitializedStateGivesNoException) {
  // First packet of a denied direction with no recorded state: drop.
  auto p = pre(Verdict::kAccept, Verdict::kDrop);
  EXPECT_EQ(finalize_action(Direction::kRx, p,
                            state_with_first(FirstDirection::kNone)),
            Verdict::kDrop);
}

TEST(MiddleboxProfileTest, ChainComplexityOrdering) {
  // §6.3.1: NAT has the heaviest chain, TR the lightest (ACL bypassed) —
  // this ordering is what produces the 4.4X > 4X > 3X CPS gains.
  tables::CostModel cost;
  auto lb = MiddleboxProfile::load_balancer();
  auto nat = MiddleboxProfile::nat_gateway();
  auto tr = MiddleboxProfile::transit_router();

  tables::RuleTableSet lb_rules(lb.rule_profile);
  tables::RuleTableSet nat_rules(nat.rule_profile);
  tables::RuleTableSet tr_rules(tr.rule_profile);
  EXPECT_GT(nat_rules.lookup_cycles(cost), lb_rules.lookup_cycles(cost));
  EXPECT_GT(lb_rules.lookup_cycles(cost), tr_rules.lookup_cycles(cost));
  EXPECT_FALSE(tr.rule_profile.acl_enabled);
}

TEST(MiddleboxProfileTest, RuleTablesAreO100MB) {
  // §6.3.1: middlebox rule tables are generally O(100MB).
  for (auto profile : {MiddleboxProfile::load_balancer(),
                       MiddleboxProfile::nat_gateway(),
                       MiddleboxProfile::transit_router()}) {
    EXPECT_GE(profile.rule_profile.synthetic_rule_bytes, 50ull << 20);
    EXPECT_LE(profile.rule_profile.synthetic_rule_bytes, 500ull << 20);
  }
}

TEST(MiddleboxProfileTest, LbSessionLongevityDominates) {
  // LB maintains persistent connections to real servers (§6.3.1) — the
  // root cause of its smaller #concurrent-flows gain.
  auto lb = MiddleboxProfile::load_balancer();
  auto nat = MiddleboxProfile::nat_gateway();
  EXPECT_GT(lb.mean_connection_lifetime, nat.mean_connection_lifetime);
  EXPECT_GT(lb.persistent_fraction, 0.0);
  EXPECT_TRUE(lb.stateful_decap);
}

}  // namespace
}  // namespace nezha::nf
