// Connection-level TCP finite-state machine tracked in session state.
//
// This is the vSwitch's middlebox view of a connection (as in conntrack),
// driven by the flags of packets in each direction; it is deliberately
// simpler than an endpoint TCP implementation.
#pragma once

#include <cstdint>

#include "src/flow/direction.h"
#include "src/net/headers.h"

namespace nezha::flow {

enum class TcpFsmState : std::uint8_t {
  kNone = 0,        // no packet seen
  kSynSent = 1,     // SYN observed from the initiator
  kSynReceived = 2, // SYN+ACK observed from the responder
  kEstablished = 3, // final ACK of the handshake observed
  kFinWait = 4,     // one side sent FIN
  kClosing = 5,     // both sides sent FIN
  kClosed = 6,      // handshake-complete connection fully closed
  kReset = 7,       // RST observed
};

class TcpFsm {
 public:
  TcpFsmState state() const { return state_; }
  bool established() const { return state_ == TcpFsmState::kEstablished; }
  bool closed() const {
    return state_ == TcpFsmState::kClosed || state_ == TcpFsmState::kReset;
  }
  /// True while the connection has not completed its handshake — such
  /// sessions get the short SYN aging time (§7.3).
  bool embryonic() const {
    return state_ == TcpFsmState::kNone || state_ == TcpFsmState::kSynSent ||
           state_ == TcpFsmState::kSynReceived;
  }

  /// Advances the FSM for a packet with `flags` travelling in direction
  /// `dir` relative to the session initiator (kTx = initiator→responder).
  void on_packet(Direction dir, net::TcpFlags flags);

 private:
  TcpFsmState state_ = TcpFsmState::kNone;
  bool fin_from_initiator_ = false;
  bool fin_from_responder_ = false;
};

}  // namespace nezha::flow
