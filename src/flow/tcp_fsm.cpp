#include "src/flow/tcp_fsm.h"

namespace nezha::flow {

void TcpFsm::on_packet(Direction dir, net::TcpFlags flags) {
  if (flags.rst) {
    state_ = TcpFsmState::kReset;
    return;
  }
  switch (state_) {
    case TcpFsmState::kNone:
      if (flags.syn && !flags.ack) state_ = TcpFsmState::kSynSent;
      // A non-SYN first packet leaves the FSM at kNone (e.g. mid-flow pickup
      // after failover); data packets then promote it below.
      else if (flags.ack) state_ = TcpFsmState::kEstablished;
      break;
    case TcpFsmState::kSynSent:
      if (flags.syn && flags.ack && dir == Direction::kRx) {
        state_ = TcpFsmState::kSynReceived;
      }
      break;
    case TcpFsmState::kSynReceived:
      if (flags.ack && !flags.syn) state_ = TcpFsmState::kEstablished;
      break;
    case TcpFsmState::kEstablished:
      if (flags.fin) {
        state_ = TcpFsmState::kFinWait;
        if (dir == Direction::kTx) fin_from_initiator_ = true;
        else fin_from_responder_ = true;
      }
      break;
    case TcpFsmState::kFinWait:
      if (flags.fin) {
        if (dir == Direction::kTx) fin_from_initiator_ = true;
        else fin_from_responder_ = true;
        if (fin_from_initiator_ && fin_from_responder_) {
          state_ = TcpFsmState::kClosing;
        }
      }
      break;
    case TcpFsmState::kClosing:
      if (flags.ack && !flags.fin) state_ = TcpFsmState::kClosed;
      break;
    case TcpFsmState::kClosed:
    case TcpFsmState::kReset:
      break;
  }
}

}  // namespace nezha::flow
