// Packet direction relative to the vNIC: TX (egress, VM → network) and
// RX (ingress, network → VM). Nezha's workflows differ per direction
// (§3.2.1): TX packets pick up state at the BE first, RX packets pick up
// pre-actions at the FE first.
#pragma once

#include <cstdint>

namespace nezha::flow {

enum class Direction : std::uint8_t { kTx = 0, kRx = 1 };

inline Direction reverse(Direction d) {
  return d == Direction::kTx ? Direction::kRx : Direction::kTx;
}

}  // namespace nezha::flow
