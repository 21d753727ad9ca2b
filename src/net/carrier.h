// Nezha carrier header: the NSH-like shim (§3.2.1, RFC 8300 in the paper)
// that lets data packets transport the processing inputs that the receiving
// side lacks — session state in TX packets travelling BE→FE, pre-actions in
// RX packets travelling FE→BE, plus notify and stateful-decap info TLVs.
//
// The carrier is a base header followed by TLVs with opaque payloads; the
// Nezha core defines the payload encodings (keeping this layer free of any
// dependency on flow/NF types).
//
// TLV storage is an inline fixed-capacity arena (no heap): the simulated
// datapath attaches at most three small TLVs per packet, so a bounded
// in-object buffer keeps Packet copies and carrier construction
// allocation-free. Oversized or over-count TLV sets are rejected at add()
// and parse() time — they cannot occur on the simulated wire.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>

#include "src/common/result.h"
#include "src/net/bytes.h"

namespace nezha::net {

enum class CarrierTlvType : std::uint16_t {
  kStateSnapshot = 1,  // BE→FE on TX: the session state needed at the FE
  kPreActions = 2,     // FE→BE on RX: bidirectional pre-actions from tables
  kNotify = 3,         // FE→BE notify packet: rule-table-derived state update
  kDecapInfo = 4,      // FE→BE on RX: info lost at FE (e.g. overlay src IP)
  kVnicId = 5,         // which offloaded vNIC this packet belongs to
};

/// Flags in the carrier base header.
struct CarrierFlags {
  bool is_notify = false;   // standalone notify packet (no user payload)
  bool from_frontend = false;  // direction marker for debugging/validation

  bool operator==(const CarrierFlags&) const = default;
};

class CarrierHeader {
 public:
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kBaseSize = 4;  // version, flags, total length
  /// Inline capacity. The datapath attaches ≤3 TLVs (vNIC id + snapshot or
  /// pre-actions + decap info) totalling ≤88 payload bytes. Kept tight on
  /// purpose: Packet is trivially copyable, so every per-hop move memcpys
  /// sizeof(Packet) bytes — arena capacity is paid on every move, not just
  /// when TLVs are present.
  static constexpr std::size_t kMaxTlvs = 4;
  static constexpr std::size_t kArenaCapacity = 112;

  CarrierFlags flags;

  /// Copies `value` into the inline arena. Returns false (and adds nothing)
  /// if TLV count or arena capacity would be exceeded.
  bool add(CarrierTlvType type, std::span<const std::uint8_t> value);
  bool add(CarrierTlvType type, std::initializer_list<std::uint8_t> value) {
    return add(type, std::span<const std::uint8_t>(value.begin(), value.size()));
  }
  /// Reserves `len` arena bytes for a TLV and returns a writable view of them
  /// so fixed-size codecs can encode in place (no intermediate buffer).
  /// Empty span on capacity overflow.
  std::span<std::uint8_t> add_uninit(CarrierTlvType type, std::size_t len);

  /// The payload of the first TLV of `type`; nullopt if absent. The view
  /// aliases this header's inline arena.
  std::optional<std::span<const std::uint8_t>> find(CarrierTlvType type) const;
  bool has(CarrierTlvType type) const { return find(type).has_value(); }

  std::size_t tlv_count() const { return count_; }
  CarrierTlvType tlv_type(std::size_t i) const { return descs_[i].type; }
  std::span<const std::uint8_t> tlv_value(std::size_t i) const {
    return {arena_.data() + descs_[i].offset, descs_[i].len};
  }

  /// Serialized size in bytes (base + sum of TLVs).
  std::size_t wire_size() const;

  void serialize(ByteWriter& w) const;
  static common::Result<CarrierHeader> parse(ByteReader& r);

  bool operator==(const CarrierHeader& other) const;

 private:
  struct TlvDesc {
    CarrierTlvType type = CarrierTlvType::kStateSnapshot;
    std::uint16_t offset = 0;
    std::uint16_t len = 0;
  };

  std::array<TlvDesc, kMaxTlvs> descs_{};
  std::array<std::uint8_t, kArenaCapacity> arena_{};
  std::uint16_t used_ = 0;   // arena bytes consumed
  std::uint8_t count_ = 0;   // TLVs present
};

}  // namespace nezha::net
