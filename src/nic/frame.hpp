// Frames travelling through the simulated hardware.
//
// Simulated frames carry real header bytes (so PTP filters, RSS and the
// DuT's forwarding logic can parse them) shared via shared_ptr: generators
// build one template and send it millions of times without copying.
// The FCS is represented by a validity flag rather than literal trailing
// bytes; the CRC32 math itself is exercised by the proto module and its
// tests.
//
// A payload is parsed once. make_payload() runs proto::classify when the
// bytes are wrapped and caches the result next to them, the way a NIC's
// parser writes the packet type into the RX descriptor (DPDK's
// mbuf->packet_type) and the timestamp unit filters PTP in hardware. Every
// hop — TX and RX PTP filters, Flow Director, RSS, the vswitch, the RPC
// codec — reads Payload::packet_class() instead of re-parsing. This holds
// because a payload's L2–L4 bytes never change after construction: a hop
// that alters headers (the wire's corruption, a vswitch retag) builds a new
// payload. The one in-place writer is rpc::FramePool, which rewrites only
// the L7 RPC header (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "proto/headers.hpp"
#include "proto/packet_view.hpp"

namespace moongen::nic {

/// Frame bytes (excluding the 4-byte FCS) plus their header classification.
/// Read access mirrors a const std::vector<std::uint8_t>.
class Payload {
  struct Key {
    explicit Key() = default;
  };

 public:
  /// Use make_payload(); the key keeps the classification in one place.
  Payload(Key, std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)), class_(proto::classify(bytes_)) {}
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] auto begin() const { return bytes_.begin(); }
  [[nodiscard]] auto end() const { return bytes_.end(); }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  /// proto::classify(bytes()), computed once at construction.
  [[nodiscard]] const std::optional<proto::PacketClass>& packet_class() const { return class_; }

  /// In-place access for rpc::FramePool, which rewrites only bytes at or
  /// past the L7 offset. Anything that changes the L2–L4 headers must build
  /// a new payload instead, or packet_class() goes stale. Frames hold
  /// payloads through a const pointer, so no hop can reach this.
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() { return bytes_; }

 private:
  friend std::shared_ptr<Payload> make_payload(std::vector<std::uint8_t> bytes);

  std::vector<std::uint8_t> bytes_;
  std::optional<proto::PacketClass> class_;
};

/// The only way to build a payload: wraps `bytes` and classifies them once.
inline std::shared_ptr<Payload> make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<Payload>(Payload::Key{}, std::move(bytes));
}

// Member order is deliberate: flow and fcs_valid pack into the tail
// padding, keeping sizeof(Frame) at 40 so per-frame event closures
// ([port, frame]) still fit InlineFunction's 48-byte inline buffer.
struct Frame {
  /// Frame bytes excluding the 4-byte FCS, with their classification.
  std::shared_ptr<const Payload> data;
  /// Generator-assigned sequence number for end-to-end matching.
  std::uint64_t seq = 0;
  /// Departure stamp of the always-on RTT plane (ps; 0 = unstamped). Set
  /// once at first MAC serialization of a valid frame when a plane is
  /// attached — the same payload-stamp idea as the RPC codec, but carried
  /// as frame metadata so the wire bytes (and thus captures, RSS, CRC
  /// behaviour) are untouched. Forwarded copies keep the stamp, so the
  /// receive side measures true end-to-end latency.
  std::uint64_t tx_stamp_ps = 0;
  /// Flow-group label for the RTT plane's per-group histograms (masked by
  /// the plane's group count; 0 is the default group).
  std::uint32_t flow = 0;
  /// False for the deliberately corrupted frames of the CRC-based rate
  /// control (paper Section 8); receivers drop these in hardware.
  bool fcs_valid = true;

  /// Frame size including FCS (the "packet size" of the paper).
  [[nodiscard]] std::size_t frame_size() const { return data->size() + proto::kFcsSize; }
  /// Bytes occupied on the wire: frame + preamble + SFD + IFG.
  [[nodiscard]] std::size_t wire_bytes() const { return frame_size() + proto::kWireOverhead; }
};
static_assert(sizeof(Frame) == 40);

inline Frame make_frame(std::vector<std::uint8_t> bytes, bool fcs_valid = true,
                        std::uint64_t seq = 0) {
  return Frame{.data = make_payload(std::move(bytes)), .seq = seq, .fcs_valid = fcs_valid};
}

/// Builds an opaque filler frame of `wire_len` bytes on the wire (>= 33),
/// used as an invalid gap frame by the software rate control.
///
/// Gap frames are all-zero payloads that differ only in length, and the CRC
/// rate control emits one or more per valid packet — so the payloads are
/// interned: one immutable shared buffer per distinct size, cached
/// per-thread (generators on different TaskSet threads never contend).
inline Frame make_gap_frame(std::size_t wire_len, std::uint64_t seq = 0) {
  const std::size_t data_len =
      wire_len >= proto::kWireOverhead + proto::kFcsSize + 1
          ? wire_len - proto::kWireOverhead - proto::kFcsSize
          : 1;
  thread_local std::vector<std::shared_ptr<const Payload>> cache;
  if (data_len >= cache.size()) cache.resize(data_len + 1);
  auto& slot = cache[data_len];
  if (!slot) slot = make_payload(std::vector<std::uint8_t>(data_len, std::uint8_t{0}));
  return Frame{.data = slot, .seq = seq, .fcs_valid = false};
}

}  // namespace moongen::nic
