#include "nic/rss.hpp"

#include <algorithm>
#include <cstring>

#include "proto/packet_view.hpp"

namespace moongen::nic {

std::uint32_t toeplitz_hash(std::span<const std::uint8_t> input,
                            std::span<const std::uint8_t> key) {
  // The hash XORs, for every set bit i of the input, the 32-bit window of
  // the key starting at bit i.
  std::uint32_t result = 0;
  // Running 32-bit window over the key, shifted left bit by bit.
  std::uint32_t window = static_cast<std::uint32_t>(key[0]) << 24 |
                         static_cast<std::uint32_t>(key[1]) << 16 |
                         static_cast<std::uint32_t>(key[2]) << 8 | key[3];
  std::size_t next_key_byte = 4;
  for (std::uint8_t byte : input) {
    for (int bit = 7; bit >= 0; --bit) {
      if (byte & (1u << bit)) result ^= window;
      // Shift the window left by one, pulling in the next key bit.
      const std::uint8_t next =
          next_key_byte < key.size() ? key[next_key_byte] : 0;
      window = (window << 1) | ((next >> bit) & 1u);
      if (bit == 0) ++next_key_byte;
    }
  }
  return result;
}

RssUnit::RssUnit(int num_queues, RssHashType type, std::span<const std::uint8_t> key)
    : type_(type), key_len_(std::min(key.size(), key_.size())) {
  std::memcpy(key_.data(), key.data(), key_len_);
  // Default indirection: round-robin over the queues, as drivers configure.
  for (std::size_t i = 0; i < kRetaSize; ++i)
    reta_[i] = static_cast<int>(i % static_cast<std::size_t>(num_queues));
}

std::uint32_t RssUnit::hash(const Frame& frame) const {
  const Payload& bytes = *frame.data;
  const auto& pc = bytes.packet_class();
  if (!pc.has_value() || pc->ether_type != proto::EtherType::kIPv4) return 0;
  if (bytes.size() < pc->l4_offset) return 0;

  // Hash input: src IP, dst IP [, src port, dst port] in network order.
  std::uint8_t input[12];
  std::size_t len = 8;
  const auto* ip = reinterpret_cast<const proto::Ipv4Header*>(bytes.data() + pc->l3_offset);
  std::memcpy(input, &ip->src_be, 4);
  std::memcpy(input + 4, &ip->dst_be, 4);

  const bool want_udp = type_ == RssHashType::kIpv4Udp && pc->l4_protocol == proto::IpProtocol::kUdp;
  const bool want_tcp = type_ == RssHashType::kIpv4Tcp && pc->l4_protocol == proto::IpProtocol::kTcp;
  if ((want_udp || want_tcp) && bytes.size() >= pc->l4_offset + 4) {
    std::memcpy(input + 8, bytes.data() + pc->l4_offset, 4);  // both ports
    len = 12;
  }
  return toeplitz_hash({input, len}, {key_.data(), key_len_});
}

int RssUnit::steer(const Frame& frame) const {
  const std::uint32_t h = hash(frame);
  return reta_[h & (kRetaSize - 1)];
}

}  // namespace moongen::nic
