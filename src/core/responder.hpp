// Protocol responder: answers ARP requests and ICMP echo requests.
//
// MoonGen "can also be used for arbitrary packet processing tasks" and
// ships ARP/ICMP handling with its example scripts (Sections 3.4, 10);
// tests that respond to incoming traffic in real time are explicitly part
// of the design. This responder gives a simulated port a minimal host
// personality: it replies to ARP who-has queries for its address and
// echoes ICMP pings, which is what a load generator needs so that routers
// and L3 devices under test will actually forward traffic to it.
#pragma once

#include <cstdint>

#include "nic/port.hpp"
#include "proto/headers.hpp"

namespace moongen::core {

class Responder {
 public:
  struct Config {
    proto::IPv4Address ip;
    proto::MacAddress mac;
    bool answer_arp = true;
    bool answer_icmp_echo = true;
    /// Consume the RX queue (default): packets are handled in the callback
    /// and not stored, so an unread ring cannot fill up. Set false when the
    /// application also drains the queue itself.
    bool consume = true;
    int rx_queue = 0;
    int tx_queue = 0;
  };

  /// Attaches to the port's RX queue callback. Frames that are not handled
  /// are counted and ignored (they stay in the RX ring for the
  /// application).
  Responder(nic::Port& port, Config config);

  [[nodiscard]] std::uint64_t arp_replies() const { return arp_replies_; }
  [[nodiscard]] std::uint64_t echo_replies() const { return echo_replies_; }
  [[nodiscard]] std::uint64_t ignored() const { return ignored_; }

 private:
  void handle(const nic::RxQueueModel::Entry& entry);
  bool try_arp(const std::vector<std::uint8_t>& bytes);
  bool try_icmp(const nic::Payload& bytes);

  nic::Port& port_;
  Config cfg_;
  std::uint64_t arp_replies_ = 0;
  std::uint64_t echo_replies_ = 0;
  std::uint64_t ignored_ = 0;
};

/// Builds an ARP who-has request frame (for tests and scripts).
nic::Frame make_arp_request(proto::MacAddress sender_mac, proto::IPv4Address sender_ip,
                            proto::IPv4Address target_ip);

/// Builds an ICMP echo-request frame with `payload_size` payload bytes.
nic::Frame make_icmp_echo_request(proto::MacAddress src_mac, proto::MacAddress dst_mac,
                                  proto::IPv4Address src_ip, proto::IPv4Address dst_ip,
                                  std::uint16_t ident, std::uint16_t seq,
                                  std::size_t payload_size = 32);

}  // namespace moongen::core
