#include "core/responder.hpp"

#include <cstring>

#include "proto/checksum.hpp"
#include "proto/packet_view.hpp"

namespace moongen::core {

namespace {

constexpr std::size_t kArpFrameSize = 60;  // padded to Ethernet minimum

}  // namespace

Responder::Responder(nic::Port& port, Config config) : port_(port), cfg_(config) {
  if (cfg_.consume) port.rx_queue(cfg_.rx_queue).set_store(false);
  port.rx_queue(cfg_.rx_queue)
      .set_callback([this](const nic::RxQueueModel::Entry& entry) { handle(entry); });
}

void Responder::handle(const nic::RxQueueModel::Entry& entry) {
  const nic::Payload& payload = *entry.frame.data;
  if (cfg_.answer_arp && try_arp(payload.bytes())) return;
  if (cfg_.answer_icmp_echo && try_icmp(payload)) return;
  ++ignored_;
}

bool Responder::try_arp(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < sizeof(proto::EthernetHeader) + sizeof(proto::ArpHeader)) return false;
  const auto* eth = reinterpret_cast<const proto::EthernetHeader*>(bytes.data());
  if (eth->ether_type() != proto::EtherType::kArp) return false;
  const auto* arp =
      reinterpret_cast<const proto::ArpHeader*>(bytes.data() + sizeof(proto::EthernetHeader));
  if (arp->oper() != proto::ArpHeader::kOperRequest) return false;
  if (arp->target_ip() != cfg_.ip) return false;

  // Craft the reply: swap roles, announce our MAC.
  std::vector<std::uint8_t> reply(kArpFrameSize, 0);
  auto* reth = reinterpret_cast<proto::EthernetHeader*>(reply.data());
  reth->dst = arp->sha;
  reth->src = cfg_.mac;
  reth->set_ether_type(proto::EtherType::kArp);
  auto* rarp =
      reinterpret_cast<proto::ArpHeader*>(reply.data() + sizeof(proto::EthernetHeader));
  rarp->set_ethernet_ipv4_defaults();
  rarp->oper_be = proto::hton16(proto::ArpHeader::kOperReply);
  rarp->sha = cfg_.mac;
  rarp->set_sender_ip(cfg_.ip);
  rarp->tha = arp->sha;
  rarp->tpa_be = arp->spa_be;

  port_.tx_queue(cfg_.tx_queue).post(nic::make_frame(std::move(reply)));
  ++arp_replies_;
  return true;
}

bool Responder::try_icmp(const nic::Payload& bytes) {
  const auto& pc = bytes.packet_class();
  if (!pc.has_value() || pc->l4_protocol != proto::IpProtocol::kIcmp) return false;
  if (bytes.size() < pc->l4_offset + sizeof(proto::IcmpHeader)) return false;
  const auto* ip = reinterpret_cast<const proto::Ipv4Header*>(bytes.data() + pc->l3_offset);
  if (ip->dst() != cfg_.ip) return false;
  const auto* icmp = reinterpret_cast<const proto::IcmpHeader*>(bytes.data() + pc->l4_offset);
  if (icmp->type != proto::IcmpHeader::kEchoRequest) return false;

  // Echo reply: copy the packet, swap addresses, flip the type, re-checksum.
  std::vector<std::uint8_t> reply(bytes.bytes());
  auto* reth = reinterpret_cast<proto::EthernetHeader*>(reply.data());
  const auto* eth = reinterpret_cast<const proto::EthernetHeader*>(bytes.data());
  reth->dst = eth->src;
  reth->src = cfg_.mac;
  auto* rip = reinterpret_cast<proto::Ipv4Header*>(reply.data() + pc->l3_offset);
  rip->set_src(cfg_.ip);
  rip->set_dst(ip->src());
  rip->ttl = 64;
  proto::update_ipv4_checksum(*rip);
  auto* ricmp = reinterpret_cast<proto::IcmpHeader*>(reply.data() + pc->l4_offset);
  ricmp->type = proto::IcmpHeader::kEchoReply;
  ricmp->checksum_be = 0;
  ricmp->checksum_be =
      proto::internet_checksum({reply.data() + pc->l4_offset, reply.size() - pc->l4_offset});

  port_.tx_queue(cfg_.tx_queue).post(nic::make_frame(std::move(reply)));
  ++echo_replies_;
  return true;
}

nic::Frame make_arp_request(proto::MacAddress sender_mac, proto::IPv4Address sender_ip,
                            proto::IPv4Address target_ip) {
  std::vector<std::uint8_t> bytes(kArpFrameSize, 0);
  auto* eth = reinterpret_cast<proto::EthernetHeader*>(bytes.data());
  eth->dst = proto::kBroadcastMac;
  eth->src = sender_mac;
  eth->set_ether_type(proto::EtherType::kArp);
  auto* arp =
      reinterpret_cast<proto::ArpHeader*>(bytes.data() + sizeof(proto::EthernetHeader));
  arp->set_ethernet_ipv4_defaults();
  arp->oper_be = proto::hton16(proto::ArpHeader::kOperRequest);
  arp->sha = sender_mac;
  arp->set_sender_ip(sender_ip);
  arp->tha = proto::MacAddress{};  // unknown
  arp->set_target_ip(target_ip);
  return nic::make_frame(std::move(bytes));
}

nic::Frame make_icmp_echo_request(proto::MacAddress src_mac, proto::MacAddress dst_mac,
                                  proto::IPv4Address src_ip, proto::IPv4Address dst_ip,
                                  std::uint16_t ident, std::uint16_t seq,
                                  std::size_t payload_size) {
  const std::size_t total = sizeof(proto::EthernetHeader) + sizeof(proto::Ipv4Header) +
                            sizeof(proto::IcmpHeader) + payload_size;
  std::vector<std::uint8_t> bytes(std::max<std::size_t>(total, 60), 0);
  auto* eth = reinterpret_cast<proto::EthernetHeader*>(bytes.data());
  eth->dst = dst_mac;
  eth->src = src_mac;
  eth->set_ether_type(proto::EtherType::kIPv4);
  auto* ip =
      reinterpret_cast<proto::Ipv4Header*>(bytes.data() + sizeof(proto::EthernetHeader));
  ip->set_defaults();
  ip->protocol = static_cast<std::uint8_t>(proto::IpProtocol::kIcmp);
  ip->set_total_length(static_cast<std::uint16_t>(bytes.size() - sizeof(proto::EthernetHeader)));
  ip->set_src(src_ip);
  ip->set_dst(dst_ip);
  proto::update_ipv4_checksum(*ip);
  const std::size_t icmp_off = sizeof(proto::EthernetHeader) + sizeof(proto::Ipv4Header);
  auto* icmp = reinterpret_cast<proto::IcmpHeader*>(bytes.data() + icmp_off);
  icmp->type = proto::IcmpHeader::kEchoRequest;
  icmp->code = 0;
  icmp->identifier_be = proto::hton16(ident);
  icmp->sequence_be = proto::hton16(seq);
  for (std::size_t i = 0; i < payload_size; ++i)
    bytes[icmp_off + sizeof(proto::IcmpHeader) + i] = static_cast<std::uint8_t>('a' + i % 26);
  icmp->checksum_be = 0;
  icmp->checksum_be =
      proto::internet_checksum({bytes.data() + icmp_off, bytes.size() - icmp_off});
  return nic::make_frame(std::move(bytes));
}

}  // namespace moongen::core
