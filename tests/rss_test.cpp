// Tests for RSS (Toeplitz hashing) and Flow Director steering.
#include <gtest/gtest.h>

#include <map>

#include "core/rate_control.hpp"
#include "nic/flow_director.hpp"
#include "nic/rss.hpp"
#include "proto/packet_view.hpp"
#include "sim_testbed.hpp"

namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace mc = moongen::core;

namespace {

/// Microsoft's RSS verification-suite input builder: src addr, dst addr,
/// src port, dst port, all in network byte order.
std::vector<std::uint8_t> rss_input(mp::IPv4Address src, mp::IPv4Address dst,
                                    std::uint16_t sport = 0, std::uint16_t dport = 0,
                                    bool with_ports = false) {
  std::vector<std::uint8_t> input;
  for (int shift = 24; shift >= 0; shift -= 8)
    input.push_back(static_cast<std::uint8_t>(src.value >> shift));
  for (int shift = 24; shift >= 0; shift -= 8)
    input.push_back(static_cast<std::uint8_t>(dst.value >> shift));
  if (with_ports) {
    input.push_back(static_cast<std::uint8_t>(sport >> 8));
    input.push_back(static_cast<std::uint8_t>(sport & 0xff));
    input.push_back(static_cast<std::uint8_t>(dport >> 8));
    input.push_back(static_cast<std::uint8_t>(dport & 0xff));
  }
  return input;
}

mn::Frame udp_flow_frame(mp::IPv4Address src, mp::IPv4Address dst, std::uint16_t sport,
                         std::uint16_t dport) {
  std::vector<std::uint8_t> bytes(60, 0);
  mp::UdpPacketView view{{bytes.data(), bytes.size()}};
  mp::UdpFillOptions opts;
  opts.packet_length = 60;
  opts.ip_src = src;
  opts.ip_dst = dst;
  opts.udp_src = sport;
  opts.udp_dst = dport;
  view.fill(opts);
  return mn::make_frame(std::move(bytes));
}

}  // namespace

// ---------------------------------------------------------------------------
// Toeplitz hash — Microsoft verification vectors
// ---------------------------------------------------------------------------

TEST(Toeplitz, MicrosoftVectorIpv4Only) {
  // Destination 161.142.100.80, source 66.9.149.187 -> 0x323e8fc2.
  const auto input =
      rss_input(mp::IPv4Address{66, 9, 149, 187}, mp::IPv4Address{161, 142, 100, 80});
  EXPECT_EQ(mn::toeplitz_hash(input), 0x323e8fc2u);
}

TEST(Toeplitz, MicrosoftVectorWithPorts) {
  // Same pair with ports 2794 -> 1766 -> 0x51ccc178.
  const auto input = rss_input(mp::IPv4Address{66, 9, 149, 187},
                               mp::IPv4Address{161, 142, 100, 80}, 2794, 1766, true);
  EXPECT_EQ(mn::toeplitz_hash(input), 0x51ccc178u);
}

TEST(Toeplitz, SecondMicrosoftVector) {
  // Destination 65.69.140.83, source 199.92.111.2; with-ports value
  // 0xc626b0ea is from the Microsoft verification suite, the IP-only value
  // cross-checked against an independent reference implementation.
  const auto ip_only =
      rss_input(mp::IPv4Address{199, 92, 111, 2}, mp::IPv4Address{65, 69, 140, 83});
  EXPECT_EQ(mn::toeplitz_hash(ip_only), 0xd718262au);
  const auto with_ports = rss_input(mp::IPv4Address{199, 92, 111, 2},
                                    mp::IPv4Address{65, 69, 140, 83}, 14230, 4739, true);
  EXPECT_EQ(mn::toeplitz_hash(with_ports), 0xc626b0eau);
}

TEST(Toeplitz, SensitiveToEveryBit) {
  auto input = rss_input(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2});
  const auto base = mn::toeplitz_hash(input);
  for (std::size_t byte = 0; byte < input.size(); ++byte) {
    input[byte] ^= 0x01;
    EXPECT_NE(mn::toeplitz_hash(input), base) << "byte " << byte;
    input[byte] ^= 0x01;
  }
}

// ---------------------------------------------------------------------------
// RssUnit
// ---------------------------------------------------------------------------

TEST(RssUnit, HashMatchesRawToeplitzOnFrames) {
  mn::RssUnit rss(4, mn::RssHashType::kIpv4Udp);
  const auto frame = udp_flow_frame(mp::IPv4Address{66, 9, 149, 187},
                                    mp::IPv4Address{161, 142, 100, 80}, 2794, 1766);
  EXPECT_EQ(rss.hash(frame), 0x51ccc178u);
  // Steering goes through the 128-entry indirection table.
  EXPECT_EQ(rss.steer(frame), rss.indirection(0x51ccc178u & 0x7f));
}

TEST(RssUnit, SameFlowSameQueue) {
  mn::RssUnit rss(8);
  const auto a = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2}, 1, 2);
  const auto b = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2}, 1, 2);
  EXPECT_EQ(rss.steer(a), rss.steer(b));
}

TEST(RssUnit, DistributesFlowsAcrossQueues) {
  mn::RssUnit rss(4);
  std::map<int, int> counts;
  for (std::uint32_t flow = 0; flow < 512; ++flow) {
    const auto frame =
        udp_flow_frame(mp::IPv4Address{10, 0, 0, 1} + flow, mp::IPv4Address{10, 1, 0, 1},
                       static_cast<std::uint16_t>(1000 + flow), 80);
    counts[rss.steer(frame)]++;
  }
  ASSERT_EQ(counts.size(), 4u);  // all queues used
  for (const auto& [queue, count] : counts) {
    EXPECT_GT(count, 512 / 4 / 2) << "queue " << queue;  // roughly balanced
    EXPECT_LT(count, 512 / 4 * 2) << "queue " << queue;
  }
}

TEST(RssUnit, NonIpGoesToQueueZero) {
  mn::RssUnit rss(4);
  const auto frame = mc::make_ptp_ethernet_frame(60);
  EXPECT_EQ(rss.steer(frame), 0);
}

TEST(RssUnit, RetaRetargeting) {
  mn::RssUnit rss(4);
  const auto frame = udp_flow_frame(mp::IPv4Address{10, 0, 0, 9}, mp::IPv4Address{10, 0, 0, 8},
                                    1234, 80);
  const auto slot = rss.hash(frame) & 0x7f;
  rss.set_indirection(slot, 3);
  EXPECT_EQ(rss.steer(frame), 3);
}

// ---------------------------------------------------------------------------
// Flow Director
// ---------------------------------------------------------------------------

TEST(FlowDirector, ExactMatchSteersToQueue) {
  mn::FlowDirector fd;
  fd.add_rule({.dst_port = 319, .queue = 2});
  const auto ptp = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2},
                                  1000, 319);
  const auto other = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2},
                                    1000, 80);
  auto v1 = fd.match(ptp);
  EXPECT_TRUE(v1.matched);
  EXPECT_EQ(v1.queue, 2);
  EXPECT_FALSE(fd.match(other).matched);
}

TEST(FlowDirector, FirstMatchWins) {
  mn::FlowDirector fd;
  fd.add_rule({.dst_port = 80, .queue = 1});
  fd.add_rule({.src_ip = mp::IPv4Address{10, 0, 0, 1}, .queue = 2});
  const auto frame = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2},
                                    1000, 80);
  EXPECT_EQ(fd.match(frame).queue, 1);
}

TEST(FlowDirector, DropAction) {
  mn::FlowDirector fd;
  fd.add_rule({.protocol = mp::IpProtocol::kUdp, .drop = true});
  const auto frame = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2},
                                    1, 2);
  auto v = fd.match(frame);
  EXPECT_TRUE(v.matched);
  EXPECT_TRUE(v.drop);
}

TEST(FlowDirector, EmptyTableNeverMatches) {
  mn::FlowDirector fd;
  const auto frame = udp_flow_frame(mp::IPv4Address{10, 0, 0, 1}, mp::IPv4Address{10, 0, 0, 2},
                                    1, 2);
  EXPECT_FALSE(fd.match(frame).matched);
  EXPECT_EQ(fd.matches(), 0u);
  fd.add_rule({.protocol = mp::IpProtocol::kUdp, .queue = 1});
  EXPECT_TRUE(fd.match(frame).matched);
  EXPECT_EQ(fd.matches(), 1u);
  fd.clear();
  const auto v = fd.match(frame);
  EXPECT_FALSE(v.matched);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.queue, 0);
  EXPECT_EQ(fd.matches(), 1u);
}

// ---------------------------------------------------------------------------
// Steering integration on a simulated port
// ---------------------------------------------------------------------------

TEST(PortSteering, FlowDirectorThenRss) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.enable_rss(4);
  bed.b.flow_director().add_rule({.dst_port = 319, .queue = 3});

  // PTP flow pinned by Flow Director; two other flows spread by RSS.
  bed.a.tx_queue(0).post(udp_flow_frame(mp::IPv4Address{10, 0, 0, 1},
                                        mp::IPv4Address{10, 0, 0, 2}, 5, 319));
  bed.a.tx_queue(0).post(udp_flow_frame(mp::IPv4Address{10, 7, 1, 1},
                                        mp::IPv4Address{10, 0, 0, 2}, 1111, 80));
  bed.events.run();
  // Where RSS would put the non-PTP flow:
  mn::RssUnit reference(4);
  const auto rss_queue = reference.steer(udp_flow_frame(
      mp::IPv4Address{10, 7, 1, 1}, mp::IPv4Address{10, 0, 0, 2}, 1111, 80));
  // Queue 3 holds the Flow-Director-pinned frame (plus the RSS one if the
  // hash happens to land there too).
  EXPECT_EQ(bed.b.rx_queue(3).pending(), rss_queue == 3 ? 2u : 1u);
  if (rss_queue != 3) {
    EXPECT_EQ(bed.b.rx_queue(rss_queue).pending(), 1u);
  }
}

TEST(PortSteering, FlowDirectorHardwareDrop) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.flow_director().add_rule({.dst_port = 53, .drop = true});
  bed.a.tx_queue(0).post(udp_flow_frame(mp::IPv4Address{10, 0, 0, 1},
                                        mp::IPv4Address{10, 0, 0, 2}, 1, 53));
  bed.a.tx_queue(0).post(udp_flow_frame(mp::IPv4Address{10, 0, 0, 1},
                                        mp::IPv4Address{10, 0, 0, 2}, 1, 54));
  bed.events.run();
  EXPECT_EQ(bed.b.rx_queue(0).pending(), 1u);  // only the non-filtered one
  EXPECT_EQ(bed.b.stats().rx_packets, 2u);     // both counted as received
}
