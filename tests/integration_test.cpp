// Cross-module integration tests: full generator -> wire -> DuT -> capture
// chains.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "capture/pcap.hpp"
#include "core/rate_control.hpp"
#include "dut/forwarder.hpp"
#include "proto/packet_view.hpp"
#include "wire/link.hpp"

namespace cap = moongen::capture;
namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace ms = moongen::sim;
namespace mw = moongen::wire;

namespace {

mn::Frame udp96() {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = 5;
  return mc::make_udp_frame(opts);
}

// Offset of the 64-bit sequence number stamped into the UDP payload.
constexpr std::size_t kSeqOffset = mp::UdpPacketView::kHeaderStack;

}  // namespace

// ---------------------------------------------------------------------------
// Capture and loss accounting through the DuT
// ---------------------------------------------------------------------------

TEST(Integration, SequenceTrackedCaptureThroughDut) {
  const auto path = std::filesystem::temp_directory_path() / "moongen_integration.pcap";
  ms::EventQueue events;
  mn::Port gen(events, mn::intel_x540(), 10'000, 921);
  mn::Port dut_in(events, mn::intel_x540(), 10'000, 922);
  mn::Port dut_out(events, mn::intel_x540(), 10'000, 923);
  mn::Port sink(events, mn::intel_x540(), 10'000, 924);
  mw::Link l1(gen, dut_in, mw::cat5e_10gbaset(2.0), 925);
  mw::Link l2(dut_out, sink, mw::cat5e_10gbaset(2.0), 926);
  md::Forwarder fwd(events, dut_in, 0, dut_out, 0);

  {
    cap::PcapWriter writer(path.string());
    cap::capture_rx(sink, 0, writer);
    sink.rx_queue(0).set_store(false);

    // Sequence-stamped stream: each valid frame gets the next number.
    auto& q = gen.tx_queue(0);
    q.set_rate_mpps(1.0, 100);
    q.set_refill([seq = std::uint64_t{0}]() mutable {
      auto bytes = udp96().data->bytes();  // copy, then stamp
      std::memcpy(bytes.data() + kSeqOffset, &seq, sizeof seq);
      ++seq;
      return mn::make_frame(std::move(bytes));
    });
    events.run_until(20 * ms::kPsPerMs);
    EXPECT_GT(writer.packets_written(), 15'000u);
  }

  // Offline: replay the capture — everything the DuT forwarded arrived in
  // order, without loss or duplicates.
  std::uint64_t expected = 0;
  {
    cap::PcapReader reader(path.string());
    while (auto rec = reader.next()) {
      ASSERT_GE(rec->data.size(), kSeqOffset + sizeof expected);
      std::uint64_t seq = 0;
      std::memcpy(&seq, rec->data.data() + kSeqOffset, sizeof seq);
      ASSERT_EQ(seq, expected);
      ++expected;
    }
  }
  EXPECT_GT(expected, 15'000u);
  std::filesystem::remove(path);
}

TEST(Integration, OverloadLossMatchesDutRingDrops) {
  ms::EventQueue events;
  mn::Port gen(events, mn::intel_x540(), 10'000, 931);
  mn::Port dut_in(events, mn::intel_x540(), 10'000, 932);
  mn::Port dut_out(events, mn::intel_x540(), 10'000, 933);
  mn::Port sink(events, mn::intel_x540(), 10'000, 934);
  mw::Link l1(gen, dut_in, mw::cat5e_10gbaset(2.0), 935);
  mw::Link l2(dut_out, sink, mw::cat5e_10gbaset(2.0), 936);
  md::Forwarder fwd(events, dut_in, 0, dut_out, 0);
  sink.rx_queue(0).set_store(false);

  auto& q = gen.tx_queue(0);
  q.set_rate_mpps(4.0, 100);  // far beyond the ~1.94 Mpps DuT capacity
  q.set_refill([] { return udp96(); });
  events.run_until(50 * ms::kPsPerMs);

  const std::uint64_t sent = gen.stats().tx_packets;
  const std::uint64_t received = sink.stats().rx_packets;
  ASSERT_GT(sent, received);
  const double lost = static_cast<double>(sent - received);
  EXPECT_GT(lost, 10'000.0);  // overload drops measured end to end
  // Loss accounting agrees with the DuT's ring-drop counter (up to frames
  // still in flight at the end of the run).
  EXPECT_NEAR(lost, static_cast<double>(dut_in.stats().rx_ring_drops), 5'000.0);
}
