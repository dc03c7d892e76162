// Cross-module integration tests: full generator -> wire -> DuT -> capture
// chains, including the switch work-around of paper Section 8.4.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "capture/pcap.hpp"
#include "core/flow_tracker.hpp"
#include "core/rate_control.hpp"
#include "core/responder.hpp"
#include "core/timestamper.hpp"
#include "dut/forwarder.hpp"
#include "proto/packet_view.hpp"
#include "sim_testbed.hpp"
#include "wire/recorder.hpp"
#include "wire/switch.hpp"

namespace cap = moongen::capture;
namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace ms = moongen::sim;
namespace mw = moongen::wire;

namespace {

mn::Frame udp96(std::uint8_t ptp_type = 5) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = 96;
  opts.ptp_payload = true;
  opts.ptp_message_type = ptp_type;
  return mc::make_udp_frame(opts);
}

}  // namespace

// ---------------------------------------------------------------------------
// Section 8.4 work-around: a switch strips invalid frames and multiplexes
// several generator streams before the DuT.
// ---------------------------------------------------------------------------

TEST(Integration, SwitchWorkaroundPreservesPatternAndRate) {
  ms::EventQueue events;
  mn::Port gen1(events, mn::intel_x540(), 10'000, 901);
  mn::Port gen2(events, mn::intel_x540(), 10'000, 902);
  mn::Port dst(events, mn::intel_x540(), 10'000, 903);
  mw::StoreForwardSwitch sw(events, 10'000);
  gen1.set_tx_sink(&sw.add_input(10'000));
  gen2.set_tx_sink(&sw.add_input(10'000));
  sw.set_output(dst, mw::cat5e_10gbaset(2.0));
  dst.rx_queue(0).set_store(false);
  std::uint64_t received = 0;
  dst.rx_queue(0).set_callback([&](const mn::RxQueueModel::Entry&) { ++received; });

  // Two overlaid Poisson streams, each 0.5 Mpps, CRC-paced at line rate.
  auto g1 = mc::SimLoadGen::crc_paced(gen1.tx_queue(0), udp96(),
                                      std::make_unique<mc::PoissonPattern>(0.5, 1), 10'000);
  auto g2 = mc::SimLoadGen::crc_paced(gen2.tx_queue(0), udp96(),
                                      std::make_unique<mc::PoissonPattern>(0.5, 2), 10'000);
  events.run_until(50 * ms::kPsPerMs);

  // All invalid frames died in the switch; the output carries the sum of
  // the two valid streams.
  EXPECT_GT(sw.dropped_invalid(), 10'000u);
  EXPECT_EQ(dst.stats().crc_errors, 0u);
  EXPECT_NEAR(static_cast<double>(received) / 0.05, 1e6, 3e4);  // ~1 Mpps combined
}

TEST(Integration, SwitchedCrcTrafficThroughDutMatchesDirect) {
  // Latency through the DuT must not depend on whether the invalid frames
  // are dropped by the DuT's NIC or stripped earlier by a switch.
  auto run = [](bool through_switch) {
    ms::EventQueue events;
    mn::Port gen(events, mn::intel_x540(), 10'000, 911);
    mn::Port dut_in(events, mn::intel_x540(), 10'000, 912);
    mn::Port dut_out(events, mn::intel_x540(), 10'000, 913);
    mn::Port sink(events, mn::intel_x540(), 10'000, 914);
    std::unique_ptr<mw::Link> direct;
    std::unique_ptr<mw::StoreForwardSwitch> sw;
    if (through_switch) {
      sw = std::make_unique<mw::StoreForwardSwitch>(events, 10'000);
      gen.set_tx_sink(&sw->add_input(10'000));
      sw->set_output(dut_in, mw::cat5e_10gbaset(2.0));
    } else {
      direct = std::make_unique<mw::Link>(gen, dut_in, mw::cat5e_10gbaset(2.0), 915);
    }
    mw::Link out_link(dut_out, sink, mw::cat5e_10gbaset(2.0), 916);
    md::Forwarder fwd(events, dut_in, 0, dut_out, 0);
    sink.rx_queue(0).set_store(false);

    auto gen_load = mc::SimLoadGen::crc_paced(gen.tx_queue(0), udp96(),
                                              std::make_unique<mc::CbrPattern>(0.5), 10'000);
    mc::TimestamperConfig cfg;
    cfg.sample_interval_ps = 100 * ms::kPsPerUs;
    cfg.hist_bin_ps = 100'000;
    mc::Timestamper ts(events, gen, *gen_load, udp96(0), sink, cfg);
    ts.start();
    events.run_until(100 * ms::kPsPerMs);
    ts.stop();
    EXPECT_GT(ts.samples(), 300u);
    return ts.latency_ns().mean();
  };
  const double direct_ns = run(false);
  const double switched_ns = run(true);
  // The switch adds its store-and-forward + forwarding latency; beyond
  // that constant shift the DuT behaviour is the same.
  EXPECT_GT(switched_ns, direct_ns);
  EXPECT_LT(switched_ns - direct_ns, 5'000.0 + 2'000.0);  // ~few us constant
}

// ---------------------------------------------------------------------------
// Capture + sequence tracking through the DuT
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

    // Sequence-stamped stream: each valid frame gets a fresh marker.
    auto stamper = std::make_shared<mc::SequenceStamper>(1, mp::UdpPacketView::kHeaderStack);
    auto& q = gen.tx_queue(0);
    q.set_rate_mpps(1.0, 100);
    q.set_refill([stamper] {
      auto frame = udp96();
      auto bytes = frame.data->bytes();  // copy, then stamp
      stamper->stamp(bytes.data());
      return mn::make_frame(std::move(bytes));
    });
    events.run_until(20 * ms::kPsPerMs);
    EXPECT_GT(writer.packets_written(), 15'000u);
  }

  // Offline: replay the capture through the tracker — everything the DuT
  // forwarded arrived in order without loss.
  mc::SequenceTracker tracker;
  cap::PcapReader reader(path.string());
  while (auto rec = reader.next()) {
    tracker.feed(rec->data.data(), rec->data.size(), mp::UdpPacketView::kHeaderStack);
  }
  const auto report = tracker.report();
  EXPECT_GT(report.unique, 15'000u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.reordered, 0u);
  EXPECT_EQ(report.duplicates, 0u);
  std::filesystem::remove(path);
}

TEST(Integration, SequenceTrackerSeesOverloadLoss) {
  ms::EventQueue events;
  mn::Port gen(events, mn::intel_x540(), 10'000, 931);
  mn::Port dut_in(events, mn::intel_x540(), 10'000, 932);
  mn::Port dut_out(events, mn::intel_x540(), 10'000, 933);
  mn::Port sink(events, mn::intel_x540(), 10'000, 934);
  mw::Link l1(gen, dut_in, mw::cat5e_10gbaset(2.0), 935);
  mw::Link l2(dut_out, sink, mw::cat5e_10gbaset(2.0), 936);
  md::Forwarder fwd(events, dut_in, 0, dut_out, 0);

  mc::SequenceTracker tracker;
  sink.rx_queue(0).set_store(false);
  sink.rx_queue(0).set_callback([&](const mn::RxQueueModel::Entry& e) {
    tracker.feed(e.frame.data->data(), e.frame.data->size(), mp::UdpPacketView::kHeaderStack);
  });

  auto stamper = std::make_shared<mc::SequenceStamper>(1, mp::UdpPacketView::kHeaderStack);
  auto& q = gen.tx_queue(0);
  q.set_rate_mpps(4.0, 100);  // far beyond the ~1.94 Mpps DuT capacity
  q.set_refill([stamper] {
    auto frame = udp96();
    auto bytes = frame.data->bytes();
    stamper->stamp(bytes.data());
    return mn::make_frame(std::move(bytes));
  });
  events.run_until(50 * ms::kPsPerMs);

  const auto report = tracker.report();
  EXPECT_GT(report.lost, 10'000u);  // overload drops measured end to end
  EXPECT_EQ(report.duplicates, 0u);
  // Loss accounting agrees with the DuT's ring-drop counter (up to frames
  // still in flight at the end of the run).
  const double ring_drops = static_cast<double>(dut_in.stats().rx_ring_drops);
  EXPECT_NEAR(static_cast<double>(report.lost), ring_drops, 5'000.0);
}

// ---------------------------------------------------------------------------
// Responder under load
// ---------------------------------------------------------------------------

TEST(Integration, ArpResolutionWhileUnderLoad) {
  moongen::test::TenGbeFiberBed bed;
  mw::Link reverse(bed.b, bed.a, mw::fiber_om3(2.0), 941);
  mc::Responder responder(bed.b, {.ip = mp::IPv4Address{10, 0, 0, 2},
                                  .mac = mp::MacAddress::from_uint64(2)});

  // Queue 0 carries 2 Mpps of load; queue 1 sends an ARP request mid-run.
  auto& load_q = bed.a.tx_queue(0);
  load_q.set_rate_mpps(2.0, 100);
  auto gen = mc::SimLoadGen::hardware_paced(load_q, udp96());
  bed.events.schedule_at(5 * ms::kPsPerMs, [&] {
    bed.a.tx_queue(1).post(mc::make_arp_request(mp::MacAddress::from_uint64(1),
                                                mp::IPv4Address{10, 0, 0, 1},
                                                mp::IPv4Address{10, 0, 0, 2}));
  });
  bed.events.run_until(10 * ms::kPsPerMs);

  EXPECT_EQ(responder.arp_replies(), 1u);
  EXPECT_GT(responder.ignored(), 5'000u);  // the load packets
  const auto entries = bed.a.rx_queue(0).drain();
  ASSERT_EQ(entries.size(), 1u);  // the reply came back through the load
}
