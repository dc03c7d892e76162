// Tests for the NIC port model: TX serialization, DMA timing, hardware
// rate control, PTP timestamping, CRC hardware drop, RX rings.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/rate_control.hpp"
#include "nic/chip.hpp"
#include "nic/port.hpp"
#include "nic/throughput_model.hpp"
#include "sim_testbed.hpp"

namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mc = moongen::core;
using moongen::test::CaptureSink;

namespace {

mn::Frame udp_frame(std::size_t size = 60) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = size;
  return mc::make_udp_frame(opts);
}

mn::Frame ptp_udp_frame(std::size_t size = 96, std::uint8_t type = 0) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = size;
  opts.ptp_payload = true;
  opts.ptp_message_type = type;
  return mc::make_udp_frame(opts);
}

}  // namespace

// ---------------------------------------------------------------------------
// TX path and serialization
// ---------------------------------------------------------------------------

TEST(NicTx, BackToBackFramesAreLineRate) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 1);
  CaptureSink sink;
  port.set_tx_sink(&sink);

  for (int i = 0; i < 100; ++i) port.tx_queue(0).post(udp_frame());
  events.run();

  ASSERT_EQ(sink.frames.size(), 100u);
  // 64 B frame = 84 wire bytes = 67.2 ns at 10 GbE, start to start.
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    EXPECT_EQ(sink.frames[i].second - sink.frames[i - 1].second, 67'200u);
  }
  EXPECT_EQ(port.stats().tx_packets, 100u);
  EXPECT_EQ(port.stats().tx_bytes, 100u * 84);
}

TEST(NicTx, TransmissionsAlignToMacClockGrid) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 2);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(udp_frame());
  events.run();
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0].second % port.spec().mac_cycle_ps, 0u);
}

TEST(NicTx, DmaFetchDelaysFirstFrame) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 3);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(udp_frame());
  events.run();
  ASSERT_EQ(sink.frames.size(), 1u);
  // First frame leaves no earlier than the DMA fetch latency and no later
  // than latency + jitter (+ one MAC cycle of alignment).
  EXPECT_GE(sink.frames[0].second, port.dma_timing().latency_ps);
  EXPECT_LE(sink.frames[0].second,
            port.dma_timing().latency_ps + port.dma_timing().jitter_ps + 6'400);
}

TEST(NicTx, RingCapacityIsEnforced) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 4);
  auto& q = port.tx_queue(0);
  std::size_t accepted = 0;
  while (q.post(udp_frame())) ++accepted;
  EXPECT_EQ(accepted, 1024u);  // default descriptor ring size
  EXPECT_EQ(q.ring_free(), 0u);
}

TEST(NicTx, RefillSaturatesLineRate) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 5);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);  // 1 ms
  // Line rate at 10 GbE, 64 B frames: 14.88 Mpps -> 14880 frames per ms.
  EXPECT_NEAR(static_cast<double>(sink.frames.size()), 14'880.0, 20.0);
}

TEST(NicTx, RoundRobinAcrossTwoQueues) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 6);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  // Two queues with distinct frame sizes so we can tell them apart.
  port.tx_queue(0).set_refill([] { return udp_frame(60); });
  port.tx_queue(1).set_refill([] { return udp_frame(124); });
  events.run_until(100 * ms::kPsPerUs);
  std::size_t small = 0, large = 0;
  for (const auto& [frame, t] : sink.frames) {
    (frame.frame_size() == 64 ? small : large) += 1;
  }
  ASSERT_GT(small, 100u);
  ASSERT_GT(large, 100u);
  // Round-robin: equal packet counts within a few frames.
  EXPECT_NEAR(static_cast<double>(small), static_cast<double>(large), 4.0);
}

// ---------------------------------------------------------------------------
// Hardware rate control (Section 7)
// ---------------------------------------------------------------------------

TEST(NicRateControl, AverageRateMatchesConfigured) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 7);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(1.0, 64);
  q.set_refill([] { return udp_frame(); });
  events.run_until(10 * ms::kPsPerMs);  // 10 ms
  // 1 Mpps for 10 ms = 10000 frames (within noise/startup).
  EXPECT_NEAR(static_cast<double>(sink.frames.size()), 10'000.0, 50.0);
}

TEST(NicRateControl, PacingNoiseIsBounded) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 8);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(0.5, 64);  // 2 us target gap
  q.set_refill([] { return udp_frame(); });
  events.run_until(20 * ms::kPsPerMs);
  ASSERT_GT(sink.frames.size(), 5'000u);
  // At 10 GbE the internal pacing tick is 6.4 ns; total noise is at most
  // +-4 ticks plus one MAC cycle of alignment.
  const ms::SimTime target = 2 * ms::kPsPerUs;
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    const auto gap = static_cast<std::int64_t>(sink.frames[i].second - sink.frames[i - 1].second);
    EXPECT_NEAR(static_cast<double>(gap), static_cast<double>(target), 4 * 6'400.0 + 6'400.0);
  }
}

TEST(NicRateControl, GbePacingTickIsTenTimesCoarser) {
  // Section 7.3: the internal rate-control clock scales with link speed.
  ms::EventQueue events;
  mn::Port p10(events, mn::intel_x540(), 10'000, 9);
  mn::Port p1(events, mn::intel_x540(), 1'000, 10);
  // Indirect check through the chip spec arithmetic.
  EXPECT_EQ(p10.spec().rate_tick_at_max_speed_ps, 6'400u);
  // Verified behaviourally: GbE gaps oscillate by up to ~4*64 ns.
  CaptureSink sink;
  p1.set_tx_sink(&sink);
  auto& q = p1.tx_queue(0);
  q.set_rate_mpps(0.1, 64);
  q.set_refill([] { return udp_frame(); });
  events.run_until(50 * ms::kPsPerMs);
  ASSERT_GT(sink.frames.size(), 1'000u);
  bool saw_offgrid_64 = false;
  for (std::size_t i = 1; i < sink.frames.size(); ++i) {
    const auto gap = static_cast<std::int64_t>(sink.frames[i].second - sink.frames[i - 1].second);
    const auto dev = std::llabs(gap - 10'000'000);
    EXPECT_LE(dev, 4 * 64'000 + 16'000);
    if (dev > 2 * 6'400) saw_offgrid_64 = true;
  }
  EXPECT_TRUE(saw_offgrid_64);  // noise really is on the coarse GbE grid
}

TEST(NicRateControl, UnreliableAboveNineMpps) {
  // Section 7.5: configured rates above ~9 Mpps behave non-linearly.
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 11);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto& q = port.tx_queue(0);
  q.set_rate_mpps(12.0, 64);
  q.set_refill([] { return udp_frame(); });
  events.run_until(10 * ms::kPsPerMs);
  const double achieved_mpps = static_cast<double>(sink.frames.size()) / 10'000.0;
  EXPECT_LT(achieved_mpps, 11.0);  // cannot reach the configured rate
  EXPECT_GT(achieved_mpps, 6.0);   // but is not stalled either
}

// ---------------------------------------------------------------------------
// PTP timestamping (Section 6)
// ---------------------------------------------------------------------------

TEST(NicPtp, TxStampLatchedForPtpEthernet) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 12);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  events.run();
  EXPECT_TRUE(port.read_tx_timestamp().has_value());
  EXPECT_FALSE(port.read_tx_timestamp().has_value());  // read-to-clear
}

TEST(NicPtp, RegisterHoldsOnlyFirstStamp) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 13);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  port.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  events.run();
  const auto first = port.read_tx_timestamp();
  ASSERT_TRUE(first.has_value());
  // The second packet was NOT stamped: the register was occupied
  // (single-packet-in-flight limitation, Section 6.4).
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, NonPtpFramesAreNotStamped) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 14);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(udp_frame());
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, MessageTypeOutsideMaskIgnored) {
  // MoonGen's background packets set a PTP type outside the filter mask so
  // they are not timestamped but look identical to the DuT (Section 6.4).
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 15);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(ptp_udp_frame(96, /*type=*/5));
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, WrongVersionIgnored) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_82599(), 10'000, 16);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto frame = mc::make_ptp_ethernet_frame(60);
  // Corrupt the version nibble.
  auto bytes = frame.data->bytes();
  bytes[15] = 0x01;
  port.tx_queue(0).post(mn::make_frame(std::move(bytes)));
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, UndersizedUdpPtpRefused) {
  // Section 6.4: UDP PTP packets below 80 B are not timestamped; Ethernet
  // PTP has no such limit.
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 17);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  port.tx_queue(0).post(ptp_udp_frame(72));  // 76 B frame < 80
  events.run();
  EXPECT_FALSE(port.read_tx_timestamp().has_value());

  port.tx_queue(0).post(ptp_udp_frame(96));  // 100 B frame >= 80
  events.run();
  EXPECT_TRUE(port.read_tx_timestamp().has_value());
}

TEST(NicPtp, RxStampAndCallback) {
  moongen::test::TenGbeFiberBed bed;
  std::uint64_t latched = 0;
  bed.b.set_rx_stamp_callback([&](std::uint64_t v) { latched = v; });
  bed.a.tx_queue(0).post(mc::make_ptp_ethernet_frame(60));
  bed.events.run();
  const auto rx = bed.b.read_rx_timestamp();
  ASSERT_TRUE(rx.has_value());
  EXPECT_EQ(*rx, latched);
  EXPECT_EQ(bed.b.stats().rx_packets, 1u);
}

TEST(NicPtp, RxTimestampAllOn82580) {
  ms::EventQueue events;
  mn::Port tx(events, mn::intel_x540(), 1'000, 18);
  mn::Port rx(events, mn::intel_82580(), 1'000, 19);
  moongen::wire::Link link(tx, rx, moongen::wire::cat5e_gbe(2.0), 20);
  for (int i = 0; i < 5; ++i) tx.tx_queue(0).post(udp_frame());
  events.run();
  const auto entries = rx.rx_queue(0).drain();
  ASSERT_EQ(entries.size(), 5u);
  std::uint64_t prev = 0;
  for (const auto& e : entries) {
    EXPECT_GT(e.hw_timestamp, 0u);  // every packet stamped
    EXPECT_GE(e.hw_timestamp, prev);
    prev = e.hw_timestamp;
  }
}

// ---------------------------------------------------------------------------
// Hardware CRC drop (Section 8.1)
// ---------------------------------------------------------------------------

TEST(NicRx, InvalidCrcDroppedBeforeQueues) {
  moongen::test::TenGbeFiberBed bed;
  bed.a.tx_queue(0).post(udp_frame());
  bed.a.tx_queue(0).post(mn::make_gap_frame(200));
  bed.a.tx_queue(0).post(udp_frame());
  bed.events.run();
  EXPECT_EQ(bed.b.stats().rx_packets, 2u);
  EXPECT_EQ(bed.b.stats().crc_errors, 1u);
  EXPECT_EQ(bed.b.rx_queue(0).pending(), 2u);
}

TEST(NicRx, RuntFramesCountAsErrors) {
  moongen::test::TenGbeFiberBed bed;
  bed.a.tx_queue(0).post(mn::make_gap_frame(40));  // 40 wire bytes -> runt
  bed.events.run();
  EXPECT_EQ(bed.b.stats().rx_packets, 0u);
  EXPECT_EQ(bed.b.stats().crc_errors, 1u);
}

TEST(NicRx, RingOverflowDrops) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.rx_queue(0).set_ring_capacity(16);
  for (int i = 0; i < 32; ++i) bed.a.tx_queue(0).post(udp_frame());
  bed.events.run();
  EXPECT_EQ(bed.b.rx_queue(0).pending(), 16u);
  EXPECT_EQ(bed.b.stats().rx_ring_drops, 16u);
}

TEST(NicRx, SteeringSelectsQueue) {
  moongen::test::TenGbeFiberBed bed;
  bed.b.set_rx_steering([](const mn::Frame& f) { return f.frame_size() > 100 ? 1 : 0; });
  bed.a.tx_queue(0).post(udp_frame(60));
  bed.a.tx_queue(0).post(udp_frame(124));
  bed.events.run();
  EXPECT_EQ(bed.b.rx_queue(0).pending(), 1u);
  EXPECT_EQ(bed.b.rx_queue(1).pending(), 1u);
}

// ---------------------------------------------------------------------------
// Throughput model (Figures 2-4 arithmetic)
// ---------------------------------------------------------------------------

TEST(ThroughputModel, LineRates) {
  EXPECT_NEAR(mn::line_rate_pps(10'000, 64), 14.88e6, 0.01e6);
  EXPECT_NEAR(mn::line_rate_pps(1'000, 64), 1.488e6, 0.001e6);
  EXPECT_NEAR(mn::line_rate_pps(40'000, 64), 59.52e6, 0.01e6);
}

TEST(ThroughputModel, CpuBoundBelowLineRate) {
  mn::ThroughputQuery q;
  q.cycles_per_packet = 200;
  q.cpu_hz = 1.2e9;
  q.cores = 1;
  const auto r = mn::predict_throughput(q);
  EXPECT_EQ(r.bottleneck, mn::Bottleneck::kCpu);
  EXPECT_NEAR(r.total_pps, 6e6, 1e3);
}

TEST(ThroughputModel, LineRateBoundWithManyCores) {
  mn::ThroughputQuery q;
  q.cycles_per_packet = 200;
  q.cpu_hz = 2.4e9;
  q.cores = 8;
  const auto r = mn::predict_throughput(q);
  EXPECT_EQ(r.bottleneck, mn::Bottleneck::kLineRate);
  EXPECT_NEAR(r.total_pps, 14.88e6, 0.01e6);
}

TEST(ThroughputModel, Xl710SmallPacketCap) {
  // Section 5.4: <=128 B frames cannot reach line rate on the XL710, and
  // more than two cores do not help.
  const auto chip = mn::intel_xl710();
  mn::ThroughputQuery q;
  q.chip = &chip;
  q.link_mbit = 40'000;
  q.frame_size = 64;
  q.cycles_per_packet = 160;
  q.cpu_hz = 2.4e9;
  q.cores = 3;
  const auto r = mn::predict_throughput(q);
  EXPECT_EQ(r.bottleneck, mn::Bottleneck::kNicHardware);
  EXPECT_LT(r.total_pps, mn::line_rate_pps(40'000, 64));

  q.frame_size = 256;
  const auto r2 = mn::predict_throughput(q);
  EXPECT_EQ(r2.bottleneck, mn::Bottleneck::kLineRate);
}

TEST(ThroughputModel, Xl710DualPortCaps) {
  const auto chip = mn::intel_xl710();
  mn::ThroughputQuery q;
  q.chip = &chip;
  q.link_mbit = 40'000;
  q.ports = 2;
  q.frame_size = 1518;
  q.cycles_per_packet = 160;
  q.cpu_hz = 2.4e9;
  q.cores = 6;
  const auto r = mn::predict_throughput(q);
  // Dual-port large packets: capped at ~50 Gbit/s, not 2x40 (Section 5.4).
  EXPECT_NEAR(r.total_wire_mbit, 50'000, 100);
}

// ---------------------------------------------------------------------------
// Batched TX fast path (see DESIGN.md, "Event-engine fast path")
// ---------------------------------------------------------------------------

namespace {

// Runs the CRC-paced generator (valid frames + invalid gap frames on an
// uncontrolled queue — the batched fast path) and captures the wire stream.
std::vector<std::pair<mn::Frame, ms::SimTime>> run_crc_stream(std::size_t batch_frames) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 99);
  port.set_tx_batch_frames(batch_frames);
  CaptureSink sink;
  port.set_tx_sink(&sink);
  auto gen = mc::SimLoadGen::crc_paced(port.tx_queue(0), udp_frame(),
                                       std::make_unique<mc::CbrPattern>(5.0), 10'000);
  events.run_until(2 * ms::kPsPerMs);
  return std::move(sink.frames);
}

}  // namespace

TEST(PortBatching, WireTimestampsMatchUnbatched) {
  const auto unbatched = run_crc_stream(1);   // one event per frame
  const auto batched = run_crc_stream(16);    // default fast path
  ASSERT_GT(unbatched.size(), 10'000u);
  // The batched run may have notified up to one batch of still-serializing
  // frames at the cutoff; everything both runs observed must be identical.
  ASSERT_LE(batched.size() - unbatched.size(), 16u);
  ASSERT_GE(batched.size(), unbatched.size());
  for (std::size_t i = 0; i < unbatched.size(); ++i) {
    ASSERT_EQ(unbatched[i].second, batched[i].second) << "tx_start diverges at frame " << i;
    ASSERT_EQ(unbatched[i].first.seq, batched[i].first.seq) << "frame order diverges at " << i;
    ASSERT_EQ(unbatched[i].first.fcs_valid, batched[i].first.fcs_valid);
    ASSERT_EQ(unbatched[i].first.wire_bytes(), batched[i].first.wire_bytes());
  }
}

TEST(PortBatching, BatchingCutsEventsPerFrame) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 7);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);
  const double events_per_frame =
      static_cast<double>(events.executed()) / static_cast<double>(port.stats().tx_packets);
  // One completion event per 16-frame batch (plus the lone first frame).
  EXPECT_LT(events_per_frame, 0.2);
  EXPECT_GT(port.stats().tx_packets, 14'000u);
}

TEST(PortBatching, DisabledBatchingKeepsPerFrameEvents) {
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 7);
  port.set_tx_batch_frames(1);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  events.run_until(ms::kPsPerMs);
  EXPECT_GE(events.executed(), port.stats().tx_packets);
}

// ---------------------------------------------------------------------------
// TX arbiter: decisions depend only on the queues that hold work
// ---------------------------------------------------------------------------

namespace {

struct Departure {
  std::uint32_t flow;  // the queue a frame came from (gap frames: 0)
  std::uint64_t seq;
  ms::SimTime tx_start;
  bool operator==(const Departure&) const = default;
};

std::vector<Departure> departures(const CaptureSink& sink) {
  std::vector<Departure> out;
  for (const auto& [frame, t] : sink.frames) out.push_back({frame.flow, frame.seq, t});
  return out;
}

mn::ChipSpec x540_with_queues(int queues) {
  mn::ChipSpec spec = mn::intel_x540();
  spec.num_queues = queues;
  return spec;
}

mn::Frame labeled_frame(std::uint32_t flow, std::uint64_t seq, std::size_t size) {
  mn::Frame f = udp_frame(size);
  f.flow = flow;
  f.seq = seq;
  return f;
}

// Sparse mixed traffic on queues 1, 63, 64 and 69 (both sides of a bitmap
// word boundary, and the last queue of a 70-queue port): a hardware-paced
// and a CRC-paced generator with refill sources, and two queues fed by
// post() bursts at fixed instants.
std::vector<Departure> run_sparse_mix(int num_queues) {
  ms::EventQueue events;
  mn::Port port(events, x540_with_queues(num_queues), 10'000, 41);
  CaptureSink sink;
  port.set_tx_sink(&sink);

  auto& paced = port.tx_queue(1);
  paced.set_rate_mpps(1.0, 64);
  auto hw = mc::SimLoadGen::hardware_paced(paced, udp_frame(60));
  hw->set_flow(1);
  auto crc = mc::SimLoadGen::crc_paced(port.tx_queue(63), udp_frame(124),
                                       std::make_unique<mc::CbrPattern>(2.0), 10'000);
  crc->set_flow(63);
  std::uint64_t seq = 0;
  for (ms::SimTime t = 5 * ms::kPsPerUs; t < 60 * ms::kPsPerUs; t += 7 * ms::kPsPerUs) {
    events.schedule_at(t, [&port, &seq] {
      for (int i = 0; i < 3; ++i) port.tx_queue(64).post(labeled_frame(64, ++seq, 200));
      port.tx_queue(69).post(labeled_frame(69, ++seq, 92));
    });
  }
  events.run_until(200 * ms::kPsPerUs);
  return departures(sink);
}

}  // namespace

TEST(PortArbiter, DecisionsIndependentOfConfiguredQueueCount) {
  const auto base = run_sparse_mix(70);
  std::map<std::uint32_t, std::size_t> per_flow;
  for (const auto& d : base) per_flow[d.flow] += 1;
  EXPECT_GT(per_flow[1], 150u);   // hardware-paced queue
  EXPECT_GT(per_flow[63], 300u);  // CRC-paced valid frames
  EXPECT_GT(per_flow[0], 300u);   // its invalid gap frames
  EXPECT_EQ(per_flow[64], 24u);  // every posted frame went out
  EXPECT_EQ(per_flow[69], 8u);
  for (const int queues : {128, 384}) {
    const auto other = run_sparse_mix(queues);
    ASSERT_EQ(other.size(), base.size()) << queues << " queues";
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(other[i], base[i]) << queues << " queues: departure " << i << " diverges";
    }
  }
}

TEST(PortArbiter, BackloggedQueuesAreServedInRoundRobinOrder) {
  // With no DMA jitter every queue's descriptors land in the same instant;
  // from then on the arbiter cycles the backlogged queues in index order,
  // wrapping past the last queue, whatever the port's queue count. The
  // queues hold different backlogs, so as they run dry the scan must skip
  // across bitmap words (63 empty: 1 -> 64).
  constexpr std::pair<int, int> kBacklog[] = {{1, 40}, {63, 10}, {64, 30}, {69, 20}};
  std::vector<std::uint32_t> expected;
  for (int round = 0; round < 40; ++round) {
    for (const auto& [q, frames] : kBacklog) {
      if (round < frames) expected.push_back(static_cast<std::uint32_t>(q));
    }
  }
  for (const int num_queues : {70, 128, 384}) {
    ms::EventQueue events;
    mn::Port port(events, x540_with_queues(num_queues), 10'000, 42);
    port.dma_timing().jitter_ps = 0;
    CaptureSink sink;
    port.set_tx_sink(&sink);
    for (int i = 0; i < 40; ++i) {
      for (const auto& [q, frames] : kBacklog) {
        if (i < frames) port.tx_queue(q).post(labeled_frame(static_cast<std::uint32_t>(q), i, 60));
      }
    }
    events.run();
    std::vector<std::uint32_t> order;
    for (const auto& [frame, t] : sink.frames) order.push_back(frame.flow);
    EXPECT_EQ(order, expected) << num_queues << " queues";
  }
}

TEST(PortArbiter, DescriptorsStillInMemoryBlockBatching) {
  // Queue 0 streams from a refill source on the batched fast path. Queue 5
  // receives one descriptor that sits in the memory ring (FIFO empty) for
  // the whole DMA latency: queue 5 is engaged, so queue 0 must fall back to
  // one event per frame until the descriptor has gone out.
  struct TimedSink : mn::FrameSink {
    explicit TimedSink(ms::EventQueue& e) : events(e) {}
    void on_frame(const mn::Frame& frame, ms::SimTime tx_start) override {
      log.push_back({frame.flow, tx_start, events.now()});
    }
    struct Entry {
      std::uint32_t flow;
      ms::SimTime tx_start;
      ms::SimTime notified;
    };
    ms::EventQueue& events;
    std::vector<Entry> log;
  };
  ms::EventQueue events;
  mn::Port port(events, mn::intel_x540(), 10'000, 43);
  port.dma_timing().latency_ps = 5 * ms::kPsPerUs;
  port.dma_timing().jitter_ps = 0;
  TimedSink sink(events);
  port.set_tx_sink(&sink);
  port.tx_queue(0).set_refill([] { return udp_frame(); });
  constexpr ms::SimTime kPost = 10 * ms::kPsPerUs;
  events.schedule_at(kPost, [&port] { port.tx_queue(5).post(labeled_frame(5, 1, 60)); });
  events.run_until(30 * ms::kPsPerUs);

  // A batch notifies its frames when it starts, ahead of their tx_start;
  // the one-event path notifies at the end of serialization.
  const auto batched = [](const TimedSink::Entry& e) { return e.notified <= e.tx_start; };
  ms::SimTime queue5_start = 0;
  for (const auto& e : sink.log) {
    if (e.flow == 5) queue5_start = e.tx_start;
  }
  ASSERT_GE(queue5_start, kPost + port.dma_timing().latency_ps);
  std::size_t before = 0, blocked = 0, after = 0;
  // A batch started before the post may still run for up to one batch.
  const ms::SimTime blocked_from = kPost + port.tx_batch_frames() * 84 * port.byte_time_ps();
  for (const auto& e : sink.log) {
    if (e.tx_start < kPost) {
      before += batched(e) ? 1 : 0;
    } else if (e.tx_start >= blocked_from && e.tx_start <= queue5_start) {
      EXPECT_FALSE(batched(e)) << "frame at " << e.tx_start << " ps batched while queue 5 waits";
      ++blocked;
    } else if (e.tx_start > queue5_start) {
      after += batched(e) ? 1 : 0;
    }
  }
  EXPECT_GT(before, 100u);   // the fast path was in use before the post
  EXPECT_GT(blocked, 40u);   // ~3.9 us of per-frame service at 67.2 ns/frame
  EXPECT_GT(after, 100u);    // and resumes once queue 5 is idle again
}
