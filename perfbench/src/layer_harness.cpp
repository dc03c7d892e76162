// Standalone layer harnesses (see harness.hpp).
#include "harness.hpp"

#include <memory>
#include <utility>

#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "core/rate_control.hpp"
#include "dut/forwarder.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/chip.hpp"
#include "nic/port.hpp"
#include "proto/packet_view.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/rtt_plane.hpp"

namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mb = moongen::membuf;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;

namespace perfbench {

namespace {

constexpr std::size_t kPktSize = 60;

/// Counts frames a port puts on the wire and drops them.
class CountingSink : public mn::FrameSink {
 public:
  void on_frame(const mn::Frame&, ms::SimTime) override { ++frames_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }

 private:
  std::uint64_t frames_ = 0;
};

/// Repeats `trial` (which returns the operations it did) for about
/// `seconds`, at least three times; returns the median ns per operation.
template <typename Trial>
double median_ns_per_op(double seconds, Trial&& trial) {
  std::vector<double> per_op;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (int n = 0; n < 3 || now_ns() < deadline; ++n) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t ops = trial();
    const std::uint64_t dt = now_ns() - t0;
    if (ops > 0) per_op.push_back(static_cast<double>(dt) / static_cast<double>(ops));
  }
  return median(per_op);
}

/// Feeds `count` frames, cycling through `mix`, into `port` at `spacing_ps`
/// intervals in chunks, running `events` behind them; returns the frames fed.
std::uint64_t feed(ms::EventQueue& events, mn::Port& port, const std::vector<mn::Frame>& mix,
                   std::uint64_t count, ms::SimTime spacing_ps) {
  constexpr std::uint64_t kChunk = 1024;
  std::size_t cursor = 0;
  for (std::uint64_t done = 0; done < count; done += kChunk) {
    ms::SimTime t = events.now() + spacing_ps;
    for (std::uint64_t i = 0; i < kChunk; ++i, t += spacing_ps) {
      port.deliver_frame(mix[cursor], t);
      cursor = (cursor + 1) % mix.size();
    }
    events.run_until(t);
  }
  return count;
}

mn::Frame l2_frame() {
  mc::UdpTemplateOptions bg;
  bg.frame_size = 96;
  bg.ptp_payload = true;
  bg.ptp_message_type = 5;
  return mc::make_udp_frame(bg);
}

volatile std::uint64_t g_sink = 0;

/// 1.5 Mpps, the l2_fwd offered load.
constexpr ms::SimTime kL2SpacingPs = 666'667;

}  // namespace

FastPathCosts measure_fast_path(std::uint64_t seed, double seconds, SpanLog& log) {
  mc::DeviceTable devices;
  auto& queue = devices.config(0, 1, 1).get_tx_queue(0);
  mb::Mempool pool(mb::Mempool::kDefaultCapacity, [](mb::PktBuf& buf) {
    buf.set_length(kPktSize);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = kPktSize;
    view.fill(opts);
  });
  mb::BufArray bufs(pool, mb::BufArray::kDefaultBatch);
  mc::Tausworthe rng(static_cast<std::uint32_t>(seed) | 1u);
  const std::uint32_t base_ip = 0x0a000001;
  constexpr std::uint64_t kBatches = 4096;
  const auto randomise = [&] {
    for (auto* buf : bufs) {
      mp::UdpPacketView view{buf->bytes()};
      view.ip().src_be = mp::hton32(base_ip + rng.next() % 256);
    }
  };
  const auto plain = [&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      bufs.alloc(kPktSize);
      randomise();
      bufs.offload_udp_checksums();
      sent += queue.send(bufs);
    }
    return sent;
  };
  const auto traced = [&]() -> std::uint64_t {
    std::uint64_t sent = 0;
    log.begin("fastpath.loop");
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      log.begin("membuf.alloc");
      bufs.alloc(kPktSize);
      log.end();
      log.begin("fastpath.modify");
      randomise();
      log.end();
      log.begin("proto.offload_udp");
      bufs.offload_udp_checksums();
      log.end();
      log.begin("core.send");
      sent += queue.send(bufs);
      log.end();
    }
    log.end();
    return sent;
  };
  plain();  // warm-up
  FastPathCosts c;
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
  std::uint64_t traced_pkts = 0;
  for (int round = 0; round < 3; ++round) {
    plain_ns.push_back(median_ns_per_op(seconds / 6.0, plain));
    traced_ns.push_back(median_ns_per_op(seconds / 6.0, [&] {
      const std::uint64_t n = traced();
      traced_pkts += n;
      return n;
    }));
  }
  c.loop_ns = median(plain_ns);
  c.traced_loop_ns = median(traced_ns);
  const auto per_pkt = [&](const char* name) {
    return static_cast<double>(log.aggregate(name).self_ns) / static_cast<double>(traced_pkts);
  };
  c.alloc_ns = per_pkt("membuf.alloc");
  c.modify_ns = per_pkt("fastpath.modify");
  c.cksum_ns = per_pkt("proto.offload_udp");
  c.send_ns = per_pkt("core.send");
  queue.reset();  // the pool dies before the device table
  return c;
}

namespace {

double classify_ns(const std::vector<mn::Frame>& mix, double seconds) {
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op(seconds, [&]() -> std::uint64_t {
    constexpr std::uint64_t kOps = 100'000;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto& f = mix[i % mix.size()];
      const auto c = mp::classify({f.data->data(), f.data->size()});
      sink += c ? c->l4_offset : 0;
    }
    return kOps;
  });
  g_sink = sink;  // keeps the classify calls observable
  return ns;
}

double nic_tx_ns_per_frame(double seconds) {
  return median_ns_per_op(seconds, [] {
    ms::EventQueue events;
    mn::Port port(events, mn::intel_x540(), 10'000, 1);
    CountingSink sink;
    port.set_tx_sink(&sink);
    auto& q = port.tx_queue(0);
    q.set_rate_mpps(1.5, 100);
    auto gen = mc::SimLoadGen::hardware_paced(q, l2_frame());
    events.run_until(20 * ms::kPsPerMs);
    return sink.frames();
  });
}

double nic_rx_ns_per_frame(double seconds) {
  const std::vector<mn::Frame> mix{l2_frame()};
  return median_ns_per_op(seconds, [&] {
    ms::EventQueue events;
    mn::Port port(events, mn::intel_x540(), 10'000, 1);
    port.rx_queue(0).set_store(false);
    return feed(events, port, mix, 32 * 1024, kL2SpacingPs);
  });
}

double fwd_ns_per_frame(double seconds) {
  const std::vector<mn::Frame> mix{l2_frame()};
  return median_ns_per_op(seconds, [&] {
    ms::EventQueue events;
    mn::Port in(events, mn::intel_x540(), 10'000, 2);
    mn::Port out(events, mn::intel_x540(), 10'000, 3);
    CountingSink sink;
    out.set_tx_sink(&sink);
    md::Forwarder fwd(events, in, 0, out, 0);
    feed(events, in, mix, 32 * 1024, kL2SpacingPs);
    events.run_until(events.now() + ms::kPsPerMs);  // drain the DuT
    return fwd.forwarded();
  });
}

double vswitch_ns_per_frame(const md::VSwitchConfig& cfg, const std::vector<mn::Frame>& mix,
                            double seconds) {
  // Offered at 9.1 Gbit/s on the 10 GbE ingress, the ddos_isolation load.
  double wire_bytes = 0.0;
  for (const auto& f : mix) wire_bytes += static_cast<double>(f.wire_bytes());
  const auto spacing_ps =
      static_cast<ms::SimTime>(wire_bytes / static_cast<double>(mix.size()) * 800.0 / 0.91);
  return median_ns_per_op(seconds, [&] {
    ms::EventQueue events;
    mn::Port in(events, mn::intel_x540(), 10'000, 2);
    mn::Port vp0(events, mn::intel_x540(), 1'000, 3);
    mn::Port vp1(events, mn::intel_x540(), 10'000, 5);
    CountingSink s0;
    CountingSink s1;
    vp0.set_tx_sink(&s0);
    vp1.set_tx_sink(&s1);
    md::VSwitch vsw(events, in, 0, {&vp0, &vp1}, cfg);
    feed(events, in, mix, 32 * 1024, spacing_ps);
    events.run_until(events.now() + ms::kPsPerMs);
    return vsw.received();
  });
}

double rtt_ns_per_update(std::uint32_t groups, double seconds) {
  mt::RttShard shard(groups, mt::HistogramConfig{});
  std::uint64_t x = 88172645463325252ull;
  return median_ns_per_op(seconds, [&]() -> std::uint64_t {
    constexpr std::uint64_t kOps = 200'000;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      shard.record(static_cast<std::uint32_t>(x >> 40), 5'000 + x % 45'000);
    }
    return kOps;
  });
}

double rtt_window_close_us(std::uint32_t groups) {
  mt::RttPlaneConfig cfg;
  cfg.flow_groups = groups;
  mt::RttPlane plane(cfg, 1);
  std::vector<double> us;
  std::uint64_t x = 88172645463325252ull;
  for (int w = 1; w <= 64; ++w) {
    for (int i = 0; i < 10'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      plane.shard(0).record(static_cast<std::uint32_t>(x >> 40), 5'000 + x % 45'000);
    }
    const std::uint64_t t0 = now_ns();
    plane.close_window(static_cast<std::uint64_t>(w) * cfg.window_ps);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

}  // namespace

mn::Frame ddos_tenant_frame(std::uint16_t vid, std::size_t frame_size, std::uint32_t flow) {
  mc::UdpTemplateOptions opts;
  opts.frame_size = frame_size;
  opts.vlan = true;
  opts.vlan_vid = vid;
  opts.flow = flow;
  return mc::make_udp_frame(opts);
}

md::VSwitchConfig ddos_vswitch_config(double shape_mbit, int tenants) {
  md::VSwitchConfig cfg;
  md::TenantConfig victim;
  victim.vid = 10;
  victim.vport = 0;
  victim.priority = 0;
  victim.flow = 1;
  md::TenantConfig attacker;
  attacker.vid = 20;
  attacker.vport = 0;
  attacker.priority = 0;
  attacker.flow = 2;
  attacker.rate_mbit = shape_mbit;
  attacker.burst_bytes = 16'000;
  cfg.tenants = {victim, attacker};
  for (int i = 0; i < tenants; ++i) {
    md::TenantConfig t;
    t.vid = static_cast<std::uint16_t>(100 + i);
    t.vport = 1;
    t.priority = 4;
    t.flow = 3;
    t.rate_mbit = 2.0 * 1'000.0 / tenants;
    t.burst_bytes = 4'000;
    cfg.tenants.push_back(t);
  }
  cfg.flood_vport = 1;
  return cfg;
}

namespace {

/// The ddos_isolation frame mix in proportion to each class's packet rate.
std::vector<mn::Frame> ddos_frame_mix(int tenants) {
  // Packet rates of ddos_isolation's defaults: victim 100 Mbit of 128 B,
  // attacker 8000 Mbit alternating 64 B / 1024 B, background 1000 Mbit of
  // 128 B over every tenant VID.
  const double victim_pps = 100e6 / (148.0 * 8.0);
  const double attack_pps = 8000e6 / (564.0 * 8.0);
  const double bg_pps = 1000e6 / (148.0 * 8.0);
  const double per_frame = (victim_pps + attack_pps + bg_pps) / 4096.0;
  std::vector<mn::Frame> mix;
  const auto n_victim = static_cast<int>(victim_pps / per_frame);
  const auto n_attack = static_cast<int>(attack_pps / per_frame);
  const auto n_bg = static_cast<int>(bg_pps / per_frame);
  for (int i = 0; i < n_victim; ++i) mix.push_back(ddos_tenant_frame(10, 128, 1));
  for (int i = 0; i < n_attack; ++i) mix.push_back(ddos_tenant_frame(20, i % 2 ? 1'024 : 64, 2));
  for (int i = 0; i < n_bg; ++i)
    mix.push_back(ddos_tenant_frame(static_cast<std::uint16_t>(100 + i % tenants), 128, 3));
  // Interleave the classes as they arrive on the wire.
  std::vector<mn::Frame> shuffled;
  shuffled.reserve(mix.size());
  const std::size_t stride = 7;
  for (std::size_t start = 0; start < stride; ++start)
    for (std::size_t i = start; i < mix.size(); i += stride) shuffled.push_back(mix[i]);
  return shuffled;
}

}  // namespace

void measure_sim_layers(const SimLayers& layers, std::map<std::string, double>& v) {
  constexpr double kSeconds = 0.3;
  v["nic.tx_ns_per_frame"] = nic_tx_ns_per_frame(kSeconds);
  v["nic.rx_ns_per_frame"] = nic_rx_ns_per_frame(kSeconds);
  if (layers.forwarder) v["fwd.ns_per_frame"] = fwd_ns_per_frame(kSeconds);
  if (layers.vswitch) {
    const auto mix = ddos_frame_mix(kDdosTenants);
    v["vswitch.ns_per_frame"] =
        vswitch_ns_per_frame(ddos_vswitch_config(kDdosShapeMbit, kDdosTenants), mix, kSeconds);
    v["proto.classify_ns"] = classify_ns(mix, kSeconds);
  }
  if (layers.rtt) {
    v["rtt.ns_per_update"] = rtt_ns_per_update(layers.rtt_groups, kSeconds);
    v["rtt.window_close_us"] = rtt_window_close_us(layers.rtt_groups);
  }
}

void emit_layer_metrics(Result& r, const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"sim.events_per_frame", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.heap_share", "ratio"},
      {"runtime.windows", "count"},
      {"runtime.events_per_window", "count"},
      {"runtime.cross_shard_frames", "count"},
      {"runtime.barrier_wait_share", "ratio"},
      {"runtime.slice_us_p50", "us"},
      {"runtime.slice_us_p99", "us"},
      {"nic.tx_frames", "count"},
      {"nic.gap_share", "ratio"},
      {"nic.crc_rejects", "count"},
      {"nic.rx_ring_drops", "count"},
      {"nic.tx_ns_per_frame", "ns"},
      {"nic.rx_ns_per_frame", "ns"},
      {"wire.frames", "count"},
      {"wire.ns_per_frame", "ns"},
      {"wire.fault_drops", "count"},
      {"fwd.frames_per_poll", "count"},
      {"fwd.interrupts", "count"},
      {"fwd.ns_per_frame", "ns"},
      {"vswitch.match_share", "ratio"},
      {"vswitch.shaped_drop_share", "ratio"},
      {"vswitch.ns_per_frame", "ns"},
      {"proto.classify_ns", "ns"},
      {"proto.cksum_ns_per_pkt", "ns"},
      {"rtt.recorded", "count"},
      {"rtt.ns_per_update", "ns"},
      {"rtt.window_close_us", "us"},
      {"health.ticks", "count"},
      {"health.checks", "count"},
      {"health.check_us", "us"},
      {"rpc.issued", "count"},
      {"rpc.match_share", "ratio"},
      {"rpc.timeouts", "count"},
      {"fault.fires", "count"},
      {"membuf.alloc_ns_per_pkt", "ns"},
      {"core.send_ns_per_pkt", "ns"},
      {"core.tx_dropped", "count"},
      {"core.short_batches", "count"},
      {"script.vm_ns_per_pkt", "ns"},
      {"script.setup_ms", "ms"},
      {"testbed.build_ms", "ms"},
      {"compose.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    r.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench
