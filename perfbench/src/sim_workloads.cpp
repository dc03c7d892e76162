// The simulated workloads: l2_fwd, vswitch_ddos and chaos_soak. Each
// builds exactly the scenario of its example (l2_load_latency 1.5 0.5 cbr,
// ddos_isolation with its defaults, chaos_soak) through testbed::Scenario
// on one shard, runs it in 1 ms virtual slices, digests its results at
// every 100 ms virtual window, and prints the example's stdout with
// --report (perfbench/test_anchor.py checks they match byte for byte).
// chaos_soak also runs one repetition at two shards per run, as an output
// check: its digests must equal the one-shard reference.
#include <array>
#include <atomic>
#include <cstdarg>
#include <deque>
#include <fstream>
#include <map>
#include <stdexcept>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/rate_control.hpp"
#include "core/timestamper.hpp"
#include "dut/vswitch.hpp"
#include "harness.hpp"
#include "health/monitor.hpp"
#include "membuf/mempool.hpp"
#include "nic/chip.hpp"
#include "rpc/open_loop.hpp"
#include "rpc/server_model.hpp"
#include "testbed/scenario.hpp"

namespace mc = moongen::core;
namespace md = moongen::dut;
namespace mf = moongen::fault;
namespace mh = moongen::health;
namespace mm = moongen::membuf;
namespace mn = moongen::nic;
namespace mr = moongen::rpc;
namespace ms = moongen::sim;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

namespace perfbench {

namespace {

constexpr ms::SimTime kWindowPs = 100 * ms::kPsPerMs;
constexpr ms::SimTime kSlicePs = 1 * ms::kPsPerMs;
/// Throughput is measured over chunks of this many slices.
constexpr int kChunkSlices = 10;
/// Inputs come from --seed through this many scenario seeds, each with a
/// recorded reference in perfbench/reference.txt. Only chaos_soak's
/// scenario depends on the seed (its fault schedule); every random source
/// of l2_fwd and vswitch_ddos has a fixed seed, so they have one reference
/// line, under scenario seed 1, and the same input for every --seed.
constexpr std::uint64_t kSeedVariants = 16;
/// Warm set-ups timed after each repetition, and at least this many in all.
constexpr std::size_t kSetupsPerRep = 4;
constexpr std::size_t kSetupSamples = 60;

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

using ull = unsigned long long;

/// One repetition of a workload: the built testbed plus the components the
/// example constructs around it. Members of derived classes are destroyed
/// before the testbed they point into.
class Workload {
 public:
  virtual ~Workload() = default;
  mtb::Testbed& tb() { return *tb_; }
  /// Virtual time the run ends at.
  [[nodiscard]] ms::SimTime end_ps() const { return end_ps_; }
  /// Steps the example takes between the run and its report.
  virtual void finish() {}
  /// The example's stdout.
  virtual std::string report() = 0;
  /// Workload-specific books folded into every window digest.
  virtual void digest(Digest&) {}
  /// Health-plane verdict; empty when clean.
  virtual std::string health_problem() { return {}; }
  virtual mh::HealthMonitor* monitor() { return nullptr; }
  /// Frames sent as CRC gaps (software rate control).
  virtual std::uint64_t gap_frames() const { return 0; }
  /// True when the run's 10 ms chunks do different work by design (fault
  /// phases, a drain), so throughput is taken over whole repetitions.
  virtual bool phased() const { return false; }
  virtual void rpc_books(std::uint64_t&, std::uint64_t&, std::uint64_t&) const {}

 protected:
  /// Scenario::build under a span when tracing.
  void build(mtb::Scenario& scenario, SpanLog* log) {
    if (log != nullptr) log->begin("testbed.build");
    tb_ = scenario.build();
    if (log != nullptr) log->end();
  }
  std::unique_ptr<mtb::Testbed> tb_;
  ms::SimTime end_ps_ = 0;
};

// --- l2_fwd: l2_load_latency 1.5 0.5 cbr ------------------------------------

class L2Fwd : public Workload {
 public:
  static constexpr double kRateMpps = 1.5;
  static constexpr double kSeconds = 0.5;

  L2Fwd(std::uint64_t seed, int shards, SpanLog* log) {
    auto scenario = mtb::Scenario()
                        .seed(seed)
                        .shards(shards)
                        .device(0, mn::intel_x540()).name("gen_tx").with_seed(1)
                        .device(1, mn::intel_x540()).name("dut_in").with_seed(2).rtt_record(false)
                        .device(2, mn::intel_x540()).name("dut_out").with_seed(3).rtt_record(false)
                        .device(3, mn::intel_x540()).name("sink").with_seed(4).rx_store(false)
                        .link(0, 1).with_seed(5)
                        .link(2, 3).with_seed(6)
                        .forwarder(1, 2)
                        .couple(0, 3);
    build(scenario, log);
    mt::MetricRegistry& registry = tb_->registry();
    registry.shard(0).gauge("load.offered_mpps").set(kRateMpps);
    mc::UdpTemplateOptions bg;
    bg.frame_size = 96;
    bg.ptp_payload = true;
    bg.ptp_message_type = 5;
    auto& gen_tx = tb_->port("gen_tx");
    auto& queue = gen_tx.tx_queue(0);
    queue.set_rate_mpps(kRateMpps, 100);
    gen_ = mc::SimLoadGen::hardware_paced(queue, mc::make_udp_frame(bg));
    gen_->bind_telemetry(registry, "loadgen");
    mc::UdpTemplateOptions stamped = bg;
    stamped.ptp_message_type = 0;
    mc::TimestamperConfig cfg;
    cfg.sample_interval_ps = 100 * ms::kPsPerUs;
    cfg.hist_bin_ps = 50'000;
    ts_ = std::make_unique<mc::Timestamper>(tb_->engine(0), gen_tx, *gen_,
                                            mc::make_udp_frame(stamped), tb_->port("sink"), cfg);
    ts_->bind_telemetry(registry, "timestamper");
    ts_->start();
    end_ps_ = static_cast<ms::SimTime>(kSeconds * 1e12);
  }

  void finish() override { ts_->stop(); }

  std::string report() override {
    auto& forwarder = tb_->forwarder();
    const auto& h = ts_->histogram();
    std::string s = format("l2-load-latency: %.2f Mpps %s through an OVS-like DuT, %.1f s\n\n",
                           kRateMpps, "CBR", kSeconds);
    s += format("load:     %.2f Mpps offered, %.2f Mpps forwarded\n", kRateMpps,
                static_cast<double>(forwarder.forwarded()) / kSeconds / 1e6);
    s += format("samples:  %llu timestamped packets (%llu lost)\n", static_cast<ull>(ts_->samples()),
                static_cast<ull>(ts_->lost()));
    s += format("latency:  min %.2f us / p25 %.2f / median %.2f / p75 %.2f / p99 %.2f / max %.2f\n",
                ts_->latency_ns().min() / 1e3, static_cast<double>(h.percentile(25)) / 1e6,
                static_cast<double>(h.percentile(50)) / 1e6,
                static_cast<double>(h.percentile(75)) / 1e6,
                static_cast<double>(h.percentile(99)) / 1e6, ts_->latency_ns().max() / 1e3);
    auto& plane = tb_->rtt_plane();
    const auto cum = plane.cumulative();
    s += format("rtt:      %llu frames in-path, p50 %.2f us / p99 %.2f / p99.9 %.2f "
                "(%llu windows, %llu dropped)\n",
                static_cast<ull>(plane.recorded()), static_cast<double>(cum.percentile(50.0)) / 1e3,
                static_cast<double>(cum.percentile(99.0)) / 1e3,
                static_cast<double>(cum.percentile(99.9)) / 1e3,
                static_cast<ull>(plane.windows_closed()), static_cast<ull>(plane.dropped()));
    s += format("DuT:      %llu interrupts, %llu polls, RX drops %llu\n",
                static_cast<ull>(forwarder.interrupts()), static_cast<ull>(forwarder.polls()),
                static_cast<ull>(tb_->port("dut_in").stats().rx_ring_drops));
    return s;
  }

  void digest(Digest& d) override {
    const auto& h = ts_->histogram();
    d.add(ts_->samples()).add(ts_->lost()).add(ts_->attempts()).add(ts_->discarded());
    for (const double p : {25.0, 50.0, 75.0, 99.0}) d.add(h.percentile(p));
    d.add(ts_->latency_ns().min()).add(ts_->latency_ns().max());
    d.add(gen_->valid_frames()).add(gen_->gap_frames());
  }

  std::uint64_t gap_frames() const override { return gen_->gap_frames(); }

 private:
  std::unique_ptr<mc::SimLoadGen> gen_;
  std::unique_ptr<mc::Timestamper> ts_;
};

// --- vswitch_ddos: ddos_isolation defaults ----------------------------------

class VSwitchDdos : public Workload {
 public:
  static constexpr double kAttackMbit = 8'000.0;
  static constexpr double kShapeMbit = kDdosShapeMbit;
  static constexpr double kSeconds = 0.5;
  static constexpr int kTenants = kDdosTenants;
  static constexpr std::uint32_t kVictimFlow = 1;
  static constexpr std::uint32_t kAttackFlow = 2;
  static constexpr std::uint32_t kBackgroundFlow = 3;

  VSwitchDdos(std::uint64_t seed, int shards, SpanLog* log) {
    const double victim_mbit = 100.0;
    const double background_mbit = 1'000.0;
    auto scenario = mtb::Scenario()
                        .seed(seed)
                        .shards(shards)
                        .rtt_groups(4)
                        .device(0, mn::intel_x540()).name("gen").with_seed(1)
                        .device(1, mn::intel_x540()).name("vs_in").with_seed(2).rtt_record(false)
                        .device(2, mn::intel_x540()).name("vport0").with_seed(3)
                            .link_mbit(1'000).rtt_record(false)
                        .device(3, mn::intel_x540()).name("sink0").with_seed(4)
                            .link_mbit(1'000).rx_store(false)
                        .device(4, mn::intel_x540()).name("vport1").with_seed(5).rtt_record(false)
                        .device(5, mn::intel_x540()).name("sink1").with_seed(6).rx_store(false)
                        .link(0, 1).with_seed(7)
                        .link(2, 3).with_seed(8).latency_ns(25'000)
                        .link(4, 5).with_seed(9).latency_ns(5'000)
                        .vswitch(1, {2, 4}, ddos_vswitch_config(kShapeMbit, kTenants));
    build(scenario, log);
    mt::MetricRegistry& registry = tb_->registry();
    auto& gen = tb_->port("gen");
    auto& victim_q = gen.tx_queue(0);
    victim_q.set_rate_wire_mbit(victim_mbit);
    victim_ = mc::SimLoadGen::hardware_paced(victim_q, ddos_tenant_frame(10, 128, kVictimFlow));
    victim_->bind_telemetry(registry, "loadgen.victim");
    const double attack_wire_bytes = ((64.0 + 20.0) + (1'024.0 + 20.0)) / 2.0;
    const double attack_mpps = kAttackMbit / (attack_wire_bytes * 8.0);
    attacker_ = mc::SimLoadGen::crc_paced(
        gen.tx_queue(1), ddos_tenant_frame(20, 64, kAttackFlow),
        std::make_unique<mc::BurstPattern>(attack_mpps, 128,
                                           static_cast<std::size_t>(attack_wire_bytes), 10'000),
        10'000);
    attacker_->set_templates(
        {ddos_tenant_frame(20, 64, kAttackFlow), ddos_tenant_frame(20, 1'024, kAttackFlow)});
    attacker_->bind_telemetry(registry, "loadgen.attacker");
    const double bg_mpps = background_mbit / ((128.0 + 20.0) * 8.0);
    std::vector<mn::Frame> bg_templates;
    bg_templates.reserve(static_cast<std::size_t>(kTenants));
    for (int i = 0; i < kTenants; ++i)
      bg_templates.push_back(
          ddos_tenant_frame(static_cast<std::uint16_t>(100 + i), 128, kBackgroundFlow));
    background_ = mc::SimLoadGen::crc_paced(
        gen.tx_queue(2), bg_templates.front(),
        std::make_unique<mc::PoissonPattern>(bg_mpps, 77), 10'000);
    background_->set_templates(std::move(bg_templates));
    background_->bind_telemetry(registry, "loadgen.background");
    end_ps_ = static_cast<ms::SimTime>(kSeconds * 1e12);
    mh::MonitorConfig hc;
    hc.window_ps = 1 * ms::kPsPerMs;
    mon_ = std::make_unique<mh::HealthMonitor>(*tb_, hc);
    mon_->start(end_ps_);
  }

  std::string report() override {
    auto& vsw = tb_->vswitch();
    std::string s = format(
        "ddos-isolation: attacker %.0f Mbit burst trains, %s, %d background tenants, %.1f s\n\n",
        kAttackMbit, "shaped", kTenants, kSeconds);
    s += format("switch:   %llu received, %llu matched, %llu flooded, %llu shaped drops, "
                "%llu queue drops\n",
                static_cast<ull>(vsw.received()), static_cast<ull>(vsw.matched()),
                static_cast<ull>(vsw.flooded()), static_cast<ull>(vsw.shaped_drops()),
                static_cast<ull>(vsw.queue_drops()));
    const auto attacker_books = vsw.tenant_counters(1);
    const double emitted_mbit =
        static_cast<double>(attacker_books.emitted_wire_bytes) * 8.0 / 1e6 / kSeconds;
    s += format("shaping:  attacker emitted %.2f Mbit/s against a %.0f Mbit/s bucket "
                "(error %.3f%%)\n",
                emitted_mbit, kShapeMbit, (emitted_mbit - kShapeMbit) / kShapeMbit * 100.0);
    const auto& plane = tb_->rtt_plane();
    s += group_line("victim:  ", plane, kVictimFlow);
    s += group_line("attacker:", plane, kAttackFlow);
    s += group_line("backgrnd:", plane, kBackgroundFlow);
    const auto& violations = mon_->violations();
    s += format("health:   %zu violations\n", violations.size());
    for (const auto& v : violations) s += format("  %s: %s\n", v.checker.c_str(), v.detail.c_str());
    return s;
  }

  void digest(Digest& d) override {
    auto& vsw = tb_->vswitch();
    d.add(vsw.flooded()).add(vsw.queue_drops()).add(vsw.emitted()).add(vsw.egress_ring_drops());
    d.add(static_cast<std::uint64_t>(vsw.queued()));
    for (std::size_t t : {0, 1, 2, kTenants + 1}) {
      const auto c = vsw.tenant_counters(t);
      d.add(c.matched).add(c.emitted).add(c.emitted_wire_bytes).add(c.shaped_drops);
      d.add(c.queue_drops).add(static_cast<std::uint64_t>(c.queued));
    }
    for (const auto* g : {victim_.get(), attacker_.get(), background_.get()})
      d.add(g->valid_frames()).add(g->gap_frames());
    d.add(static_cast<std::uint64_t>(mon_->violations().size()));
  }

  std::string health_problem() override {
    const auto& v = mon_->violations();
    return v.empty() ? std::string() : v.front().checker + ": " + v.front().detail;
  }
  mh::HealthMonitor* monitor() override { return mon_.get(); }
  std::uint64_t gap_frames() const override {
    return victim_->gap_frames() + attacker_->gap_frames() + background_->gap_frames();
  }

 private:
  static std::string group_line(const char* label, const mt::RttPlane& plane, std::uint32_t flow) {
    const auto h = plane.cumulative_group(flow);
    return format("%s %llu frames, p50 %.2f us / p99 %.2f / p99.9 %.2f\n", label,
                  static_cast<ull>(h.total()), static_cast<double>(h.percentile(50.0)) / 1e3,
                  static_cast<double>(h.percentile(99.0)) / 1e3,
                  static_cast<double>(h.percentile(99.9)) / 1e3);
  }

  std::unique_ptr<mc::SimLoadGen> victim_;
  std::unique_ptr<mc::SimLoadGen> attacker_;
  std::unique_ptr<mc::SimLoadGen> background_;
  std::unique_ptr<mh::HealthMonitor> mon_;
};

// --- chaos_soak: chaos_soak ------------------------------------------------

/// chaos_soak's allocate/hold/free rhythm against a private mempool.
class PoolChurn {
 public:
  PoolChurn(ms::EventQueue& events, std::size_t capacity) : events_(events), pool_(capacity) {}
  [[nodiscard]] mm::Mempool& pool() { return pool_; }
  [[nodiscard]] std::size_t held() const { return held_.size(); }
  void start(ms::SimTime end_ps) {
    end_ps_ = end_ps;
    events_.schedule_at(events_.now() + kGapPs, [this] { tick(); });
  }

 private:
  static constexpr ms::SimTime kGapPs = 2 * ms::kPsPerUs;
  void tick() {
    while (held_.size() > 16) {
      pool_.free(held_.front());
      held_.pop_front();
    }
    std::array<mm::PktBuf*, 8> batch{};
    const std::size_t got = pool_.alloc_batch({batch.data(), batch.size()}, 64);
    for (std::size_t i = 0; i < got; ++i) held_.push_back(batch[i]);
    if (events_.now() + kGapPs < end_ps_) events_.schedule_in(kGapPs, [this] { tick(); });
  }
  ms::EventQueue& events_;
  mm::Mempool pool_;
  std::deque<mm::PktBuf*> held_;
  ms::SimTime end_ps_ = 0;
};

/// chaos_soak's built-in phased fault schedule.
mf::FaultSpec phased_schedule(std::uint64_t seed, ms::SimTime end_ps) {
  const auto at = [end_ps](double f) {
    return static_cast<ms::SimTime>(f * static_cast<double>(end_ps));
  };
  const auto rule = [](mf::FaultKind kind, const char* site, double p, std::uint32_t burst,
                       ms::SimTime from, ms::SimTime to, double param = 0.0) {
    mf::FaultRule r;
    r.kind = kind;
    r.site = site;
    r.probability = p;
    r.burst = burst;
    r.window_start_ps = from;
    r.window_end_ps = to;
    r.param = param;
    return r;
  };
  mf::FaultSpec spec;
  spec.seed = seed;
  spec.rules.push_back(rule(mf::FaultKind::kFrameLoss, "wire", 5e-4, 1, at(0.05), at(0.25)));
  spec.rules.push_back(rule(mf::FaultKind::kFrameLoss, "wire", 2e-3, 2, at(0.25), at(0.50)));
  spec.rules.push_back(
      rule(mf::FaultKind::kFrameCorrupt, "wire.l1", 5e-4, 1, at(0.25), at(0.50)));
  spec.rules.push_back(
      rule(mf::FaultKind::kLinkFlap, "wire.l1", 2e-6, 1, at(0.25), at(0.50), 2e8));
  spec.rules.push_back(
      rule(mf::FaultKind::kAllocFail, "pool.churn", 0.3, 8, at(0.25), at(0.50)));
  spec.rules.push_back(rule(mf::FaultKind::kStall, "rpc", 5e-3, 1, at(0.50), at(0.70), 2e8));
  spec.rules.push_back(
      rule(mf::FaultKind::kRxOverflow, "nic.sink", 2e-3, 16, at(0.50), at(0.70)));
  spec.rules.push_back(rule(mf::FaultKind::kFrameLoss, "wire", 2e-4, 1, at(0.50), at(0.70)));
  return spec;
}

class ChaosSharded : public Workload {
 public:
  static constexpr double kSeconds = 0.08;
  static constexpr double kL2Mpps = 2.0;

  ChaosSharded(std::uint64_t seed, int shards, SpanLog* log) {
    const auto stop_ps = static_cast<ms::SimTime>(kSeconds * 1e12);
    end_ps_ = stop_ps + 20 * ms::kPsPerMs;
    spec_ = phased_schedule(seed, stop_ps);
    auto scenario = mtb::Scenario()
                        .seed(seed)
                        .shards(shards)
                        .faults(spec_)
                        .device(0, mn::intel_x540()).name("gen_tx").with_seed(1)
                        .device(1, mn::intel_x540()).name("dut_in").with_seed(2)
                        .device(2, mn::intel_x540()).name("dut_out").with_seed(3)
                        .device(3, mn::intel_x540()).name("sink").with_seed(4).rx_store(false)
                        .device(4, mn::intel_x540()).name("rpc_c0").with_seed(5).rx_store(false)
                        .device(5, mn::intel_x540()).name("rpc_s0").with_seed(6).rx_store(false)
                        .device(6, mn::intel_x540()).name("rpc_c1").with_seed(7).rx_store(false)
                        .device(7, mn::intel_x540()).name("rpc_s1").with_seed(8).rx_store(false)
                        .link(0, 1).with_seed(11)
                        .link(2, 3).with_seed(12)
                        .link(4, 5).with_seed(13).duplex()
                        .link(6, 7).with_seed(14).duplex()
                        .forwarder(1, 2)
                        .couple(0, 3);
    build(scenario, log);
    mc::UdpTemplateOptions bg;
    bg.frame_size = 96;
    auto& l2_queue = tb_->port("gen_tx").tx_queue(0);
    l2_queue.set_rate_mpps(kL2Mpps, 100);
    l2_gen_ = mc::SimLoadGen::hardware_paced(l2_queue, mc::make_udp_frame(bg));
    for (int i = 0; i < 2; ++i) {
      const int client_dev = 4 + 2 * i;
      const int server_dev = 5 + 2 * i;
      mr::ServerConfig sc;
      sc.workers = 1;
      sc.service = mr::ServerConfig::Service::kExponential;
      sc.service_mean_ps = 4.0 * static_cast<double>(ms::kPsPerUs);
      sc.seed = 7 + static_cast<std::uint64_t>(i);
      servers_.push_back(std::make_unique<mr::ServerModel>(tb_->port(server_dev), sc));
      servers_.back()->install_faults(*tb_->fault_plane(tb_->shard_of(server_dev)),
                                      "rpc.s" + std::to_string(i));
      recorders_.push_back(std::make_unique<mr::LatencyRecorder>());
      mr::WorkloadConfig wc;
      wc.offered_rps = 100'000.0;
      wc.seed = 42 + static_cast<std::uint64_t>(i);
      wc.timeout_ps = 5 * ms::kPsPerMs;
      wc.seq_base = 1 + (static_cast<std::uint64_t>(i) << 32);
      gens_.push_back(std::make_unique<mr::OpenLoopGenerator>(tb_->port(client_dev),
                                                              *recorders_.back(), wc));
      gens_.back()->start(0, stop_ps);
    }
    churn_ = std::make_unique<PoolChurn>(tb_->engine(0), 256);
    churn_->pool().install_faults(*tb_->fault_plane(tb_->shard_of(0)), "pool.churn");
    churn_->start(stop_ps);

    mh::MonitorConfig hc;
    hc.window_ps = 1 * ms::kPsPerMs;
    hc.enable_watchdog = true;
    hc.watchdog.poll_ms = 100;
    hc.watchdog.budget_ms = 5000;
    mon_ = std::make_unique<mh::HealthMonitor>(*tb_, hc);
    for (std::size_t i = 0; i < gens_.size(); ++i)
      mon_->checkers().add("rpc.client" + std::to_string(i), mh::make_rpc_checker(*gens_[i]));
    mon_->checkers().add("mempool.churn", mh::make_mempool_checker(
                                              churn_->pool(), [this] { return churn_->held(); }));
    mh::GovernorConfig gc;
    gc.pressure_threshold = 20;
    gc.enter_windows = 3;
    gc.exit_windows = 5;
    gc.degraded_keep = 0.6;
    governor_ = &mon_->add_governor(
        "overload", gc,
        [this] {
          return churn_->pool().exhausted_events() + tb_->port("sink").stats().rx_ring_drops;
        },
        [this](bool, double keep) {
          for (auto& g : gens_) g->set_keep_fraction(keep);
        });
    // A trip means the lookahead barrier is wedged; the run is then failed.
    mon_->watchdog()->set_on_trip([this](const mh::Watchdog::StallReport&) { tripped_ = true; });
    mon_->start(end_ps_);
  }

  void finish() override { mon_->check_now(); }

  std::string report() override {
    const auto& sink = tb_->port("sink").stats();
    std::string s = format("chaos-soak: %.0f ms, %.2f Mpps L2 + 2x open-loop RPC, %zu fault rules\n\n",
                           kSeconds * 1e3, kL2Mpps, spec_.rules.size());
    s += format("l2:       %llu forwarded, %llu received at sink, %llu sink ring drops\n",
                static_cast<ull>(tb_->forwarder().forwarded()), static_cast<ull>(sink.rx_packets),
                static_cast<ull>(sink.rx_ring_drops));
    for (std::size_t i = 0; i < gens_.size(); ++i) {
      const auto& g = *gens_[i];
      s += format("rpc%zu:     issued %llu matched %llu timed_out %llu drops %llu shed %llu\n", i,
                  static_cast<ull>(g.issued()), static_cast<ull>(g.matched()),
                  static_cast<ull>(g.timed_out()), static_cast<ull>(g.send_drops()),
                  static_cast<ull>(g.shed_departures()));
    }
    s += format("pool:     %zu held, %llu exhausted events, low watermark %zu\n", churn_->held(),
                static_cast<ull>(churn_->pool().exhausted_events()),
                churn_->pool().low_watermark());
    s += format("faults:   %llu fires total\n", static_cast<ull>(tb_->fault_fires()));
    return s;
  }

  void digest(Digest& d) override {
    for (const auto& g : gens_) {
      d.add(g->issued()).add(g->matched()).add(g->late()).add(g->timed_out());
      d.add(g->send_drops()).add(g->shed_departures());
    }
    d.add(static_cast<std::uint64_t>(churn_->held())).add(churn_->pool().exhausted_events());
    d.add(static_cast<std::uint64_t>(churn_->pool().low_watermark()));
    d.add(governor_->enters()).add(governor_->recovers());
    d.add(static_cast<std::uint64_t>(mon_->violations().size()));
  }

  std::string health_problem() override {
    if (tripped_) return "watchdog: no shard progress within the budget";
    const auto& v = mon_->violations();
    return v.empty() ? std::string() : v.front().checker + ": " + v.front().detail;
  }
  mh::HealthMonitor* monitor() override { return mon_.get(); }
  bool phased() const override { return true; }
  void rpc_books(std::uint64_t& issued, std::uint64_t& matched,
                 std::uint64_t& timeouts) const override {
    for (const auto& g : gens_) {
      issued += g->issued();
      matched += g->matched();
      timeouts += g->timed_out();
    }
  }

 private:
  mf::FaultSpec spec_;
  std::unique_ptr<mc::SimLoadGen> l2_gen_;
  std::vector<std::unique_ptr<mr::ServerModel>> servers_;
  std::vector<std::unique_ptr<mr::LatencyRecorder>> recorders_;
  std::vector<std::unique_ptr<mr::OpenLoopGenerator>> gens_;
  std::unique_ptr<PoolChurn> churn_;
  std::unique_ptr<mh::HealthMonitor> mon_;
  mh::DegradationGovernor* governor_ = nullptr;
  std::atomic<bool> tripped_{false};
};

/// The scenario seed whose reference digests a run is checked against.
std::uint64_t reference_seed(const std::string& workload, std::uint64_t scenario_seed) {
  return workload == "chaos_soak" ? scenario_seed : 1;
}

/// Shards of the output-check repetition (0: none). chaos_soak's links
/// cross shards at two; the digests must not depend on the shard count
/// (DESIGN.md section 10). Its wall time is not measured: on a shared host
/// the barrier wake-ups of two shards vary its rate twofold between runs.
int check_shards(const std::string& workload) { return workload == "chaos_soak" ? 2 : 0; }

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, int shards,
                                        SpanLog* log) {
  if (name == "l2_fwd") return std::make_unique<L2Fwd>(seed, shards, log);
  if (name == "vswitch_ddos") return std::make_unique<VSwitchDdos>(seed, shards, log);
  return std::make_unique<ChaosSharded>(seed, shards, log);
}

// --- digests and counts -----------------------------------------------------

/// Counts, conservation books and virtual-time quantiles at a quiesced
/// window boundary.
std::string window_digest(Workload& w, ms::SimTime due) {
  auto& tb = w.tb();
  Digest d;
  d.add(due);
  for (const int id : tb.device_ids()) {
    const auto& s = tb.port(id).stats();
    d.add(s.tx_packets).add(s.tx_bytes).add(s.rx_packets).add(s.rx_bytes);
    d.add(s.crc_errors).add(s.rx_ring_drops).add(s.link_down_events).add(s.link_up_events);
  }
  for (std::size_t i = 0; i < tb.link_count(); ++i) {
    const auto& l = tb.link_at(i);
    d.add(l.frames_carried()).add(l.delivered()).add(l.fault_drops()).add(l.flap_drops());
    d.add(l.corrupted()).add(l.reordered()).add(l.duplicated()).add(l.flaps());
  }
  for (std::size_t i = 0; i < tb.forwarder_count(); ++i) {
    auto& f = tb.forwarder(i);
    d.add(f.forwarded()).add(f.interrupts()).add(f.polls()).add(f.stalls());
  }
  for (std::size_t i = 0; i < tb.vswitch_count(); ++i) {
    auto& v = tb.vswitch(i);
    d.add(v.received()).add(v.matched()).add(v.shaped_drops()).add(v.fault_drops());
  }
  auto& plane = tb.rtt_plane();
  d.add(plane.recorded()).add(plane.tx_stamped()).add(plane.tx_forwarded());
  d.add(plane.duplicated()).add(plane.dropped()).add(plane.rx_seen());
  d.add(static_cast<std::uint64_t>(plane.in_flight())).add(plane.windows_closed());
  if (const auto* win = plane.latest_window()) {
    d.add(win->count).add(win->dropped).add(win->min_ns).add(win->max_ns);
    d.add(win->p50).add(win->p99).add(win->p999);
    for (const auto& g : win->groups) d.add(g.count).add(g.p50).add(g.p99).add(g.p999);
  }
  d.add(tb.fault_fires());
  w.digest(d);
  return d.hex();
}

struct Counts {
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_deliveries = 0;  // frames that reached an RX path, FCS-bad included
  std::uint64_t crc_errors = 0;
  std::uint64_t rx_ring_drops = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_fault_drops = 0;
  std::uint64_t events = 0;
  std::uint64_t heap_events = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_shard = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t polls = 0;
  std::uint64_t interrupts = 0;
  std::uint64_t vs_received = 0;
  std::uint64_t vs_matched = 0;
  std::uint64_t vs_shaped = 0;
  std::uint64_t rtt_recorded = 0;
  std::uint64_t rtt_windows = 0;
  std::uint32_t rtt_groups = 1;
  std::uint64_t health_ticks = 0;
  std::uint64_t health_checks = 0;
  std::uint64_t rpc_issued = 0;
  std::uint64_t rpc_matched = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t fault_fires = 0;
  std::uint64_t gap_frames = 0;
};

std::uint64_t tx_frames(mtb::Testbed& tb) {
  std::uint64_t n = 0;
  for (const int id : tb.device_ids()) n += tb.port(id).stats().tx_packets;
  return n;
}

Counts read_counts(Workload& w) {
  auto& tb = w.tb();
  Counts c;
  for (const int id : tb.device_ids()) {
    const auto& s = tb.port(id).stats();
    c.tx_frames += s.tx_packets;
    c.rx_deliveries += s.rx_packets + s.crc_errors;
    c.crc_errors += s.crc_errors;
    c.rx_ring_drops += s.rx_ring_drops;
  }
  for (std::size_t i = 0; i < tb.link_count(); ++i) {
    const auto& l = tb.link_at(i);
    c.wire_frames += l.frames_carried();
    c.wire_fault_drops += l.fault_drops() + l.flap_drops();
  }
  auto& rt = tb.runtime();
  for (std::size_t i = 0; i < rt.shard_count(); ++i) {
    auto& q = rt.shard(i);
    c.events += q.executed();
    c.heap_events += q.heap_scheduled();
    c.scheduled += q.heap_scheduled() + q.wheel_scheduled();
    c.busy_ns += q.run_wall_ns();
  }
  c.windows = rt.windows_run();
  c.cross_shard = tb.cross_shard_frames();
  for (std::size_t i = 0; i < tb.forwarder_count(); ++i) {
    auto& f = tb.forwarder(i);
    c.forwarded += f.forwarded();
    c.polls += f.polls();
    c.interrupts += f.interrupts();
  }
  for (std::size_t i = 0; i < tb.vswitch_count(); ++i) {
    auto& v = tb.vswitch(i);
    c.vs_received += v.received();
    c.vs_matched += v.matched();
    c.vs_shaped += v.shaped_drops();
  }
  c.rtt_recorded = tb.rtt_plane().recorded();
  c.rtt_windows = tb.rtt_plane().windows_closed();
  c.rtt_groups = tb.rtt_plane().group_count();
  if (auto* mon = w.monitor()) {
    c.health_ticks = mon->ticks();
    c.health_checks = mon->checkers().checks_run();
  }
  w.rpc_books(c.rpc_issued, c.rpc_matched, c.rpc_timeouts);
  c.fault_fires = tb.fault_fires();
  c.gap_frames = w.gap_frames();
  return c;
}

// --- one repetition ---------------------------------------------------------

/// Times a link: wraps a port's TX sink and accumulates the host time of
/// each on_frame call. Each decorator is only called from its port's shard.
class TimedSink : public mn::FrameSink {
 public:
  explicit TimedSink(mn::FrameSink* inner) : inner_(inner) {}
  void on_frame(const mn::Frame& frame, ms::SimTime tx_start_ps) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_frame(frame, tx_start_ps);
    ns_ += now_ns() - t0;
    ++frames_;
  }
  [[nodiscard]] std::uint64_t ns() const { return ns_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] mn::FrameSink* inner() const { return inner_; }

 private:
  mn::FrameSink* inner_;
  std::uint64_t ns_ = 0;
  std::uint64_t frames_ = 0;
};

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  bool phased = false;
  std::vector<std::string> digests;  // one per window, then the final one
  std::string report;
  std::string health_problem;
  Counts counts;
  std::uint64_t allocs = 0;
  std::uint64_t counted_frames = 0;
  std::vector<double> slice_us;
  /// Frames serialized per host µs (= Mpps) over each 10 ms virtual chunk
  /// but the first (warm-up), and over all of them together.
  std::vector<Chunk> chunks;
  Chunk steady;
  std::uint64_t wire_ns = 0;
  std::uint64_t wire_frames_timed = 0;
  double check_us = 0.0;
  int effective_shards = 1;
};

Rep run_rep(const std::string& name, std::uint64_t seed, int shards, SpanLog* log,
            bool count_allocs, bool time_checks) {
  Rep rep;
  const std::uint64_t t0 = now_ns();
  if (log != nullptr) log->begin("workload.setup");
  auto w = make_workload(name, seed, shards, log);
  if (log != nullptr) log->end();
  rep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  auto& tb = w->tb();
  rep.effective_shards = static_cast<int>(tb.shard_count());
  rep.phased = w->phased();

  std::vector<std::pair<mn::Port*, std::unique_ptr<TimedSink>>> links;
  if (log != nullptr) {
    for (const int id : tb.device_ids()) {
      auto& port = tb.port(id);
      if (port.tx_sink() == nullptr) continue;
      links.emplace_back(&port, std::make_unique<TimedSink>(port.tx_sink()));
      port.set_tx_sink(links.back().second.get());
    }
  }
  const auto wire_ns = [&] {
    std::uint64_t ns = 0;
    for (const auto& l : links) ns += l.second->ns();
    return ns;
  };
  const auto wire_frames = [&] {
    std::uint64_t n = 0;
    for (const auto& l : links) n += l.second->frames();
    return n;
  };
  tb.runtime().add_window_hook(kWindowPs, [&](ms::SimTime due) {
    if (log != nullptr) log->begin("bench.window_hook");
    rep.digests.push_back(window_digest(*w, due));
    if (log != nullptr) log->end();
  });

  // Allocations are counted after a warm-up of the first tenth of the run.
  const ms::SimTime end = w->end_ps();
  const ms::SimTime warm_ps = end / 10;
  std::uint64_t frames_at_arm = 0;
  std::uint64_t allocs_at_arm = 0;
  bool armed = false;
  const std::uint64_t run_t0 = now_ns();
  rep.chunks.reserve(static_cast<std::size_t>(end / (kSlicePs * kChunkSlices)) + 2);
  std::uint64_t chunk_t0 = run_t0;
  std::uint64_t chunk_frames = tx_frames(tb);
  std::uint64_t steady_t0 = 0;
  std::uint64_t steady_frames = 0;
  int slices = 0;
  if (log != nullptr) log->begin("workload.run");
  for (ms::SimTime t = tb.now() + kSlicePs;; t += kSlicePs) {
    t = std::min(t, end);
    if (count_allocs && !armed && t > warm_ps) {
      frames_at_arm = tx_frames(tb);
      allocs_at_arm = alloc_count();
      alloc_counting(true);
      armed = true;
    }
    if (log != nullptr) {
      const std::uint64_t w0 = wire_ns();
      const std::uint64_t f0 = wire_frames();
      log->begin("runtime.slice");
      tb.run_until(t);
      log->add_child_time("wire.link", wire_frames() - f0, wire_ns() - w0);
      rep.slice_us.push_back(static_cast<double>(log->end()) / 1e3);
    } else {
      tb.run_until(t);
    }
    if (++slices % kChunkSlices == 0 || t >= end) {
      const std::uint64_t now = now_ns();
      const std::uint64_t frames = tx_frames(tb);
      if (slices == kChunkSlices) {
        steady_t0 = now;
        steady_frames = frames;
      } else if (frames > chunk_frames) {
        rep.chunks.push_back({1e3 * static_cast<double>(frames - chunk_frames) /
                                  static_cast<double>(now - chunk_t0),
                              static_cast<double>(frames - chunk_frames)});
      }
      chunk_t0 = now;
      chunk_frames = frames;
    }
    if (t >= end) break;
  }
  if (log != nullptr) log->end();
  const std::uint64_t run_t1 = now_ns();
  rep.run_s = static_cast<double>(run_t1 - run_t0) / 1e9;
  const std::uint64_t frames_end = tx_frames(tb);
  if (frames_end > steady_frames && run_t1 > steady_t0)
    rep.steady = {1e3 * static_cast<double>(frames_end - steady_frames) /
                      static_cast<double>(run_t1 - steady_t0),
                  static_cast<double>(frames_end - steady_frames)};
  if (armed) {
    alloc_counting(false);
    rep.allocs = alloc_count() - allocs_at_arm;
    rep.counted_frames = tx_frames(tb) - frames_at_arm;
  }
  rep.wire_ns = wire_ns();
  rep.wire_frames_timed = wire_frames();

  w->finish();
  rep.report = w->report();
  rep.health_problem = w->health_problem();
  rep.counts = read_counts(*w);
  Digest fin;
  fin.add(rep.report).add(window_digest(*w, tb.now()));
  rep.digests.push_back(fin.hex());

  // HealthMonitor::check_now on the finished testbed, for workloads that
  // run a health plane.
  if (mh::HealthMonitor* mon = w->monitor(); time_checks && mon != nullptr) {
    std::vector<double> us;
    for (int i = 0; i < 21; ++i) {
      const std::uint64_t c0 = now_ns();
      mon->check_now();
      us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
    }
    rep.check_us = median(us);
  }
  // Restore the links before the decorators die with this frame.
  for (auto& [port, sink] : links) port->set_tx_sink(sink->inner());
  return rep;
}

// --- reference --------------------------------------------------------------

/// perfbench/reference.txt: one line per workload and scenario seed,
/// `<workload> <seed> <digest>...`, the last digest being the final one.
std::map<std::string, std::vector<std::string>> load_reference(const std::string& path) {
  std::map<std::string, std::vector<std::string>> ref;
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read the reference digests " + path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string workload;
    std::string seed;
    is >> workload >> seed;
    auto& digests = ref[workload + " " + seed];
    std::string d;
    while (is >> d) digests.push_back(d);
  }
  return ref;
}

/// Compares a repetition's digests with the reference and adds them to
/// the result's books: one operation per window, the last of which (the
/// final digest) also fails on a health-plane violation.
void check_rep(const Rep& rep, const std::vector<std::string>* ref, Result& r) {
  const std::size_t n = rep.digests.size();
  r.attempted += n;
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = ref != nullptr && ref->size() == n && (*ref)[i] == rep.digests[i];
    const bool healthy = i + 1 < n || rep.health_problem.empty();
    if (!ok) {
      r.fail(ref == nullptr ? "no reference digests for this workload and seed"
                            : "window " + std::to_string(i) + " digest " + rep.digests[i] +
                                  " differs from the reference");
    }
    if (!healthy) r.fail("health: " + rep.health_problem);
    if (!ok || !healthy) ++r.failed;
  }
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "l2_fwd" || name == "vswitch_ddos" || name == "chaos_soak";
}

Result run_sim_workload(const Options& opt) {
  Result r;
  // Seeds 1..16 map to themselves, so --seed N names the example's --seed N.
  const std::uint64_t scenario_seed = 1 + (opt.seed + kSeedVariants - 1) % kSeedVariants;
  const int shards = opt.shards > 0 ? opt.shards : 1;
  r.requested_shards = shards;

  if (opt.report || opt.record) {
    const Rep rep = run_rep(opt.workload, scenario_seed, shards, nullptr, false, false);
    if (opt.report) {
      std::fputs(rep.report.c_str(), stdout);
    } else {
      std::printf("%s %llu", opt.workload.c_str(), static_cast<ull>(scenario_seed));
      for (const auto& d : rep.digests) std::printf(" %s", d.c_str());
      std::printf("\n");
    }
    if (!rep.health_problem.empty()) r.fail(rep.health_problem);
    return r;
  }

  const auto reference = load_reference(opt.reference_path);
  const auto it = reference.find(opt.workload + " " +
                                 std::to_string(reference_seed(opt.workload, scenario_seed)));
  const std::vector<std::string>* ref = it == reference.end() ? nullptr : &it->second;
  const auto account = [&](const Rep& rep) {
    r.effective_shards = rep.effective_shards;
    check_rep(rep, ref, r);
  };
  // The output-check repetition, untimed and before the measured phase.
  Rep sharded;
  if (const int k = check_shards(opt.workload); k > 0) {
    sharded = run_rep(opt.workload, scenario_seed, k, nullptr, false, false);
    account(sharded);
  }

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<Chunk> chunks;
  std::vector<double> allocs_per_kframe;
  // Set-up samples are all warm (taken right after a repetition, never the
  // process's first build) and spread over the run; teardown is not timed.
  const auto time_setups = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t t0 = now_ns();
      const auto w = make_workload(opt.workload, scenario_seed, shards, nullptr);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
  };

  if (!opt.trace) {
    while (rate.size() < 3 || now_ns() < deadline) {
      const Rep rep = run_rep(opt.workload, scenario_seed, shards, nullptr, true, false);
      account(rep);
      rate.push_back(static_cast<double>(rep.counts.tx_frames) / rep.run_s / 1e6);
      // A phased workload's chunks differ by design, so each repetition is
      // one sample; the others sample every 10 ms chunk.
      if (rep.phased)
        chunks.push_back(rep.steady);
      else
        chunks.insert(chunks.end(), rep.chunks.begin(), rep.chunks.end());
      std::fprintf(stderr, "%s rep %zu: set-up %.6f s, run %.4f s, %.4f Mpps\n",
                   opt.workload.c_str(), rate.size(), rep.setup_s, rep.run_s, rate.back());
      allocs_per_kframe.push_back(1e3 * ratio(rep.allocs, rep.counted_frames));
      time_setups(kSetupsPerRep);
    }
    if (setup_s.size() < kSetupSamples) time_setups(kSetupSamples - setup_s.size());
    r.add("sustained_mpps", sustained_rate(chunks, kSustainedQuantile), "Mpps");
    std::fprintf(stderr, "%s: median %.4f Mpps over %zu repetitions\n", opt.workload.c_str(),
                 median(rate), rate.size());
    r.add("setup_s", setup_time(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("allocs_per_kframe", median(allocs_per_kframe), "count");
    return r;
  }

  // Traced run: untraced and traced repetitions alternate; the untraced
  // ones give the operation counts and the host time the spans must explain.
  SpanLog log;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> slice_us;
  std::vector<double> build_ms;
  std::vector<double> check_us;
  Rep plain;
  std::uint64_t wire_ns = 0;
  std::uint64_t wire_frames = 0;
  while (traced_s.empty() || now_ns() < deadline) {
    plain = run_rep(opt.workload, scenario_seed, shards, nullptr, false, false);
    account(plain);
    plain_s.push_back(plain.run_s);
    const auto build_before = log.aggregate("testbed.build").total_ns;
    const Rep traced = run_rep(opt.workload, scenario_seed, shards, &log, false, true);
    account(traced);
    traced_s.push_back(traced.run_s);
    build_ms.push_back(static_cast<double>(log.aggregate("testbed.build").total_ns - build_before) /
                       1e6);
    slice_us.insert(slice_us.end(), traced.slice_us.begin(), traced.slice_us.end());
    check_us.push_back(traced.check_us);
    wire_ns += traced.wire_ns;
    wire_frames += traced.wire_frames_timed;
  }

  std::map<std::string, double> v;
  SimLayers layers;
  layers.forwarder = plain.counts.forwarded > 0;
  layers.vswitch = plain.counts.vs_received > 0;
  layers.rtt = plain.counts.rtt_recorded > 0;
  layers.rtt_groups = plain.counts.rtt_groups;
  measure_sim_layers(layers, v);
  const double nic_tx = v["nic.tx_ns_per_frame"];
  const double nic_rx = v["nic.rx_ns_per_frame"];
  const double fwd = v["fwd.ns_per_frame"];
  const double vsw = v["vswitch.ns_per_frame"];
  const double rtt_update = v["rtt.ns_per_update"];
  const double rtt_close = v["rtt.window_close_us"];
  const Counts& c = plain.counts;
  v["sim.events_per_frame"] = ratio(c.events, c.tx_frames);
  v["sim.ns_per_event"] = ratio(c.busy_ns, c.events);
  v["sim.heap_share"] = ratio(c.heap_events, c.scheduled);
  const double plain_wall_ns = median(plain_s) * 1e9;
  const double busy_share =
      static_cast<double>(c.busy_ns) / (plain.run_s * 1e9 * plain.effective_shards);
  // The parallel runtime's windows, cross-shard traffic and barrier waits
  // are those of the multi-shard check repetition, when the workload has
  // one (one shard runs no windows).
  const Rep& multi = sharded.effective_shards > 1 ? sharded : plain;
  v["runtime.windows"] = static_cast<double>(multi.counts.windows);
  v["runtime.events_per_window"] = ratio(multi.counts.events, multi.counts.windows);
  v["runtime.cross_shard_frames"] = static_cast<double>(multi.counts.cross_shard);
  v["runtime.barrier_wait_share"] =
      multi.effective_shards > 1
          ? 1.0 - static_cast<double>(multi.counts.busy_ns) /
                      (multi.run_s * 1e9 * multi.effective_shards)
          : 0.0;
  v["runtime.slice_us_p50"] = quantile(slice_us, 0.5);
  v["runtime.slice_us_p99"] = quantile(slice_us, 0.99);
  v["nic.tx_frames"] = static_cast<double>(c.tx_frames);
  v["nic.gap_share"] = ratio(c.gap_frames, c.tx_frames);
  v["nic.crc_rejects"] = static_cast<double>(c.crc_errors);
  v["nic.rx_ring_drops"] = static_cast<double>(c.rx_ring_drops);
  v["wire.frames"] = static_cast<double>(c.wire_frames);
  const double wire = ratio(wire_ns, wire_frames);
  v["wire.ns_per_frame"] = wire;
  v["wire.fault_drops"] = static_cast<double>(c.wire_fault_drops);
  v["fwd.frames_per_poll"] = ratio(c.forwarded, c.polls);
  v["fwd.interrupts"] = static_cast<double>(c.interrupts);
  v["vswitch.match_share"] = ratio(c.vs_matched, c.vs_received);
  v["vswitch.shaped_drop_share"] = ratio(c.vs_shaped, c.vs_received);
  v["rtt.recorded"] = static_cast<double>(c.rtt_recorded);
  v["health.ticks"] = static_cast<double>(c.health_ticks);
  v["health.checks"] = static_cast<double>(c.health_checks);
  v["health.check_us"] = median(check_us);
  v["rpc.issued"] = static_cast<double>(c.rpc_issued);
  v["rpc.match_share"] = ratio(c.rpc_matched, c.rpc_issued);
  v["rpc.timeouts"] = static_cast<double>(c.rpc_timeouts);
  v["fault.fires"] = static_cast<double>(c.fault_fires);
  v["testbed.build_ms"] = median(build_ms);

  // Composition (paper §5.6.3): each layer's own cost per operation times
  // the untraced run's exact operation count, over its measured host time.
  // The forwarder and vswitch harnesses include their ports' RX and TX work,
  // which the nic terms already count.
  const double hook_ns = static_cast<double>(log.aggregate("bench.window_hook").total_ns) /
                         static_cast<double>(traced_s.size());
  const double explained =
      nic_tx * static_cast<double>(c.tx_frames) + nic_rx * static_cast<double>(c.rx_deliveries) +
      wire * static_cast<double>(c.wire_frames) +
      std::max(0.0, fwd - nic_rx - nic_tx) * static_cast<double>(c.forwarded) +
      std::max(0.0, vsw - nic_rx - nic_tx) * static_cast<double>(c.vs_received) +
      rtt_update * static_cast<double>(c.rtt_recorded) +
      rtt_close * 1e3 * static_cast<double>(c.rtt_windows) +
      median(check_us) * 1e3 * static_cast<double>(c.health_ticks) + hook_ns;
  const double wait_ns =
      plain.effective_shards > 1 ? (1.0 - busy_share) * plain_wall_ns * plain.effective_shards : 0.0;
  v["compose.coverage"] = (explained + wait_ns) / (plain_wall_ns * plain.effective_shards);
  v["trace.overhead"] = median(traced_s) / median(plain_s) - 1.0;
  std::fprintf(stderr,
               "%s: untraced run %.3f s, traced %.3f s; explained %.3f s of %.3f s host time\n",
               opt.workload.c_str(), median(plain_s), median(traced_s),
               (explained + wait_ns) / 1e9, plain_wall_ns * plain.effective_shards / 1e9);
  emit_layer_metrics(r, v);
  if (!write_trace_file(opt, manifest_json(opt, r), log))
    std::fprintf(stderr, "perfbench: cannot write the trace file under %s\n",
                 opt.trace_dir.c_str());
  return r;
}

}  // namespace perfbench
