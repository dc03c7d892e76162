// Standalone layer harnesses for the traced run: each times calls into one
// layer's public functions, outside any simulation, on inputs shaped like
// the workload's. Together with the exact operation counts of an untraced
// run they give each layer's share of a workload's host time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dut/vswitch.hpp"
#include "nic/frame.hpp"

namespace perfbench {

/// Per-packet costs of the fast-path TX loop (alloc a batch, randomise the
/// source IP, offload UDP checksums, send) written as compiled C++.
struct FastPathCosts {
  double loop_ns = 0.0;         ///< per packet, no spans
  double traced_loop_ns = 0.0;  ///< per packet, with one span per call per batch
  double alloc_ns = 0.0;        ///< BufArray::alloc
  double modify_ns = 0.0;       ///< source-IP randomisation
  double cksum_ns = 0.0;        ///< BufArray::offload_udp_checksums
  double send_ns = 0.0;         ///< TxQueue::send
};

/// ddos_isolation's defaults.
constexpr double kDdosShapeMbit = 200.0;
constexpr int kDdosTenants = 2'000;

/// The ddos_isolation tenant table (victim, attacker shaped to
/// `shape_mbit`, `tenants` background tenants) and its frame templates.
moongen::dut::VSwitchConfig ddos_vswitch_config(double shape_mbit, int tenants);
moongen::nic::Frame ddos_tenant_frame(std::uint16_t vid, std::size_t frame_size,
                                      std::uint32_t flow);

/// Times the fast-path TX loop for about `seconds`, once without spans and
/// once with a span around each call of each batch.
FastPathCosts measure_fast_path(std::uint64_t seed, double seconds, SpanLog& log);

/// The simulated layers a workload enters, read from its untraced counts.
struct SimLayers {
  bool forwarder = false;
  bool vswitch = false;
  bool rtt = false;
  std::uint32_t rtt_groups = 1;
};

/// Runs the harness of every layer in `layers` and stores its metric: a
/// port's paced TX path into a counting sink and its RX path fed via
/// Port::deliver_frame (always), the forwarder or the vswitch between ports
/// (their ns/frame include those ports' RX/TX work), proto::classify over
/// the ddos_isolation frame mix (with the vswitch, which classifies every
/// frame), and the RTT plane's record and window close at the workload's
/// flow-group count. Layers not in `layers` are left out of `v`.
void measure_sim_layers(const SimLayers& layers, std::map<std::string, double>& v);

/// Emits every per-layer metric, in BENCHMARK.json order; layers the
/// workload never enters report 0.
void emit_layer_metrics(Result& r, const std::map<std::string, double>& values);

}  // namespace perfbench
