// script_tx: the paper's Listing-2 transmit loop as a userscript on the
// default (trace-specialised) script VM, sending to an unconnected
// fast-path device on one pinned thread. No event engine runs.
#include <sched.h>

#include <memory>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "harness.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/checksum.hpp"
#include "proto/packet_view.hpp"
#include "script/bindings.hpp"
#include "script/interpreter.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
namespace sc = moongen::script;

namespace perfbench {

namespace {

constexpr const char* kScript = R"(
function setup(seed)
  math.randomseed(seed)
  local dev = device.config(0, 1, 1)
  local mem = memory.createMemPool(function(buf)
    buf:getUdpPacket():fill{
      pktLength = 60,
      ethDst = "10:11:12:13:14:15",
      ipDst = "192.168.1.1",
      udpSrc = 1234,
      udpDst = 319,
    }
  end)
  return dev:getTxQueue(0), mem, mem:bufArray(64)
end

function run(queue, mem, bufs, n)
  local baseIP = parseIPAddress("10.0.0.1")
  local sent = 0
  while sent < n do
    bufs:alloc(60)
    for _, buf in ipairs(bufs) do
      buf:getUdpPacket().ip.src:set(baseIP + math.random(256) - 1)
    end
    bufs:offloadUdpChecksums()
    sent = sent + queue:send(bufs)
  end
  return sent
end

function master() end
)";

constexpr std::uint32_t kBaseIp = 0x0a000001;  // 10.0.0.1
constexpr double kChunkPackets = 1 << 19;
/// Set-ups are timed after every kSetupEvery-th measured chunk, and at
/// least kSetupRuns times in all, so they sample the whole run.
constexpr std::size_t kSetupEvery = 8;
constexpr std::size_t kSetupRuns = 60;

/// One parsed and compiled script with its pool prefilled: the set-up a
/// user pays before the first packet.
struct ScriptSetup {
  std::unique_ptr<sc::ScriptRuntime> runtime;
  sc::Value queue;
  sc::Value mem;
  sc::Value bufs;
};

ScriptSetup set_up(std::uint64_t seed) {
  ScriptSetup s;
  s.runtime = std::make_unique<sc::ScriptRuntime>(kScript);
  s.runtime->run_master();
  auto values = s.runtime->master().call_global(
      "setup", {sc::Value(static_cast<double>(seed % (1ull << 52)))});
  s.queue = values.at(0);
  s.mem = values.at(1);
  s.bufs = values.at(2);
  return s;
}

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Checks a frame the way the NIC would emit it: a well-formed IPv4/UDP
/// header, a source IP in the script's 256-address range, and a UDP
/// checksum that, finished from the offloaded pseudo-header sum as the NIC
/// does, equals a software checksum of the final bytes (a stale or
/// misplaced pseudo-header sum fails). The IPv4 header checksum is the
/// NIC's to fill under offload, so it is not checked here.
bool frame_ok(mb::PktBuf& buf) {
  if (buf.length() != 60) return false;
  mp::UdpPacketView view{buf.bytes()};
  auto& ip = view.ip();
  if (ip.version() != 4 || ip.header_length() != 20 || ip.protocol != 17 ||
      ip.total_length() != 46)
    return false;
  const std::uint32_t src = mp::ntoh32(ip.src_be);
  if (src < kBaseIp || src >= kBaseIp + 256) return false;
  const auto l4 = view.l4_bytes();
  std::uint16_t nic_cksum = mp::checksum_finish(mp::checksum_partial(l4));
  if (nic_cksum == 0) nic_cksum = 0xffff;  // RFC 768, as the software checksum does
  std::vector<std::uint8_t> zeroed(l4.begin(), l4.end());
  zeroed[6] = zeroed[7] = 0;
  return nic_cksum == mp::udp_checksum_ipv4(ip, zeroed);
}

/// Re-allocates the most recently recycled batch from the pool (its bytes
/// are what the queue sent) and checks each frame; returns the failures.
std::uint64_t check_sent_frames(mb::Mempool& pool, std::uint64_t& checked) {
  mb::BufArray sample(pool, mb::BufArray::kDefaultBatch);
  sample.alloc(60);
  std::uint64_t bad = 0;
  for (auto* buf : sample) bad += frame_ok(*buf) ? 0 : 1;
  checked += sample.size();
  sample.free_all();
  return bad;
}

}  // namespace

Result run_script_tx(const Options& opt) {
  Result r;
  pin_to_current_cpu();

  // The first set-up is cold and untimed; it is the one that sends. The
  // timed ones configure the same device (a no-op for an existing one),
  // build their own pool and never send.
  ScriptSetup s = set_up(opt.seed);
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    const std::uint64_t t0 = now_ns();
    const ScriptSetup extra = set_up(opt.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  auto& interp = s.runtime->master();
  const sc::Value run_fn = interp.get_global("run");
  auto& queue = mc::DeviceTable::process_default().find(0)->get_tx_queue(0);
  auto& pool = *s.mem.as_userdata()->as<mb::Mempool>();

  std::uint64_t requested = 0;
  std::uint64_t sent = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t checked = 0;
  const auto run_chunk = [&]() -> double {
    std::vector<sc::Value> args{s.queue, s.mem, s.bufs, sc::Value(kChunkPackets)};
    const std::uint64_t t0 = now_ns();
    const auto ret = interp.call(run_fn, std::move(args));
    const std::uint64_t dt = now_ns() - t0;
    requested += static_cast<std::uint64_t>(kChunkPackets);
    sent += ret.empty() ? 0 : static_cast<std::uint64_t>(ret[0].as_number());
    return static_cast<double>(dt) / kChunkPackets;  // ns per packet
  };

  // Warm-up: the trace tier records and installs its kernels here.
  for (int i = 0; i < 2; ++i) run_chunk();
  bad_frames += check_sent_frames(pool, checked);

  std::vector<double> ns_per_pkt;
  std::uint64_t allocs = 0;
  std::uint64_t counted_packets = 0;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  while (ns_per_pkt.size() < 5 || now_ns() < deadline) {
    const std::uint64_t a0 = alloc_count();
    alloc_counting(true);
    ns_per_pkt.push_back(run_chunk());
    alloc_counting(false);
    allocs += alloc_count() - a0;
    counted_packets += static_cast<std::uint64_t>(kChunkPackets);
    bad_frames += check_sent_frames(pool, checked);
    if (ns_per_pkt.size() % kSetupEvery == 0) time_setup();
  }
  while (setup_s.size() < kSetupRuns) time_setup();

  const std::uint64_t unsent = requested - std::min(requested, sent);
  if (sent != requested) r.fail("script sent " + std::to_string(sent) + " of " +
                                std::to_string(requested) + " packets");
  if (queue.sent_packets() != sent) r.fail("queue counted a different number of packets");
  if (queue.dropped() != 0) r.fail("queue dropped " + std::to_string(queue.dropped()));
  if (queue.short_batches() != 0)
    r.fail("queue saw " + std::to_string(queue.short_batches()) + " short batches");
  if (bad_frames != 0)
    r.fail(std::to_string(bad_frames) + " of " + std::to_string(checked) +
           " sampled frames failed the output check");
  r.attempted = requested;
  r.failed = unsent + queue.dropped() + bad_frames;

  const double script_ns = median(ns_per_pkt);
  if (!opt.trace) {
    std::vector<Chunk> chunks;
    for (const double ns : ns_per_pkt) chunks.push_back({1e3 / ns, kChunkPackets});
    r.add("sustained_mpps", sustained_rate(chunks, kSustainedQuantile), "Mpps");
    r.add("setup_s", setup_time(setup_s), "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
    r.add("allocs_per_kframe",
          1e3 * static_cast<double>(allocs) / static_cast<double>(counted_packets), "count");
    std::fprintf(stderr,
                 "script_tx: median %.3f Mpps on one core (10 GbE line rate: 14.88 Mpps); "
                 "%zu chunks of %.0f packets, Mpps p10 %.3f p25 %.3f p75 %.3f p90 %.3f\n",
                 1e3 / script_ns, ns_per_pkt.size(), kChunkPackets,
                 1e3 / quantile(ns_per_pkt, 0.9), 1e3 / quantile(ns_per_pkt, 0.75),
                 1e3 / quantile(ns_per_pkt, 0.25), 1e3 / quantile(ns_per_pkt, 0.1));
  } else {
    SpanLog log;
    std::map<std::string, double> v;
    const FastPathCosts fp = measure_fast_path(opt.seed, 1.5, log);
    v["membuf.alloc_ns_per_pkt"] = fp.alloc_ns;
    v["proto.cksum_ns_per_pkt"] = fp.cksum_ns;
    v["core.send_ns_per_pkt"] = fp.send_ns;
    v["core.tx_dropped"] = static_cast<double>(queue.dropped());
    v["core.short_batches"] = static_cast<double>(queue.short_batches());
    v["script.vm_ns_per_pkt"] = script_ns - fp.loop_ns;
    v["script.setup_ms"] = setup_time(setup_s) * 1e3;
    v["compose.coverage"] = (fp.alloc_ns + fp.modify_ns + fp.cksum_ns + fp.send_ns) / script_ns;
    v["trace.overhead"] = fp.traced_loop_ns / fp.loop_ns - 1.0;
    std::fprintf(stderr,
                 "script_tx: script %.2f ns/pkt, compiled loop %.2f ns/pkt "
                 "(alloc %.2f, modify %.2f, offload %.2f, send %.2f)\n",
                 script_ns, fp.loop_ns, fp.alloc_ns, fp.modify_ns, fp.cksum_ns, fp.send_ns);
    emit_layer_metrics(r, v);
    if (!write_trace_file(opt, manifest_json(opt, r), log))
      std::fprintf(stderr, "perfbench: cannot write the trace file under %s\n",
                   opt.trace_dir.c_str());
  }
  queue.reset();  // the script's pool dies before the process-wide device table
  return r;
}

}  // namespace perfbench
