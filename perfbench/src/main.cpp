// Repository benchmark: command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit C] [--source-digest D] [--reference FILE] [--trace-dir DIR]
//   perfbench --workload NAME --seed N --report        example-format stdout, one repetition
//   perfbench --workload NAME --seed N --record [--shards K]   one reference.txt line
//
// Workloads: script_tx, l2_fwd, vswitch_ddos, chaos_soak. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The line before it is the run manifest.
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>

#include "bench.hpp"

namespace pb = perfbench;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest round-trip representation: every digit as measured.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return res.ec == std::errc() ? std::string(buf, res.ptr) : std::string("0");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload script_tx|l2_fwd|vswitch_ddos|chaos_soak\n"
               "                 --seed N [--seconds S] [--trace 0|1] [--report] [--record]\n"
               "                 [--shards K] [--commit C] [--source-digest D]\n"
               "                 [--reference FILE] [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

namespace perfbench {

std::string manifest_json(const Options& opt, const Result& r) {
  std::string argv = "[";
  for (std::size_t i = 0; i < opt.argv.size(); ++i)
    argv += (i ? ", \"" : "\"") + json_escape(opt.argv[i]) + "\"";
  argv += "]";
  std::string s = "{\"schema\": \"moongen-run-manifest-v1\"";
  s += ", \"commit\": \"" + json_escape(opt.commit) + "\"";
  s += ", \"source_digest\": \"" + json_escape(opt.source_digest) + "\"";
  s += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  s += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"cpus_allowed\": " + std::to_string(opt.cpus_allowed);
  s += ", \"workload\": \"" + json_escape(opt.workload) + "\"";
  s += ", \"seed\": " + std::to_string(opt.seed);
  s += ", \"seconds\": " + json_number(opt.seconds);
  s += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  s += ", \"requested_shards\": " + std::to_string(r.requested_shards);
  s += ", \"effective_shards\": " + std::to_string(r.effective_shards);
  s += ", \"argv\": " + argv + "}";
  return s;
}

bool write_trace_file(const Options& opt, const std::string& manifest, const SpanLog& log) {
  const std::string path =
      opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"manifest\": " << manifest << ",\n \"aggregates\": {";
  bool first = true;
  for (const auto& [name, a] : log.aggregates()) {
    f << (first ? "\n" : ",\n") << "  \"" << json_escape(name) << "\": {\"count\": " << a.count
      << ", \"total_ns\": " << a.total_ns << ", \"self_ns\": " << a.self_ns << "}";
    first = false;
  }
  f << "},\n \"spans\": [";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << (i ? ",\n" : "\n") << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 0; i < argc; ++i) opt.argv.emplace_back(argv[i]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        opt.trace = std::stoi(argv[++i]) != 0;
      } else if (a == "--shards" && has_value) {
        opt.shards = std::stoi(argv[++i]);
      } else if (a == "--commit" && has_value) {
        opt.commit = argv[++i];
      } else if (a == "--source-digest" && has_value) {
        opt.source_digest = argv[++i];
      } else if (a == "--reference" && has_value) {
        opt.reference_path = argv[++i];
      } else if (a == "--trace-dir" && has_value) {
        opt.trace_dir = argv[++i];
      } else if (a == "--report") {
        opt.report = true;
      } else if (a == "--record") {
        opt.record = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  opt.cpus_allowed = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  if (opt.seconds <= 0.0 || !(opt.workload == "script_tx" || pb::is_sim_workload(opt.workload)))
    return usage();
  if ((opt.report || opt.record) && !pb::is_sim_workload(opt.workload)) return usage();

  pb::Result r;
  try {
    r = opt.workload == "script_tx" ? pb::run_script_tx(opt) : pb::run_sim_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.report || opt.record) return r.correct ? 0 : 1;

  for (const auto& p : r.problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  for (const auto& m : r.metrics)
    std::printf("# %-28s %16s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  std::printf("# error_rate %s (%llu failed of %llu attempted)\n",
              json_number(r.attempted ? static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted)
                                      : 1.0)
                  .c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("manifest: %s\n", pb::manifest_json(opt, r).c_str());
  std::string out = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
