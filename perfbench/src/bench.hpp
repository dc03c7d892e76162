// Shared pieces of the repository benchmark: options, results, the
// allocation counter, output digests and the in-memory span log.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run one repetition and print the example-format report only.
  bool report = false;
  /// Run one repetition and print its window digests as a reference line.
  bool record = false;
  /// Shard count override (0: one shard); record_reference.py records
  /// chaos_soak at one and two shards and requires equal digests.
  int shards = 0;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string reference_path = "perfbench/reference.txt";
  std::string trace_dir = ".bench_build/traces";
  /// CPUs this process may run on, read before any thread is pinned.
  int cpus_allowed = 0;
  std::vector<std::string> argv;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  int requested_shards = 1;
  int effective_shards = 1;
  /// First few check failures, reported on stderr.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what) {
    correct = false;
    if (problems.size() < 16) problems.push_back(std::move(what));
  }
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One measured chunk of work: `ops` operations (packets or frames) done at
/// `rate` operations per unit time.
struct Chunk {
  double rate = 0.0;
  double ops = 0.0;
};

/// The sustained rate: the rate that `1 - q` of all operations met or
/// exceeded (the q-quantile of rate, weighting each chunk by its
/// operations). On a shared host whose speed switches between states for
/// seconds at a time, a low quantile tracks the slower state steadily
/// where the median flips between states from run to run.
inline double sustained_rate(std::vector<Chunk> chunks, double q) {
  if (chunks.empty()) return 0.0;
  std::sort(chunks.begin(), chunks.end(),
            [](const Chunk& a, const Chunk& b) { return a.rate < b.rate; });
  double total = 0.0;
  for (const auto& c : chunks) total += c.ops;
  double seen = 0.0;
  for (const auto& c : chunks) {
    seen += c.ops;
    if (seen >= q * total) return c.rate;
  }
  return chunks.back().rate;
}
/// The reported throughput is the rate 95% of operations met.
constexpr double kSustainedQuantile = 0.05;

/// The reported set-up time: the median of many warm set-ups spread over
/// the run (on a shared host it varies less from run to run than a low
/// quantile or the minimum of the same samples).
inline double setup_time(const std::vector<double>& samples) {
  std::fprintf(stderr, "set-up over %zu samples: min %.6f p5 %.6f p25 %.6f p50 %.6f p75 %.6f s\n",
               samples.size(), quantile(samples, 0.0), quantile(samples, 0.05),
               quantile(samples, 0.25), quantile(samples, 0.5), quantile(samples, 0.75));
  return median(samples);
}

// --- allocation counter (alloc_counter.cpp replaces global operator new) ----

/// Starts or stops counting heap allocations (all threads).
void alloc_counting(bool on);
/// Allocations counted while counting was on.
std::uint64_t alloc_count();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// --- output digests ---------------------------------------------------------

/// FNV-1a over a sequence of values: one digest per checked window.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    return add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- spans ------------------------------------------------------------------

/// In-memory span log for one thread. Spans nest: a span begun while
/// another is open is its child, and a span's self time is its duration
/// minus the time its children cover. Per-name aggregates are exact; raw
/// spans are kept up to a cap and written to the trace file at the end.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root or an unkept parent
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  explicit SpanLog(std::size_t keep = 20000) : keep_(keep) {}

  void begin(const char* name) {
    Open o{name, now_ns(), 0, -1};
    if (spans_.size() < keep_) {
      o.kept = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({name, o.start_ns, 0, stack_.empty() ? -1 : stack_.back().kept});
    }
    stack_.push_back(o);
  }
  /// Ends the innermost open span; returns its duration.
  std::uint64_t end() {
    const std::uint64_t t = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t - o.start_ns;
    if (o.kept >= 0) spans_[static_cast<std::size_t>(o.kept)].end_ns = t;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    auto& a = slot(o.name);
    a.count += 1;
    a.total_ns += dur;
    a.self_ns += dur - std::min(dur, o.child_ns);
    return dur;
  }
  /// Folds time measured elsewhere (per-frame decorators) in as children of
  /// the innermost open span, so its self time excludes them.
  void add_child_time(const char* name, std::uint64_t count, std::uint64_t ns) {
    if (!stack_.empty()) stack_.back().child_ns += ns;
    auto& a = slot(name);
    a.count += count;
    a.total_ns += ns;
    a.self_ns += ns;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::pair<const char*, Aggregate>>& aggregates() const {
    return by_name_;
  }
  [[nodiscard]] Aggregate aggregate(const char* name) const {
    for (const auto& [n, a] : by_name_)
      if (std::strcmp(n, name) == 0) return a;
    return {};
  }

 private:
  struct Open {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int32_t kept;
  };
  /// Span names are string literals: the address usually matches first.
  Aggregate& slot(const char* name) {
    for (auto& [n, a] : by_name_)
      if (n == name || std::strcmp(n, name) == 0) return a;
    return by_name_.emplace_back(name, Aggregate{}).second;
  }

  std::size_t keep_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<std::pair<const char*, Aggregate>> by_name_;
};

/// Writes the span log (aggregates plus kept raw spans) and the manifest to
/// `<dir>/<workload>-seed<seed>.json`. Returns false if the file cannot be
/// written.
bool write_trace_file(const Options& opt, const std::string& manifest_json, const SpanLog& log);

/// Host and build description carried by every result.
std::string manifest_json(const Options& opt, const Result& r);

// --- workloads --------------------------------------------------------------

Result run_script_tx(const Options& opt);
/// l2_fwd, vswitch_ddos and chaos_soak.
Result run_sim_workload(const Options& opt);
bool is_sim_workload(const std::string& name);

}  // namespace perfbench
