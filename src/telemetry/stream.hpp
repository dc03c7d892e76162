// TelemetryStream: the `--json` export, written without perturbing the run.
//
// A week-long soak cannot wait for an end-of-run snapshot, and polling the
// registry from another thread would race the shards. Instead the stream
// is ticked from the RTT plane's window-close hook, at quiesced 100 ms
// boundaries of virtual time: every tick appends one registry snapshot
// line (schema "moongen-telemetry-v1", stamped with virtual time) followed
// by the RTT window that hook just closed (schema "moongen-rtt-window-v1").
// The owner adds one last tick after the run with the end-of-run values.
// The file is newline-delimited JSON, one object per line.
//
// Everything goes to the file, never stdout: an instrumented run's stdout
// stays byte-identical to an uninstrumented one, which is what the CI
// streaming-soak gate asserts.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"

namespace moongen::telemetry {

class TelemetryStream {
 public:
  /// Opens `path` for writing. A path that cannot be opened is not an
  /// error here: it is reported through ok(), like any failed write.
  TelemetryStream(const MetricRegistry& registry, std::string path);
  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  /// Appends one snapshot (timestamped `now_ps`, converted to ns), then
  /// `closed` if given, then flushes. Must run at a quiesced instant.
  void tick(std::uint64_t now_ps, const RttWindow* closed = nullptr);

  /// False once opening, a write or a flush has failed (sticky).
  [[nodiscard]] bool ok() const { return !out_.fail(); }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t windows_streamed() const { return windows_streamed_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  const MetricRegistry& registry_;
  std::string path_;
  std::ofstream out_;
  std::uint64_t ticks_ = 0;
  std::uint64_t windows_streamed_ = 0;
};

}  // namespace moongen::telemetry
