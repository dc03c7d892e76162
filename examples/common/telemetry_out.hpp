// The last step of an example's `--json FILE` export.
//
// Examples declare the file with Scenario::stream_telemetry(cli.json_path);
// the testbed then appends a snapshot plus the closed RTT window at every
// 100 ms window of virtual time. finish_telemetry runs once after the run,
// after the end-of-run gauges are set. Header-only, so every build of an
// example links it with nothing but cli.cpp next to it.
#pragma once

#include <cstdio>

#include "testbed/testbed.hpp"

namespace moongen::examples {

/// Publishes (engine counters and Testbed::on_publish callbacks), appends
/// the end-of-run snapshot, and reports the file on stderr — "telemetry
/// written to FILE (...)" or, if opening, any write or any flush failed,
/// "failed to write telemetry to FILE". No-op without a stream.
inline void finish_telemetry(testbed::Testbed& tb) {
  telemetry::TelemetryStream* stream = tb.stream();
  if (stream == nullptr) return;
  tb.publish_telemetry();
  stream->tick(tb.now());
  if (stream->ok())
    std::fprintf(stderr, "telemetry written to %s (%llu snapshots, %llu rtt windows)\n",
                 stream->path().c_str(), static_cast<unsigned long long>(stream->ticks()),
                 static_cast<unsigned long long>(stream->windows_streamed()));
  else
    std::fprintf(stderr, "failed to write telemetry to %s\n", stream->path().c_str());
}

}  // namespace moongen::examples
