// The one serialized form of a registry snapshot: a single-line JSON
// object, schema "moongen-telemetry-v1" (DESIGN.md Section 7). Histograms
// are written with their quantiles and every non-empty bucket, so a
// consumer can re-derive any percentile.
//
// The `--json` file of the virtual-time examples is a newline-delimited
// stream of these lines (TelemetryStream, stream.hpp); the wall-clock
// benches and one-shot examples write a single line (dump_json_to_file).
#pragma once

#include <ostream>
#include <string>

#include "telemetry/registry.hpp"

namespace moongen::telemetry {

/// One snapshot as a JSON object (schema "moongen-telemetry-v1"), without
/// a trailing newline.
void write_json(std::ostream& os, const Snapshot& snapshot);

/// Convenience: write one JSON snapshot line to `path`. Returns false on
/// any I/O failure, including one that only shows when the buffered data
/// is flushed (a full disk), instead of throwing (benches report and move
/// on).
bool dump_json_to_file(const std::string& path, const Snapshot& snapshot);

}  // namespace moongen::telemetry
