// Shared example command-line handling.
//
// Every example accepts the same experiment flags — previously each one
// re-implemented the strcmp loop (and most silently ignored flags the
// others supported):
//
//   --json FILE     write telemetry to FILE as newline-delimited JSON:
//                   snapshots + RTT windows every 100 ms of virtual time
//                   and a final snapshot (telemetry_out.hpp), or one
//                   snapshot for the examples without a simulated run;
//                   stdout stays byte-identical to a run without it
//   --faults SPEC   install a fault plane (src/fault/fault.hpp language)
//   --seed N        base seed for the scenario (default 1)
//   --shards N      simulation shards for parallel execution (default 1)
//
// Everything else stays positional and is interpreted per example.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace moongen::examples {

struct Cli {
  std::string json_path;
  std::string faults_text;
  fault::FaultSpec faults;
  std::uint64_t seed = 1;
  int shards = 1;
  std::vector<std::string> positional;

  [[nodiscard]] bool has_json() const { return !json_path.empty(); }
  [[nodiscard]] bool has_faults() const { return !faults.empty(); }

  /// Positional argument `i` as a double, or `dflt` when absent.
  [[nodiscard]] double number(std::size_t i, double dflt) const;
  /// Positional argument `i` as a string, or `dflt` when absent.
  [[nodiscard]] std::string arg(std::size_t i, const std::string& dflt = "") const;
};

/// Parses the shared flags out of argv. On error (unknown flag value,
/// malformed --faults spec) prints a message plus `usage` to stderr and
/// returns nullopt; the caller should exit non-zero.
std::optional<Cli> parse_cli(int argc, char** argv, const char* usage);

}  // namespace moongen::examples
