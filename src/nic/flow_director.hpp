// Intel Flow Director: exact-match flow steering.
//
// The paper's receive path assigns queues "via configurable filters (e.g.,
// Intel Flow Director) or hashing on protocol headers (RSS)" (Section
// 3.3). This models the perfect-match filter mode of the 82599/X540:
// masked 5-tuple rules map matching packets to a fixed queue (or drop
// them); everything else falls through to RSS or queue 0.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nic/frame.hpp"
#include "proto/headers.hpp"

namespace moongen::nic {

/// One perfect-match rule. Unset (nullopt) fields match anything.
struct FlowRule {
  std::optional<proto::IPv4Address> src_ip{};
  std::optional<proto::IPv4Address> dst_ip{};
  std::optional<proto::IpProtocol> protocol{};
  std::optional<std::uint16_t> src_port{};
  std::optional<std::uint16_t> dst_port{};

  /// Action: deliver to this queue, or drop when `drop` is set.
  int queue = 0;
  bool drop = false;
};

class FlowDirector {
 public:
  /// Adds a rule; rules are evaluated in insertion order, first match wins
  /// (the hardware's priority semantics for perfect filters).
  void add_rule(FlowRule rule) { rules_.push_back(rule); }
  void clear() { rules_.clear(); }
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }

  struct Verdict {
    bool matched = false;
    bool drop = false;
    int queue = 0;
  };

  /// Matches a frame against the rule table.
  [[nodiscard]] Verdict match(const Frame& frame) const;

  [[nodiscard]] std::uint64_t matches() const { return matches_; }

 private:
  std::vector<FlowRule> rules_;
  mutable std::uint64_t matches_ = 0;
};

}  // namespace moongen::nic
