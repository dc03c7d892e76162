#include "telemetry/registry.hpp"

#include <map>
#include <optional>
#include <utility>

namespace moongen::telemetry {

MetricTree& MetricRegistry::shard(std::size_t index) {
  std::scoped_lock lock(mutex_);
  while (trees_.size() <= index) trees_.push_back(std::make_unique<MetricTree>());
  return *trees_[index];
}

Snapshot MetricRegistry::snapshot(std::uint64_t timestamp_ns) const {
  // Merge under name-sorted maps: counters sum, gauges last-writer-wins in
  // (tree 0, tree 1, ...) order, histograms merge losslessly.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LogLinearHistogram> hists;
  std::vector<const MetricTree*> trees;
  {
    std::scoped_lock lock(mutex_);
    trees.reserve(trees_.size());
    for (const auto& tree : trees_) trees.push_back(tree.get());
  }
  for (const MetricTree* tree : trees) {
    tree->visit_counters([&](const std::string& name, std::uint64_t v) { counters[name] += v; });
    tree->visit_gauges([&](const std::string& name, double v) { gauges[name] = v; });
    tree->visit_histograms([&](const std::string& name, const LogLinearHistogram& h) {
      auto [it, inserted] = hists.emplace(name, h);
      if (!inserted) it->second.merge(h);
    });
  }
  Snapshot snap;
  snap.timestamp_ns = timestamp_ns;
  snap.counters.reserve(counters.size());
  for (auto& [name, v] : counters) snap.counters.push_back({name, v});
  snap.gauges.reserve(gauges.size());
  for (auto& [name, v] : gauges) snap.gauges.push_back({name, v});
  snap.histograms.reserve(hists.size());
  for (auto& [name, h] : hists) snap.histograms.push_back({name, std::move(h)});
  return snap;
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  std::uint64_t total = 0;
  std::vector<const MetricTree*> trees;
  {
    std::scoped_lock lock(mutex_);
    trees.reserve(trees_.size());
    for (const auto& tree : trees_) trees.push_back(tree.get());
  }
  for (const MetricTree* tree : trees)
    tree->visit_counters([&](const std::string& n, std::uint64_t v) {
      if (n == name) total += v;
    });
  return total;
}

double MetricRegistry::gauge_value(const std::string& name) const {
  double value = 0.0;
  std::vector<const MetricTree*> trees;
  {
    std::scoped_lock lock(mutex_);
    trees.reserve(trees_.size());
    for (const auto& tree : trees_) trees.push_back(tree.get());
  }
  for (const MetricTree* tree : trees)
    tree->visit_gauges([&](const std::string& n, double v) {
      if (n == name) value = v;
    });
  return value;
}

LogLinearHistogram MetricRegistry::histogram_merged(const std::string& name) const {
  std::optional<LogLinearHistogram> merged;
  std::vector<const MetricTree*> trees;
  {
    std::scoped_lock lock(mutex_);
    trees.reserve(trees_.size());
    for (const auto& tree : trees_) trees.push_back(tree.get());
  }
  for (const MetricTree* tree : trees)
    tree->visit_histograms([&](const std::string& n, const LogLinearHistogram& h) {
      if (n != name) return;
      if (merged.has_value())
        merged->merge(h);
      else
        merged = h;
    });
  return merged.has_value() ? *merged : LogLinearHistogram{HistogramConfig{}};
}

std::size_t MetricRegistry::metric_count() const {
  const Snapshot snap = snapshot();
  return snap.counters.size() + snap.gauges.size() + snap.histograms.size();
}

}  // namespace moongen::telemetry
