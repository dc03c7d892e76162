#include "telemetry/stream.hpp"

#include <utility>

#include "telemetry/exporters.hpp"

namespace moongen::telemetry {

TelemetryStream::TelemetryStream(const MetricRegistry& registry, std::string path)
    : registry_(registry), path_(std::move(path)), out_(path_, std::ios::out | std::ios::trunc) {}

void TelemetryStream::tick(std::uint64_t now_ps, const RttWindow* closed) {
  write_json(out_, registry_.snapshot((now_ps + 500) / 1000));
  out_ << '\n';
  if (closed != nullptr) {
    RttPlane::write_window_json(out_, *closed);
    ++windows_streamed_;
  }
  out_.flush();
  ++ticks_;
}

}  // namespace moongen::telemetry
