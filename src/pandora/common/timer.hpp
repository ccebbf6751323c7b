#pragma once

#include <chrono>
#include <map>
#include <string>

namespace pandora {

/// Monotonic wall-clock stopwatch used by the benchmark harness and by
/// `exec::Executor::phase`.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named phase timings (sort, contraction, expansion, ...).
/// The paper reports per-phase breakdowns in Figures 12 and 13; the drivers
/// time their phases through `exec::Executor::phase`, and an
/// `exec::ScopedPhaseTimes` collects them into one of these.
class PhaseTimes {
 public:
  void add(const std::string& phase, double seconds) { seconds_[phase] += seconds; }

  [[nodiscard]] double get(const std::string& phase) const {
    auto it = seconds_.find(phase);
    return it == seconds_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] double total() const {
    double t = 0;
    for (const auto& [_, s] : seconds_) t += s;
    return t;
  }

  [[nodiscard]] const std::map<std::string, double>& all() const { return seconds_; }

 private:
  std::map<std::string, double> seconds_;
};

}  // namespace pandora
