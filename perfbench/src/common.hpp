// Shared plumbing of the end-to-end benchmark: the seeded input
// generator, sample statistics, the metric sink and the run options.
//
// The benchmark is a client of the library: it reaches the layers only
// through their public headers, exactly as an application would.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// SplitMix64: the only source of randomness in generated inputs, so one
/// `--seed` always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for one purpose of one workload.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t purpose) {
  Rng rng(seed ^ (purpose * 0xD1B54A32D192ED03ull));
  return rng.next();
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one).
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(samples.size()));
  return samples[std::min(rank, samples.size() - 1)];
}

inline double median(const std::vector<double>& samples) { return percentile(samples, 50); }

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One value per repetition for each metric; a run reports the median
/// over its repetitions, so a burst of outside load that hits one
/// repetition does not move the result.
class PerRep {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  [[nodiscard]] double median_of(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] double percentile_of(const std::string& name, double p) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : percentile(it->second, p);
  }
  [[nodiscard]] std::size_t count(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> values_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one workload run reports. `metrics` holds every end-to-end (or,
/// traced, every per-layer) metric; `detail` holds sample counts and the
/// exact counters the steadiness check compares across repeat runs.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> breaches;  ///< correctness failures, first few kept
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> detail;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failure that no other count covers.
  void breach(std::string what) {
    ++failed;
    note(std::move(what));
  }
  /// Keeps the text of a failure already counted in `failed`.
  void note(std::string what) {
    if (breaches.size() < 8) breaches.push_back(std::move(what));
  }
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

Report run_warm_stream(const Options& options);
Report run_first_contact(const Options& options);
Report run_population(const Options& options);
/// What one deterministic, single-threaded pass of a workload sent and
/// decided: the transport's message and byte counts and every verdict.
struct Fingerprint {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<std::string> verdicts;
};
/// One pass of the workload with or without the recording decorator.
Fingerprint fingerprint_warm_stream(std::uint64_t seed, bool recorded);
Fingerprint fingerprint_first_contact(std::uint64_t seed, bool recorded);

/// The recording decorator's self-test; returns the process exit code.
int run_selftest(std::uint64_t seed);

}  // namespace perfbench
