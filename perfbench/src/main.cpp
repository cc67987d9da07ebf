// pti_perfbench — the end-to-end benchmark.
//
//   pti_perfbench --workload <warm_stream|first_contact|population>
//                 --seed <n> --seconds <s> --trace <0|1>
//   pti_perfbench --selftest [--seed <n>]
//
// Prints a context line (seed, host, build type), a detail line (sample
// counts, exact counters) and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced) or every per-layer metric
// (traced). Exits non-zero if any output was wrong or any push failed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "metrics.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

double load_average() {
  double one = 0.0;
  return getloadavg(&one, 1) == 1 ? one : 0.0;
}

int usage() {
  std::cerr << "usage: pti_perfbench --workload <warm_stream|first_contact|population> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       pti_perfbench --selftest [--seed <n>]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage();
    }
  }
  if (!optimized_build()) {
    std::cerr << "refusing to time an unoptimized build (" << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  if (selftest) return run_selftest(options.seed);
  if (options.seconds <= 0) return usage();

  Report (*workload)(const Options&) = nullptr;
  if (options.workload == "warm_stream") workload = run_warm_stream;
  if (options.workload == "first_contact") workload = run_first_contact;
  if (options.workload == "population") workload = run_population;
  if (workload == nullptr) return usage();

  std::cout << "{\"context\": {\"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"loadavg\": " << number(load_average())
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}}" << std::endl;

  Report report = workload(options);
  const MetricList& list = options.trace ? per_layer_metrics() : end_to_end_metrics();
  fill_missing(report, list);
  for (const auto& [name, value] : report.metrics) {
    bool listed = false;
    for (const auto& entry : list) listed = listed || entry.first == name;
    if (!listed) report.breach("metric " + name + " reported in the wrong run kind");
  }
  if (report.attempted == 0) report.breach("no operation attempted");

  std::ostringstream detail;
  detail << "{\"detail\": {\"error_frac\": "
         << number(ratio(static_cast<double>(report.failed),
                         static_cast<double>(report.attempted)));
  for (const auto& [name, value] : report.detail) {
    detail << ", " << json_string(name) << ": " << number(value);
  }
  detail << ", \"breaches\": [";
  for (std::size_t i = 0; i < report.breaches.size(); ++i) {
    detail << (i ? ", " : "") << json_string(report.breaches[i]);
  }
  detail << "]}}";
  std::cout << detail.str() << std::endl;

  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : list) {
    const auto& [value, metric_unit] = report.metrics.at(name);
    std::cout << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << number(value)
              << ", \"unit\": " << json_string(metric_unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pti_perfbench: " << e.what() << "\n";
    return 1;
  }
}
