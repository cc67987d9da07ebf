// The benchmark's metric vocabulary: every end-to-end metric (untraced
// runs) and every per-layer metric (traced runs), with units. Every
// workload reports every name of its run's list; a layer a workload does
// not exercise reports 0, which reads "no work in this layer here".
// BENCHMARK.json lists the same names (perfbench/steadiness.py checks).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

using MetricList = std::vector<std::pair<std::string, std::string>>;

inline const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"push_rate", "pushes/s"},
      {"push_p50_us", "us"},
      {"push_p99_us", "us"},
      {"first_push_p50_us", "us"},
      {"first_push_p99_us", "us"},
      {"wire_bytes_per_push", "B"},
      {"sim_delivery_rate", "deliveries/s"},
      {"sim_wire_bytes_per_delivery", "B"},
      {"peak_rss_mb", "MB"},
  };
  return list;
}

inline const MetricList& per_layer_metrics() {
  static const MetricList list = {
      {"core.sender_self_p50_us", "us"},
      {"core.dispatch_p50_us", "us"},
      {"core.publish_p50_us", "us"},
      {"serial.payload_encode_p50_us", "us"},
      {"serial.payload_decode_p50_us", "us"},
      {"serial.frame_encode_p50_us", "us"},
      {"serial.frame_decode_p50_us", "us"},
      {"serial.frame_bytes_per_push", "B"},
      {"serial.typedesc_parse_p50_us", "us"},
      {"transport.exchange_p50_us", "us"},
      {"transport.exchange_p99_us", "us"},
      {"transport.async_exchange_p50_us", "us"},
      {"transport.wire_p50_us", "us"},
      {"transport.handler_self_p50_us", "us"},
      {"transport.typeinfo_exchange_p50_us", "us"},
      {"transport.code_exchange_p50_us", "us"},
      {"transport.raw_exchange_p50_us", "us"},
      {"transport.messages_per_push", "count"},
      {"transport.code_fetch_per_reject", "count"},
      {"transport.session_verdict_hit_ratio", "ratio"},
      {"transport.batch_entries_per_frame", "count"},
      {"transport.session_resets", "count"},
      {"transport.connections_dialed", "count"},
      {"transport.index_match_p50_us", "us"},
      {"conform.check_cold_p50_us.w8", "us"},
      {"conform.check_cold_p50_us.w32", "us"},
      {"conform.check_cold_p50_us.w128", "us"},
      {"conform.check_cached_p50_us", "us"},
      {"conform.cache_hit_ratio", "ratio"},
      {"conform.checks_per_first_push", "count"},
      {"reflect.registry_size", "count"},
      {"proxy.adapt_p50_us", "us"},
      {"sim.run_s.optimistic", "s"},
      {"sim.run_s.session_batched", "s"},
      {"sim.wire_bytes_per_delivery.optimistic", "B"},
      {"sim.wire_bytes_per_delivery.session_batched", "B"},
      {"sim.messages_per_delivery.optimistic", "count"},
      {"sim.messages_per_delivery.session_batched", "count"},
      {"sim.universe_build_s", "s"},
      {"sim.batch_entries_per_frame", "count"},
      {"sim.accept_ratio", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_frac", "ratio"},
  };
  return list;
}

/// Sets `name` to `value` with the unit the vocabulary fixes for it.
inline void put(Report& report, const std::string& name, double value) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [metric, unit] : *list) {
      if (metric == name) {
        report.set(name, value, unit);
        return;
      }
    }
  }
  report.breach("unknown metric " + name);
}

/// Fills every metric of `list` the workload did not report with 0.
inline void fill_missing(Report& report, const MetricList& list) {
  for (const auto& [metric, unit] : list) {
    if (!report.metrics.count(metric)) report.set(metric, 0.0, unit);
  }
}

}  // namespace perfbench
