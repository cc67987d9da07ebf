// population: the megasim. ScenarioScript::standard(16000) runs twice in
// sequence with the same seed on one thread: first with the optimistic
// protocol, then with sessions and a batching window of 16. The script's
// Zipf-skewed publishes, churn and partitions load LightweightPeer's cold
// and session paths, the InterestIndex and SimNetwork accounting; real
// conformance checks (the matrix is built at construction), payload
// serialization and sockets stay out of the timed runs.
//
// A repetition constructs and runs both scenarios. A run cycles through
// kScenarios scenario seeds derived from --seed, each for two repetitions
// in a row (the repeat must reproduce the same digests), and goes on in
// whole cycles until the runs have taken the requested seconds. So the
// scenarios timed depend on the seed alone; speed only changes how many
// cycles a run makes.
//
// Without per-push spans inside the megasim, the latency metrics read as
// wall time per push of one Scenario::run: push_* over the session-batched
// runs, first_push_* over the optimistic runs (the cold protocol, where
// each receiver meets each type through a description fetch).
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

using pti::sim::Scenario;
using pti::sim::ScenarioConfig;
using pti::sim::ScenarioResult;
using pti::sim::ScenarioScript;

constexpr std::size_t kPeers = 16000;
constexpr std::size_t kScenarios = 2;
constexpr std::size_t kCycle = 2 * kScenarios;  ///< repetitions per cycle

ScenarioConfig config_for(std::uint64_t seed, std::size_t rep, bool batched) {
  ScenarioConfig config;
  config.seed = derive(seed, 31 + (rep / 2) % kScenarios);
  config.peers = kPeers;
  config.types = 64;
  config.type_groups = 16;
  config.mode = pti::transport::ProtocolMode::Optimistic;
  if (batched) {
    config.use_sessions = true;
    config.session_batch = 16;
  }
  return config;
}

std::uint64_t pushes(const pti::sim::ScenarioStats& s) { return s.accepts + s.rejects; }

/// Replays on the scenario's own index, network and universe.
void replay_layers(Scenario& scenario, Report& report) {
  constexpr std::size_t kCalls = 2000;
  auto& universe = scenario.universe();
  const auto families = static_cast<std::uint32_t>(universe.type_count());
  std::vector<double> match;
  for (std::uint32_t family = 0; family < families; ++family) {
    std::size_t subscribers = 0;
    const auto samples = time_index_match(
        scenario.interests(),
        [&](const pti::transport::InterestEntry& e) {
          const std::uint32_t interest = universe.interest_of_id(e.interest);
          return interest != pti::sim::TypeUniverse::kNoType &&
                 universe.conforms(family, interest);
        },
        kCalls / families, subscribers);
    match.insert(match.end(), samples.begin(), samples.end());
  }
  put(report, "transport.index_match_p50_us", median(match));
  put(report, "transport.raw_exchange_p50_us",
      median(time_raw_exchange(scenario.network(), "pop", kCalls)));

  std::vector<std::string> xml;
  for (std::uint32_t f = 0; f < families; ++f) xml.push_back(universe.description_xml(f));
  put(report, "serial.typedesc_parse_p50_us", median(replay_typedesc_parse(xml, 10)));
  put(report, "reflect.registry_size", static_cast<double>(universe.domain().registry().size()));
}

}  // namespace

Report run_population(const Options& options) {
  Report report;
  const ScenarioScript script = ScenarioScript::standard(kPeers);
  PerRep untraced;
  std::vector<double> setups;
  std::vector<double> builds;
  double traced_run_s = 0.0, untraced_run_s = 0.0;
  std::uint64_t traced_deliveries = 0, untraced_deliveries = 0;
  // Exact counters come from the first cycle, which every run makes, so
  // they repeat exactly for a seed.
  std::uint64_t exact_pushes = 0, exact_deliveries = 0, exact_bytes = 0;
  std::array<ScenarioResult, 2> previous;  ///< the pair partner's results, by mode
  std::array<ScenarioResult, 2> first;     ///< repetition 0's results, by mode
  double measured = 0.0;

  for (std::size_t rep = 0; rep < kCycle || measured < options.seconds || rep % kCycle != 0; ++rep) {
    const bool trace_rep = options.trace && rep % 2 == 1;
    Tracer tracer;
    Tracer* t = trace_rep ? &tracer : nullptr;
    double setup = 0.0, rep_run = 0.0;
    std::uint64_t rep_pushes = 0, rep_deliveries = 0;
    std::array<ScenarioResult, 2> results;
    for (int mode = 0; mode < 2; ++mode) {
      const bool batched = mode == 1;
      auto t0 = Clock::now();
      auto scenario = std::make_unique<Scenario>(config_for(options.seed, rep, batched));
      const double build = seconds_since(t0);
      t0 = Clock::now();
      {
        Tracer::Scope span(t, SpanKind::SimRun);
        results[mode] = scenario->run(script);
      }
      const double run = seconds_since(t0);
      setup += build;
      rep_run += run;
      measured += run;
      const auto& s = results[mode].stats;
      report.attempted += s.deliveries;
      rep_pushes += pushes(s);
      rep_deliveries += s.deliveries;
      if (s.accepts + s.rejects + s.drops != s.deliveries) {
        report.breach("deliveries do not add up to accepts + rejects + drops");
      }
      if (!trace_rep) {
        builds.push_back(build);
        untraced.add(batched ? "run_s.session_batched" : "run_s.optimistic", run);
        untraced.add(batched ? "push_p50_us" : "first_push_p50_us",
                     1e6 * run / static_cast<double>(pushes(s)));
      }
      if (rep < kCycle) {
        exact_pushes += pushes(s);
        exact_deliveries += s.deliveries;
        exact_bytes += s.net_bytes;
      }
      if (trace_rep && batched && rep == 1) replay_layers(*scenario, report);
    }
    if (results[0].accept_digest != results[1].accept_digest) {
      report.breach("session-batched verdicts differ from the optimistic protocol's");
    }
    if (rep % 2 == 1) {
      for (int mode = 0; mode < 2; ++mode) {
        if (results[mode].trace_digest != previous[mode].trace_digest ||
            results[mode].stats_digest != previous[mode].stats_digest) {
          report.breach("a repeat run of the same scenario seed diverged");
        }
      }
    }
    if (rep == 0) first = results;
    previous = results;
    setups.push_back(setup);
    if (trace_rep) {
      traced_run_s += rep_run;
      traced_deliveries += rep_deliveries;
      continue;
    }
    untraced_run_s += rep_run;
    untraced_deliveries += rep_deliveries;
    untraced.add("push_rate", static_cast<double>(rep_pushes) / rep_run);
    untraced.add("sim_delivery_rate", static_cast<double>(rep_deliveries) / rep_run);
  }

  const std::size_t reps = untraced.count("push_rate");
  report.detail["samples.reps"] = static_cast<double>(reps);
  report.detail["exact.wire_bytes_per_push"] =
      ratio(static_cast<double>(exact_bytes), static_cast<double>(exact_pushes));

  if (!options.trace) {
    put(report, "setup_s", median(setups));
    for (const char* name : {"push_rate", "push_p50_us", "first_push_p50_us",
                             "sim_delivery_rate"}) {
      put(report, name, untraced.median_of(name));
    }
    // One sample per run: the p99 of so few is their slowest.
    put(report, "push_p99_us", untraced.percentile_of("push_p50_us", 99));
    put(report, "first_push_p99_us", untraced.percentile_of("first_push_p50_us", 99));
    put(report, "wire_bytes_per_push",
        ratio(static_cast<double>(exact_bytes), static_cast<double>(exact_pushes)));
    put(report, "sim_wire_bytes_per_delivery",
        ratio(static_cast<double>(exact_bytes), static_cast<double>(exact_deliveries)));
    put(report, "peak_rss_mb", peak_rss_mb());
    return report;
  }

  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const auto& so = first[0].stats;
  const auto& sb = first[1].stats;
  put(report, "sim.run_s.optimistic", untraced.median_of("run_s.optimistic"));
  put(report, "sim.run_s.session_batched", untraced.median_of("run_s.session_batched"));
  put(report, "sim.wire_bytes_per_delivery.optimistic", per(so.net_bytes, so.deliveries));
  put(report, "sim.wire_bytes_per_delivery.session_batched", per(sb.net_bytes, sb.deliveries));
  put(report, "sim.messages_per_delivery.optimistic", per(so.net_messages, so.deliveries));
  put(report, "sim.messages_per_delivery.session_batched", per(sb.net_messages, sb.deliveries));
  put(report, "sim.universe_build_s", median(builds));
  put(report, "sim.batch_entries_per_frame",
      per(sb.session_batch_entries, sb.session_batch_frames));
  put(report, "transport.batch_entries_per_frame",
      per(sb.session_batch_entries, sb.session_batch_frames));
  put(report, "sim.accept_ratio", per(so.accepts + sb.accepts, pushes(so) + pushes(sb)));
  put(report, "transport.messages_per_push",
      per(so.net_messages + sb.net_messages, pushes(so) + pushes(sb)));
  const double untraced_rate = ratio(static_cast<double>(untraced_deliveries), untraced_run_s);
  const double traced_rate = ratio(static_cast<double>(traced_deliveries), traced_run_s);
  put(report, "trace.overhead_frac", ratio(untraced_rate - traced_rate, traced_rate));
  return report;
}

}  // namespace perfbench
