// first_contact: objects of types the receiver has never seen, the
// paper's central case. One client thread drives one sender against a
// fixed pool of receivers over AsyncTransport (2 workers), with the
// default protocol settings: optimistic protocol, SOAP payloads, no
// sessions. Each receiver has 4 interests of width 8, 32 or 128.
//
// A timed step publishes the next fresh type, pushes 1 + k objects of it
// to its receiver (k from 1..5, mean 3) and checks the verdicts: 60% of
// fresh types derive from one of the receiver's interests (every third
// member renamed within the token-subset rule) and are accepted; the rest
// break one getter's signature and are rejected with no code download.
//
// A pass is 160 steps: each of the 32 interests gets 3 accepted types
// (k = 1, 3, 5) and 2 rejected ones (k = 2, 4), in seeded order. Passes differ only in
// fixed-width namespaces, so modelled bytes per push repeat exactly per
// seed. A pass's assemblies and the objects pushed of them are built
// before it starts, outside the timed phase (the first pass's inside
// set-up). A universe runs at most kPassesPerRep passes; then a fresh one
// is set up.
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "conform/conformance_cache.hpp"
#include "core/interop.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "reflect/dyn_object.hpp"
#include "reflect/type_registry.hpp"
#include "transport/async_transport.hpp"
#include "types.hpp"

namespace perfbench {
namespace {

using pti::core::InteropRuntime;
using pti::core::InteropSystem;
using pti::core::TypeHandle;
using pti::transport::DeliveredObject;
using pti::transport::PushAck;

/// Passes per set-up: bounds the types a universe accumulates, so memory
/// does not grow with speed. Set-ups repeat until the phase ends.
constexpr std::size_t kPassesPerRep = 3;
constexpr std::size_t kMinReps = 4;
constexpr std::size_t kReceivers = 8;
constexpr std::size_t kInterests = 4;  ///< per receiver
constexpr std::array<const char*, kInterests> kInterestNames = {"Order", "Quote", "Trade",
                                                                "Asset"};
/// Widths of the 32 interests: weighted toward narrow, order seeded.
constexpr std::array<std::size_t, 3> kWidths = {8, 32, 128};
constexpr std::array<std::size_t, 3> kWidthCounts = {20, 9, 3};

struct Step {
  std::size_t receiver = 0;
  std::size_t interest = 0;  ///< index within the receiver
  bool accept = false;
  std::size_t follow_ups = 0;  ///< k
};

struct Plan {
  std::array<std::array<std::size_t, kInterests>, kReceivers> widths{};
  std::vector<Step> steps;
  std::uint64_t value_seed = 0;
};

Plan make_plan(std::uint64_t seed) {
  Rng rng(derive(seed, 21));
  Plan plan;
  std::vector<std::size_t> widths;
  for (std::size_t w = 0; w < kWidths.size(); ++w) widths.insert(widths.end(), kWidthCounts[w], kWidths[w]);
  rng.shuffle(widths);
  for (std::size_t r = 0; r < kReceivers; ++r) {
    for (std::size_t i = 0; i < kInterests; ++i) plan.widths[r][i] = widths[r * kInterests + i];
  }
  for (std::size_t r = 0; r < kReceivers; ++r) {
    for (std::size_t i = 0; i < kInterests; ++i) {
      std::vector<std::size_t> accepted_ks = {1, 3, 5};
      std::vector<std::size_t> rejected_ks = {2, 4};
      rng.shuffle(accepted_ks);
      rng.shuffle(rejected_ks);
      for (std::size_t k : accepted_ks) plan.steps.push_back({r, i, true, k});
      for (std::size_t k : rejected_ks) plan.steps.push_back({r, i, false, k});
    }
  }
  rng.shuffle(plan.steps);
  plan.value_seed = rng.next();
  return plan;
}

RecordSpec spec_of(const Plan& plan, const Step& step) {
  return {kInterestNames[step.interest], plan.widths[step.receiver][step.interest], 3,
          !step.accept};
}

/// Fixed-width namespace of one fresh type.
std::string fresh_ns(std::size_t rep, std::size_t pass, std::size_t step) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "fx%02zu%04zu%03zu", rep % 100, pass % 10000, step);
  return buffer;
}

struct Receiver {
  InteropRuntime* runtime = nullptr;
  std::string name;
  std::vector<TypeHandle> interests;
  std::vector<std::string> interest_names;
  std::vector<pti::core::Subscription> subscriptions;
};

struct Universe {
  pti::transport::AsyncTransport* async = nullptr;
  RecordingTransport* recorder = nullptr;
  std::unique_ptr<InteropSystem> system;
  InteropRuntime* sender = nullptr;
  std::array<Receiver, kReceivers> receivers;
  std::atomic<std::uint64_t> handled{0};
  std::mutex captured_mutex;
  std::vector<DeliveredObject> captured;  ///< a few delivered objects, traced runs

  ~Universe() {
    for (Receiver& r : receivers) r.subscriptions.clear();
  }
};

/// One pass's inputs, per step: the fresh assembly and the 1 + k objects
/// pushed of its type, made from the assembly's own type before publish.
struct PassInputs {
  std::vector<std::shared_ptr<const pti::reflect::Assembly>> assemblies;
  std::vector<std::vector<std::shared_ptr<pti::reflect::DynObject>>> objects;
};

PassInputs build_pass(const Plan& plan, std::size_t rep, std::size_t pass) {
  PassInputs in;
  in.assemblies.reserve(plan.steps.size());
  in.objects.reserve(plan.steps.size());
  Rng values(plan.value_seed);
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    const Step& step = plan.steps[s];
    const RecordSpec spec = spec_of(plan, step);
    auto assembly = build_records(fresh_ns(rep, pass, s), {spec});
    const auto& type = *assembly->types().front();
    std::vector<std::shared_ptr<pti::reflect::DynObject>> objects;
    for (std::size_t n = 0; n <= step.follow_ups; ++n) {
      auto object = type.instantiate();
      for (std::size_t f = 0; f < spec.width / 2; ++f) {
        const std::uint64_t v = values.next();
        if (f % 2 == 0) {
          object->set(field_name(spec, f), pti::reflect::Value(static_cast<std::int32_t>(v & 0xFFFF)));
        } else {
          object->set(field_name(spec, f), pti::reflect::Value(std::to_string(v)));
        }
      }
      objects.push_back(std::move(object));
    }
    in.assemblies.push_back(std::move(assembly));
    in.objects.push_back(std::move(objects));
  }
  return in;
}

void set_up(Universe& u, const Plan& plan, Tracer* tracer) {
  auto async = std::make_unique<pti::transport::AsyncTransport>(
      pti::transport::AsyncTransportConfig{.workers = 2, .max_inbox = 256});
  u.async = async.get();
  if (tracer != nullptr) {
    auto recorder = std::make_unique<RecordingTransport>(std::move(async), *tracer);
    u.recorder = recorder.get();
    u.system = std::make_unique<InteropSystem>(std::move(recorder));
  } else {
    u.system = std::make_unique<InteropSystem>(std::move(async));
  }
  pti::transport::PeerConfig config;
  config.retain_delivered = false;
  u.sender = &u.system->create_runtime("fcS", config);
  for (std::size_t r = 0; r < kReceivers; ++r) {
    Receiver& receiver = u.receivers[r];
    receiver.name = "fcR" + std::to_string(r);
    receiver.runtime = &u.system->create_runtime(receiver.name, config);
    std::vector<RecordSpec> specs;
    for (std::size_t i = 0; i < kInterests; ++i) {
      specs.push_back({kInterestNames[i], plan.widths[r][i], 0, false});
    }
    {
      Tracer::Scope span(tracer, SpanKind::CorePublish);
      receiver.interests =
          receiver.runtime->publish_assembly(build_records("fcr" + std::to_string(r), specs));
    }
    for (const TypeHandle& interest : receiver.interests) {
      receiver.interest_names.push_back(interest.description().qualified_name());
      Tracer::Scope span(tracer, SpanKind::CoreSubscribe);
      receiver.subscriptions.push_back(receiver.runtime->subscribe(
          interest, [&u, capture = tracer != nullptr](const DeliveredObject& d) {
            u.handled.fetch_add(1, std::memory_order_relaxed);
            if (capture) {
              std::scoped_lock lock(u.captured_mutex);
              if (u.captured.size() < 64) u.captured.push_back(d);
            }
          }));
    }
  }
}

struct Tally {
  std::vector<double> first;       ///< first push of a fresh type, µs
  std::vector<double> follow_up;   ///< later pushes of it, µs
  std::uint64_t pushes = 0, accepted = 0, rejected = 0, failed = 0;
  std::uint64_t reject_code_requests = 0;  ///< code requests on rejected first pushes
  std::uint64_t first_checks = 0;          ///< receiver cache misses on first pushes
  std::uint64_t rejected_types = 0;
  std::vector<std::string> breaches;
  std::vector<std::string>* verdicts = nullptr;  ///< every ack, when set

  void breach(std::string what) {
    ++failed;
    if (breaches.size() < 4) breaches.push_back(std::move(what));
  }
};

/// Sends one push and checks its verdict; returns the latency in µs or a
/// negative value when the push failed.
double push(Universe& u, Receiver& receiver, const Step& step,
            const std::shared_ptr<pti::reflect::DynObject>& object, Tracer* tracer,
            Tally& tally) {
  ++tally.pushes;
  const auto t0 = Clock::now();
  PushAck ack;
  try {
    Tracer::Scope span(tracer, SpanKind::CoreSend);
    ack = u.sender->send(receiver.name, object);
  } catch (const std::exception& e) {
    tally.breach(std::string("push threw: ") + e.what());
    return -1;
  }
  const double us = micros(t0, Clock::now());
  if (tally.verdicts != nullptr) {
    tally.verdicts->push_back((ack.delivered ? "1 " : "0 ") + ack.detail);
  }
  if (ack.delivered) ++tally.accepted; else ++tally.rejected;
  if (ack.delivered != step.accept ||
      (step.accept && ack.detail != receiver.interest_names[step.interest])) {
    tally.breach("verdict for " + std::string(kInterestNames[step.interest]) + ": " + ack.detail);
  }
  return us;
}

/// One timed pass over pre-built assemblies and objects.
void run_pass(Universe& u, const Plan& plan, const PassInputs& inputs, Tracer* tracer,
              Tally& tally, std::vector<std::string>& sources,
              std::vector<std::shared_ptr<pti::reflect::DynObject>>& keep) {
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    const Step& step = plan.steps[s];
    Receiver& receiver = u.receivers[step.receiver];
    std::vector<TypeHandle> handles;
    {
      Tracer::Scope span(tracer, SpanKind::CorePublish);
      handles = u.sender->publish_assembly(inputs.assemblies[s]);
    }
    sources.push_back(handles.front().description().qualified_name());
    const auto& objects = inputs.objects[s];
    const auto& stats = receiver.runtime->stats();
    const std::uint64_t code_before = stats.code_requests;
    const std::uint64_t misses_before =
        receiver.runtime->peer().conformance_cache().stats().misses;
    const double first = push(u, receiver, step, objects.front(), tracer, tally);
    if (first >= 0) tally.first.push_back(first);
    tally.first_checks += receiver.runtime->peer().conformance_cache().stats().misses - misses_before;
    if (!step.accept) {
      ++tally.rejected_types;
      const std::uint64_t fetched = stats.code_requests - code_before;
      tally.reject_code_requests += fetched;
      if (fetched != 0) tally.breach("a rejected first push downloaded code");
    }
    for (std::size_t n = 1; n < objects.size(); ++n) {
      const double us = push(u, receiver, step, objects[n], tracer, tally);
      if (us >= 0) tally.follow_up.push_back(us);
    }
    if (keep.size() < 256) keep.push_back(objects.front());
  }
}

void replay_layers(Universe& u, const Plan& plan, const std::vector<Span>& spans,
                   const std::vector<std::string>& sources,
                   const std::vector<std::shared_ptr<pti::reflect::DynObject>>& objects,
                   Report& report) {
  constexpr std::size_t kCalls = 2000;
  const SpanDigest d = digest(spans);
  put(report, "core.sender_self_p50_us", median(d.sender_self));
  put(report, "core.publish_p50_us", median(d.publish));
  put(report, "transport.exchange_p50_us", median(d.exchange));
  put(report, "transport.exchange_p99_us", percentile(d.exchange, 99));
  put(report, "transport.wire_p50_us", median(d.wire));
  put(report, "transport.handler_self_p50_us", median(d.handler_self));
  put(report, "transport.typeinfo_exchange_p50_us", median(d.typeinfo));
  put(report, "transport.code_exchange_p50_us", median(d.code));

  if (u.captured.empty()) {
    report.breach("no delivered object captured");
    return;
  }
  const DeliveredObject delivered = u.captured.front();
  InteropRuntime* owner = nullptr;
  TypeHandle interest;
  for (Receiver& r : u.receivers) {
    for (std::size_t i = 0; i < r.interests.size(); ++i) {
      if (r.interest_names[i] == delivered.interest_type) {
        owner = r.runtime;
        interest = r.interests[i];
      }
    }
  }
  if (owner == nullptr) {
    report.breach("captured object matched no known interest");
    return;
  }
  put(report, "core.dispatch_p50_us", median(time_each(kCalls, [&] { owner->dispatch(delivered); })));
  put(report, "proxy.adapt_p50_us",
      median(time_each(kCalls, [&] { (void)owner->adapt(delivered.object, interest); })));

  const PayloadReplay payloads = replay_payloads(
      u.sender->peer().serializers().get("soap"), owner->peer().serializers().get("soap"),
      objects);
  if (!payloads.intact) report.breach("soap replay lost the object");
  put(report, "serial.payload_encode_p50_us", median(payloads.encode));
  put(report, "serial.payload_decode_p50_us", median(payloads.decode));

  const auto samples = u.recorder->samples();
  const FrameReplay frames = replay_frames(samples, 4);
  put(report, "serial.frame_encode_p50_us", median(frames.encode));
  put(report, "serial.frame_decode_p50_us", median(frames.decode));
  std::vector<std::string> descriptions;
  for (const auto& m : samples) {
    if (const auto* info = std::get_if<pti::transport::TypeInfoResponse>(&m.payload)) {
      descriptions.insert(descriptions.end(), info->descriptions_xml.begin(),
                          info->descriptions_xml.end());
    }
  }
  put(report, "serial.typedesc_parse_p50_us", median(replay_typedesc_parse(descriptions, 4)));

  // Cold (fresh cache) and cached checks of the run's pairs, by width. The
  // sources are the last pass's types, as the receivers fetched them.
  std::array<std::vector<double>, 3> cold;
  std::vector<double> cached;
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    const Step& step = plan.steps[s];
    Receiver& receiver = u.receivers[step.receiver];
    auto& registry = receiver.runtime->domain().registry();
    const auto* source = registry.find(sources[s]);
    if (source == nullptr) {
      report.breach("receiver lacks the fetched description of " + sources[s]);
      return;
    }
    const std::size_t w = spec_of(plan, step).width;
    const std::size_t slot = w == 8 ? 0 : w == 32 ? 1 : 2;
    const auto checks =
        replay_checks(registry, receiver.runtime->checker(), *source,
                      receiver.interests[step.interest].description(), slot == 2 ? 2 : 8);
    if (!checks.agree || checks.conformant != step.accept) {
      report.breach("replayed verdict differs");
    }
    cold[slot].insert(cold[slot].end(), checks.cold.begin(), checks.cold.end());
    cached.insert(cached.end(), checks.cached.begin(), checks.cached.end());
  }
  put(report, "conform.check_cold_p50_us.w8", median(cold[0]));
  put(report, "conform.check_cold_p50_us.w32", median(cold[1]));
  put(report, "conform.check_cold_p50_us.w128", median(cold[2]));
  put(report, "conform.check_cached_p50_us", median(cached));

  pti::conform::CacheStats cache_stats;
  std::uint64_t registry_size = 0;
  for (Receiver& r : u.receivers) {
    const auto s = r.runtime->peer().conformance_cache().stats();
    cache_stats.hits += s.hits;
    cache_stats.misses += s.misses;
    registry_size += r.runtime->domain().registry().size();
  }
  put(report, "conform.cache_hit_ratio", cache_stats.hit_rate());
  put(report, "reflect.registry_size", static_cast<double>(registry_size));

  const auto matched = delivered.interest_id;
  std::size_t subscribers = 0;
  put(report, "transport.index_match_p50_us",
      median(time_index_match(
          u.system->hub()->interests(),
          [&](const pti::transport::InterestEntry& e) { return e.interest == matched; }, kCalls,
          subscribers)));
  if (subscribers != 1) report.breach("interest index lost a subscriber");
  put(report, "transport.raw_exchange_p50_us", median(time_raw_exchange(*u.async, "fc", kCalls)));
}

}  // namespace

Fingerprint fingerprint_first_contact(std::uint64_t seed, bool recorded) {
  const Plan plan = make_plan(seed);
  Tracer tracer;
  Tracer* t = recorded ? &tracer : nullptr;
  Fingerprint out;
  Tally tally;
  tally.verdicts = &out.verdicts;
  Universe u;
  set_up(u, plan, t);
  std::vector<std::string> sources;
  std::vector<std::shared_ptr<pti::reflect::DynObject>> keep;
  run_pass(u, plan, build_pass(plan, 0, 0), t, tally, sources, keep);
  u.async->drain();
  out.messages = u.system->network().stats().messages;
  out.bytes = u.system->network().stats().bytes;
  if (tally.failed != 0) out.verdicts.push_back("failed pushes");
  return out;
}

Report run_first_contact(const Options& options) {
  Report report;
  const Plan plan = make_plan(options.seed);

  PerRep untraced;
  PerRep traced;
  std::vector<double> setups;
  Tally traced_tally;
  double measured = 0.0;
  std::uint64_t pushes = 0, push_samples = 0, first_samples = 0;
  std::uint64_t bytes = 0, messages = 0, untraced_pushes = 0, untraced_accepted = 0;
  std::uint64_t traced_messages = 0;
  bool replayed = false;

  for (std::size_t rep = 0; rep < kMinReps || measured < options.seconds; ++rep) {
    const bool trace_rep = options.trace && rep % 2 == 1;
    Tracer tracer;
    Tracer* t = trace_rep ? &tracer : nullptr;
    Universe u;
    const auto t0 = Clock::now();
    set_up(u, plan, t);
    PassInputs inputs = build_pass(plan, rep, 0);
    setups.push_back(seconds_since(t0));
    (void)tracer.take();

    Tally tally;
    std::uint64_t delivered_before = 0;
    for (Receiver& r : u.receivers) delivered_before += r.runtime->stats().objects_delivered;
    const std::uint64_t messages_before = u.system->network().stats().messages;
    const std::uint64_t bytes_before = u.system->network().stats().bytes;
    std::vector<std::string> sources;
    std::vector<std::shared_ptr<pti::reflect::DynObject>> keep;
    double elapsed = 0.0;
    for (std::size_t pass = 0; pass < kPassesPerRep && measured + elapsed < options.seconds;
         ++pass) {
      if (pass > 0) inputs = build_pass(plan, rep, pass);
      sources.clear();
      keep.clear();
      const auto start = Clock::now();
      run_pass(u, plan, inputs, t, tally, sources, keep);
      elapsed += seconds_since(start);
    }
    measured += elapsed;
    u.async->drain();
    std::uint64_t delivered = 0;
    for (Receiver& r : u.receivers) delivered += r.runtime->stats().objects_delivered;
    if (delivered - delivered_before != tally.accepted || u.handled.load() != tally.accepted) {
      tally.breach("receivers delivered " + std::to_string(delivered - delivered_before) +
                   " objects for " + std::to_string(tally.accepted) + " accepted acks");
    }
    pushes += tally.pushes;
    report.failed += tally.failed;
    for (const auto& b : tally.breaches) report.note(b);
    const std::uint64_t m = u.system->network().stats().messages - messages_before;
    const std::uint64_t b = u.system->network().stats().bytes - bytes_before;

    PerRep& sink = trace_rep ? traced : untraced;
    sink.add("push_p50_us", median(tally.follow_up));
    if (trace_rep) {
      traced_messages += m;
      traced_tally.pushes += tally.pushes;
      traced_tally.first_checks += tally.first_checks;
      traced_tally.reject_code_requests += tally.reject_code_requests;
      traced_tally.rejected_types += tally.rejected_types;
      traced_tally.first.insert(traced_tally.first.end(), tally.first.begin(), tally.first.end());
      if (!replayed) replay_layers(u, plan, tracer.take(), sources, keep, report);
      replayed = true;
      continue;
    }
    push_samples += tally.follow_up.size();
    first_samples += tally.first.size();
    untraced_pushes += tally.pushes;
    untraced_accepted += tally.accepted;
    messages += m;
    bytes += b;
    untraced.add("push_rate", static_cast<double>(tally.pushes) / elapsed);
    untraced.add("push_p99_us", percentile(tally.follow_up, 99));
    untraced.add("first_push_p50_us", median(tally.first));
    untraced.add("first_push_p99_us", percentile(tally.first, 99));
    untraced.add("sim_delivery_rate", static_cast<double>(tally.accepted) / elapsed);
  }

  report.attempted = pushes;
  report.detail["samples.push"] = static_cast<double>(push_samples);
  report.detail["samples.first_push"] = static_cast<double>(first_samples);
  report.detail["samples.reps"] = static_cast<double>(untraced.count("push_p50_us"));
  report.detail["exact.wire_bytes_per_push"] =
      ratio(static_cast<double>(bytes), static_cast<double>(untraced_pushes));
  report.detail["exact.messages_per_push"] =
      ratio(static_cast<double>(messages), static_cast<double>(untraced_pushes));

  if (!options.trace) {
    put(report, "setup_s", median(setups));
    for (const char* name : {"push_rate", "push_p50_us", "push_p99_us", "first_push_p50_us",
                             "first_push_p99_us", "sim_delivery_rate"}) {
      put(report, name, untraced.median_of(name));
    }
    put(report, "wire_bytes_per_push",
        ratio(static_cast<double>(bytes), static_cast<double>(untraced_pushes)));
    put(report, "sim_wire_bytes_per_delivery",
        ratio(static_cast<double>(bytes), static_cast<double>(untraced_accepted)));
    put(report, "peak_rss_mb", peak_rss_mb());
    return report;
  }

  put(report, "transport.messages_per_push",
      ratio(static_cast<double>(traced_messages), static_cast<double>(traced_tally.pushes)));
  put(report, "transport.code_fetch_per_reject",
      ratio(static_cast<double>(traced_tally.reject_code_requests),
            static_cast<double>(traced_tally.rejected_types)));
  put(report, "conform.checks_per_first_push",
      ratio(static_cast<double>(traced_tally.first_checks),
            static_cast<double>(traced_tally.first.size())));
  const double base = untraced.median_of("push_p50_us");
  put(report, "trace.overhead_frac", ratio(traced.median_of("push_p50_us") - base, base));
  return report;
}

}  // namespace perfbench
