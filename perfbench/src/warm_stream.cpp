// warm_stream: the warmed steady state. Two client threads each drive
// their own sender -> receiver pair over one SocketTransport on loopback
// TCP, with sessions, binary payloads and a batching window of 16. Each
// pair has 4 source types; the receiver's interests accept 3 and reject 1.
// A request is a synchronous send or a burst of 4 or 16 send_async calls
// followed by flush_session_batches(). Every session is warmed in setup,
// so cold conformance, description parsing and code fetches stay out of
// the timed phase.
//
// Both threads replay the same seeded pass of requests (in their own
// pair's names, which have equal lengths) until the phase ends, always
// finishing a pass; so modelled bytes per push repeat exactly per seed.
#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/interop.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "reflect/dyn_object.hpp"
#include "reflect/type_registry.hpp"
#include "transport/socket_transport.hpp"
#include "types.hpp"

namespace perfbench {
namespace {

using pti::core::InteropRuntime;
using pti::core::InteropSystem;
using pti::core::TypeHandle;
using pti::transport::DeliveredObject;
using pti::transport::PushAck;

constexpr int kPairs = 2;
constexpr std::size_t kReps = 32;  ///< set-ups per run; the timed phase is split evenly
constexpr std::size_t kWidth = 8;
constexpr std::array<const char*, 4> kTypeNames = {"Alpha", "Beta", "Gamma", "Delta"};
constexpr std::size_t kAccepted = 3;  ///< Delta matches no interest
constexpr std::array<std::size_t, 3> kStringLengths = {16, 256, 4096};

struct Request {
  std::size_t burst = 1;  ///< 1: synchronous send; 4 or 16: send_async burst
  std::size_t first = 0;  ///< index of the first object
};

/// One pass: 32 synchronous sends and 16 bursts each of 4 and 16 (352
/// objects). Type and string-length mixes are exact per pass; the order
/// of everything is drawn from the seed.
struct Plan {
  std::vector<Request> requests;
  std::vector<std::size_t> type_of;
  std::vector<std::array<std::size_t, 2>> lengths;
  std::vector<std::int32_t> ints;
  std::uint64_t text_seed = 0;
};

Plan make_plan(std::uint64_t seed) {
  Rng rng(derive(seed, 11));
  std::vector<std::size_t> bursts;
  bursts.insert(bursts.end(), 32, 1);
  bursts.insert(bursts.end(), 16, 4);
  bursts.insert(bursts.end(), 16, 16);
  rng.shuffle(bursts);
  Plan plan;
  std::size_t objects = 0;
  for (std::size_t burst : bursts) {
    plan.requests.push_back({burst, objects});
    objects += burst;
  }
  for (std::size_t i = 0; i < objects; ++i) plan.type_of.push_back(i % kTypeNames.size());
  rng.shuffle(plan.type_of);
  std::vector<std::size_t> lengths;
  for (std::size_t i = 0; i < 2 * objects; ++i) lengths.push_back(kStringLengths[i % 3]);
  rng.shuffle(lengths);
  for (std::size_t i = 0; i < objects; ++i) {
    plan.lengths.push_back({lengths[2 * i], lengths[2 * i + 1]});
    plan.ints.push_back(static_cast<std::int32_t>(rng.next() & 0x7FFFFFFF));
  }
  plan.text_seed = rng.next();
  return plan;
}

std::string text(std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(length, 'a');
  for (char& c : out) c = static_cast<char>('a' + rng.below(26));
  return out;
}

struct Pair {
  InteropRuntime* sender = nullptr;
  InteropRuntime* receiver = nullptr;
  std::string to;
  std::vector<std::string> interest_names;  ///< qualified, by type index
  std::vector<TypeHandle> interests;
  std::vector<std::shared_ptr<pti::reflect::DynObject>> objects;
  std::atomic<std::uint64_t> handled{0};
  std::mutex captured_mutex;
  std::vector<DeliveredObject> captured;  ///< one delivered object per interest
  std::vector<pti::core::Subscription> subscriptions;
};

/// One set-up universe: the system and its pairs.
struct Universe {
  pti::transport::SocketTransport* socket = nullptr;
  RecordingTransport* recorder = nullptr;
  std::unique_ptr<InteropSystem> system;
  std::array<Pair, kPairs> pairs;

  ~Universe() {
    for (Pair& pair : pairs) pair.subscriptions.clear();
  }
};

struct PushTally {
  std::vector<double> latency;       ///< every push, µs
  std::vector<double> sync_latency;  ///< synchronous sends only
  std::uint64_t pushes = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> breaches;
  std::vector<std::string>* verdicts = nullptr;  ///< every ack, when set

  void verify(const Pair& pair, std::size_t type, const PushAck& ack) {
    ++pushes;
    if (verdicts != nullptr) verdicts->push_back((ack.delivered ? "1 " : "0 ") + ack.detail);
    const bool expect = type < kAccepted;
    if (ack.delivered) ++accepted; else ++rejected;
    if (ack.delivered != expect || (expect && ack.detail != pair.interest_names[type])) {
      ++failed;
      if (breaches.size() < 4) {
        breaches.push_back("verdict for " + std::string(kTypeNames[type]) + ": " + ack.detail);
      }
    }
  }
  void fail(const std::exception& e) {
    ++pushes;
    ++failed;
    if (breaches.size() < 4) breaches.push_back(std::string("push threw: ") + e.what());
  }
};

/// Runs one request: a synchronous send or an async burst plus flush.
void run_request(Pair& pair, const Plan& plan, const Request& request, Tracer* tracer,
                 PushTally& tally) {
  if (request.burst == 1) {
    const std::size_t i = request.first;
    const auto t0 = Clock::now();
    try {
      PushAck ack;
      {
        Tracer::Scope span(tracer, SpanKind::CoreSend);
        ack = pair.sender->send(pair.to, pair.objects[i]);
      }
      const double us = micros(t0, Clock::now());
      tally.latency.push_back(us);
      tally.sync_latency.push_back(us);
      tally.verify(pair, plan.type_of[i], ack);
    } catch (const std::exception& e) {
      tally.fail(e);
    }
    return;
  }
  std::vector<std::future<PushAck>> futures;
  futures.reserve(request.burst);
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < request.burst; ++k) {
    Tracer::Scope span(tracer, SpanKind::CoreSendAsync);
    futures.push_back(pair.sender->send_async(pair.to, pair.objects[request.first + k]));
  }
  pair.sender->peer().flush_session_batches();
  for (std::size_t k = 0; k < request.burst; ++k) {
    try {
      const PushAck ack = futures[k].get();
      tally.latency.push_back(micros(t0, Clock::now()));
      tally.verify(pair, plan.type_of[request.first + k], ack);
    } catch (const std::exception& e) {
      tally.fail(e);
    }
  }
}

pti::transport::Message echo(const pti::transport::Message& request) {
  pti::transport::Message response;
  response.payload = PushAck{true, ""};
  pti::transport::address_response(request, response);
  return response;
}

/// One echo whose handler makes a nested echo: leaves two pooled
/// connections, one for a push and one for the code fetch its handler
/// makes, so first pushes time the protocol rather than TCP connects.
void dial_connections(pti::transport::SocketTransport& socket) {
  socket.attach("wsInner", echo);
  socket.attach("wsOuter", [&socket](const pti::transport::Message& request) {
    (void)socket.send({"wsOuter", "wsInner", PushAck{true, ""}});
    return echo(request);
  });
  (void)socket.send({"wsCaller", "wsOuter", PushAck{true, ""}});
  socket.detach("wsOuter");
  socket.detach("wsInner");
}

/// Builds the universe and warms every session. Returns the set-up time.
/// First pushes (one synchronous send per source type and pair) are timed
/// into `first`, which also counts the warm-up burst.
double set_up(Universe& u, const Plan& plan, Tracer* tracer, PushTally& first,
              std::uint64_t& first_checks) {
  const auto t0 = Clock::now();
  auto socket = std::make_unique<pti::transport::SocketTransport>();
  u.socket = socket.get();
  if (tracer != nullptr) {
    auto recorder = std::make_unique<RecordingTransport>(std::move(socket), *tracer);
    u.recorder = recorder.get();
    u.system = std::make_unique<InteropSystem>(std::move(recorder));
  } else {
    u.system = std::make_unique<InteropSystem>(std::move(socket));
  }
  pti::transport::PeerConfig config;
  config.payload_encoding = "binary";
  config.retain_delivered = false;
  config.use_sessions = true;
  config.session.max_batch = 16;

  std::vector<std::vector<TypeHandle>> sources(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    Pair& pair = u.pairs[p];
    const std::string id = std::to_string(p);
    pair.sender = &u.system->create_runtime("wsS" + id, config);
    pair.receiver = &u.system->create_runtime("wsR" + id, config);
    pair.to = "wsR" + id;
    std::vector<RecordSpec> source_specs;
    std::vector<RecordSpec> interest_specs;
    for (std::size_t t = 0; t < kTypeNames.size(); ++t) {
      source_specs.push_back({kTypeNames[t], kWidth, 3, false});
      if (t < kAccepted) interest_specs.push_back({kTypeNames[t], kWidth, 0, false});
    }
    {
      Tracer::Scope span(tracer, SpanKind::CorePublish);
      sources[p] = pair.sender->publish_assembly(build_records("ws" + id + "s", source_specs));
    }
    {
      Tracer::Scope span(tracer, SpanKind::CorePublish);
      pair.interests =
          pair.receiver->publish_assembly(build_records("ws" + id + "r", interest_specs));
    }
    pair.captured.resize(kAccepted);
    for (std::size_t t = 0; t < kAccepted; ++t) {
      pair.interest_names.push_back(pair.interests[t].description().qualified_name());
      Tracer::Scope span(tracer, SpanKind::CoreSubscribe);
      pair.subscriptions.push_back(pair.receiver->subscribe(
          pair.interests[t], [&pair, t, capture = tracer != nullptr](const DeliveredObject& d) {
            pair.handled.fetch_add(1, std::memory_order_relaxed);
            if (capture) {
              std::scoped_lock lock(pair.captured_mutex);
              if (!pair.captured[t].object) pair.captured[t] = d;
            }
          }));
    }
  }
  double setup = seconds_since(t0);

  // Inputs are the generator's work, not the system's: kept out of set-up.
  for (int p = 0; p < kPairs; ++p) {
    Pair& pair = u.pairs[p];
    for (std::size_t i = 0; i < plan.type_of.size(); ++i) {
      auto object = pair.sender->make(sources[p][plan.type_of[i]]);
      const RecordSpec spec{kTypeNames[plan.type_of[i]], kWidth, 3, false};
      object->set(field_name(spec, 0), pti::reflect::Value(plan.ints[i]));
      object->set(field_name(spec, 1), text(plan.lengths[i][0], plan.text_seed + 2 * i));
      object->set(field_name(spec, 2), pti::reflect::Value(plan.ints[i] / 3));
      object->set(field_name(spec, 3), text(plan.lengths[i][1], plan.text_seed + 2 * i + 1));
      pair.objects.push_back(std::move(object));
    }
  }

  // Warm-up: connections, then the first push of each type (intro inline,
  // conformance check, code on accept), then one burst so the batch path
  // is warm too.
  const auto t1 = Clock::now();
  dial_connections(*u.socket);
  for (Pair& pair : u.pairs) {
    const auto misses = pair.receiver->peer().conformance_cache().stats().misses;
    for (std::size_t t = 0; t < kTypeNames.size(); ++t) {
      std::size_t i = 0;
      while (plan.type_of[i] != t) ++i;
      run_request(pair, plan, Request{1, i}, tracer, first);
    }
    first_checks += pair.receiver->peer().conformance_cache().stats().misses - misses;
    const Request* burst = nullptr;
    for (const Request& r : plan.requests) {
      if (r.burst == 4) burst = &r;
    }
    PushTally warm;
    run_request(pair, plan, *burst, tracer, warm);
    first.pushes += warm.pushes;
    first.failed += warm.failed;
    first.breaches.insert(first.breaches.end(), warm.breaches.begin(), warm.breaches.end());
  }
  setup += seconds_since(t1);
  return setup;
}

struct Counters {
  std::uint64_t messages = 0, bytes = 0, dialed = 0, socket_bytes = 0;
  std::uint64_t delivered = 0, verdict_hits = 0, session_pushes = 0, resets = 0,
                code_requests = 0, handled = 0, batch_frames = 0, batch_entries = 0;
};

Counters snapshot(Universe& u) {
  Counters c;
  c.messages = u.system->network().stats().messages;
  c.bytes = u.system->network().stats().bytes;
  c.dialed = u.socket->socket_stats().connections_dialed;
  c.socket_bytes = u.socket->socket_stats().wire_bytes_sent;
  for (Pair& pair : u.pairs) {
    const auto& s = pair.receiver->stats();
    c.delivered += s.objects_delivered;
    c.verdict_hits += s.session_verdict_hits;
    c.session_pushes += s.session_pushes;
    c.resets += s.session_resets;
    c.code_requests += s.code_requests;
    c.handled += pair.handled.load();
  }
  if (u.recorder != nullptr) {
    c.batch_frames = u.recorder->batch_frames();
    c.batch_entries = u.recorder->batch_entries();
  }
  return c;
}

/// Replays of public functions on what the traced phase produced.
void replay_layers(Universe& u, const Plan& plan, const std::vector<Span>& spans,
                   const std::vector<Span>& setup_spans, double sync_p50, Report& report) {
  constexpr std::size_t kCalls = 2000;
  Pair& pair = u.pairs[0];
  const auto all = [&] {
    std::vector<Span> both = setup_spans;
    both.insert(both.end(), spans.begin(), spans.end());
    return both;
  }();
  const SpanDigest d = digest(spans);
  const SpanDigest setup = digest(setup_spans);
  put(report, "core.sender_self_p50_us", median(d.sender_self));
  put(report, "core.publish_p50_us", median(setup.publish));
  put(report, "transport.exchange_p50_us", median(d.exchange));
  put(report, "transport.exchange_p99_us", percentile(d.exchange, 99));
  put(report, "transport.async_exchange_p50_us", median(d.async_exchange));
  put(report, "transport.wire_p50_us", median(d.wire));
  put(report, "transport.handler_self_p50_us", median(d.handler_self));
  put(report, "transport.typeinfo_exchange_p50_us", median(digest(all).typeinfo));
  put(report, "transport.code_exchange_p50_us", median(digest(all).code));

  const auto& captured = pair.captured;
  const auto dispatch = time_each(kCalls, [&] { pair.receiver->dispatch(captured[0]); });
  const auto adapt = time_each(kCalls, [&] {
    (void)pair.receiver->adapt(captured[0].object, pair.interests[0]);
  });
  put(report, "core.dispatch_p50_us", median(dispatch));
  put(report, "proxy.adapt_p50_us", median(adapt));

  const PayloadReplay payloads =
      replay_payloads(pair.sender->peer().serializers().get("binary"),
                      pair.receiver->peer().serializers().get("binary"), pair.objects);
  if (!payloads.intact) report.breach("binary replay lost the object");
  put(report, "serial.payload_encode_p50_us", median(payloads.encode));
  put(report, "serial.payload_decode_p50_us", median(payloads.decode));

  // Frames: every sampled message, and the push/ack pair of a sync push.
  const auto samples = u.recorder->samples();
  const FrameReplay frames = replay_frames(samples, 4);
  put(report, "serial.frame_encode_p50_us", median(frames.encode));
  put(report, "serial.frame_decode_p50_us", median(frames.decode));
  std::vector<pti::transport::Message> push_frames;
  std::vector<pti::transport::Message> ack_frames;
  std::vector<std::string> intros;
  for (const auto& m : samples) {
    if (const auto* push = std::get_if<pti::transport::SessionPush>(&m.payload)) {
      push_frames.push_back(m);
      for (const auto& intro : push->intros) intros.push_back(intro.description_xml);
    } else if (std::holds_alternative<pti::transport::SessionAck>(m.payload)) {
      ack_frames.push_back(m);
    }
  }
  const FrameReplay push_replay = replay_frames(push_frames, 4);
  const FrameReplay ack_replay = replay_frames(ack_frames, 4);
  put(report, "serial.typedesc_parse_p50_us", median(replay_typedesc_parse(intros, 20)));

  // Conformance on this workload's pairs: cold (fresh cache) and cached.
  auto& registry = pair.receiver->domain().registry();
  std::vector<double> cold;
  std::vector<double> cached;
  for (std::size_t t = 0; t < kTypeNames.size(); ++t) {
    const auto* source = registry.find("ws0s." + std::string(kTypeNames[t]));
    if (source == nullptr) {
      report.breach("receiver lacks a warmed description");
      return;
    }
    const auto checks = replay_checks(registry, pair.receiver->checker(), *source,
                                      pair.interests[std::min(t, kAccepted - 1)].description(),
                                      200);
    if (!checks.agree || checks.conformant != (t < kAccepted)) {
      report.breach("replayed verdict differs");
    }
    cold.insert(cold.end(), checks.cold.begin(), checks.cold.end());
    cached.insert(cached.end(), checks.cached.begin(), checks.cached.end());
  }
  put(report, "conform.check_cold_p50_us.w8", median(cold));
  put(report, "conform.check_cached_p50_us", median(cached));
  put(report, "conform.cache_hit_ratio",
      pair.receiver->peer().conformance_cache().stats().hit_rate());

  // Fan-out matching on the system's interest index, and the wire floor.
  const auto matched = captured[0].interest_id;
  std::size_t subscribers = 0;
  put(report, "transport.index_match_p50_us",
      median(time_index_match(
          u.system->hub()->interests(),
          [&](const pti::transport::InterestEntry& e) { return e.interest == matched; }, kCalls,
          subscribers)));
  if (subscribers != 1) report.breach("interest index lost a subscriber");
  const auto raw = time_raw_exchange(*u.socket, "ws", kCalls);
  put(report, "transport.raw_exchange_p50_us", median(raw));

  std::uint64_t registry_size = 0;
  for (Pair& p : u.pairs) registry_size += p.receiver->domain().registry().size();
  put(report, "reflect.registry_size", static_cast<double>(registry_size));

  const double stages = median(payloads.encode) + median(payloads.decode) +
                        median(push_replay.encode) +
                        median(push_replay.decode) + median(ack_replay.encode) +
                        median(ack_replay.decode) + median(cached) + median(adapt) +
                        median(dispatch) + median(raw);
  put(report, "trace.unattributed_frac", 1.0 - ratio(stages, sync_p50));
}

}  // namespace

Fingerprint fingerprint_warm_stream(std::uint64_t seed, bool recorded) {
  const Plan plan = make_plan(seed);
  Tracer tracer;
  Tracer* t = recorded ? &tracer : nullptr;
  Fingerprint out;
  PushTally tally;
  tally.verdicts = &out.verdicts;
  std::uint64_t checks = 0;
  Universe u;
  (void)set_up(u, plan, t, tally, checks);
  for (Pair& pair : u.pairs) {
    for (const Request& r : plan.requests) run_request(pair, plan, r, t, tally);
  }
  u.socket->drain();
  out.messages = u.system->network().stats().messages;
  out.bytes = u.system->network().stats().bytes;
  if (tally.failed != 0) out.verdicts.push_back("failed pushes");
  return out;
}

Report run_warm_stream(const Options& options) {
  Report report;
  const Plan plan = make_plan(options.seed);
  const double phase = options.seconds / kReps;

  PerRep untraced;  // end-to-end values, one per untraced repetition
  PerRep traced;
  std::vector<double> setups;
  std::uint64_t first_checks = 0;
  std::uint64_t first_pushes = 0;  // synchronous first pushes
  std::uint64_t warm_pushes = 0;   // every warm-up push
  std::vector<double> first_latency;  // untraced first pushes of every set-up
  std::uint64_t pushes_total = 0;
  std::uint64_t push_samples = 0;
  Counters total;  // untraced timed-phase deltas
  std::uint64_t untraced_pushes = 0, untraced_accepted = 0;
  Counters traced_total;
  std::uint64_t traced_pushes = 0, traced_rejected = 0;

  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const bool trace_rep = options.trace && rep % 2 == 1;
    Tracer tracer;
    Tracer* t = trace_rep ? &tracer : nullptr;
    Universe u;
    PushTally first;
    std::uint64_t checks = 0;
    setups.push_back(set_up(u, plan, t, first, checks));
    first_checks += checks;
    first_pushes += first.latency.size();
    warm_pushes += first.pushes;
    report.failed += first.failed;
    for (auto& b : first.breaches) report.note("warm-up: " + b);
    const std::vector<Span> setup_spans = tracer.take();

    const Counters before = snapshot(u);
    std::array<PushTally, kPairs> tallies;
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(phase));
    std::vector<std::thread> clients;
    for (int p = 0; p < kPairs; ++p) {
      clients.emplace_back([&, p] {
        do {
          for (const Request& r : plan.requests) run_request(u.pairs[p], plan, r, t, tallies[p]);
        } while (Clock::now() < deadline);
      });
    }
    for (auto& c : clients) c.join();
    const double elapsed = seconds_since(start);
    u.socket->drain();
    const Counters after = snapshot(u);

    PushTally all;
    for (PushTally& tally : tallies) {
      all.latency.insert(all.latency.end(), tally.latency.begin(), tally.latency.end());
      all.sync_latency.insert(all.sync_latency.end(), tally.sync_latency.begin(),
                              tally.sync_latency.end());
      all.pushes += tally.pushes;
      all.accepted += tally.accepted;
      all.rejected += tally.rejected;
      report.failed += tally.failed;
      for (auto& b : tally.breaches) report.note(b);
    }
    pushes_total += all.pushes;
    if (after.delivered - before.delivered != all.accepted ||
        after.handled - before.handled != all.accepted) {
      report.breach("receivers delivered " + std::to_string(after.delivered - before.delivered) +
                    " objects for " + std::to_string(all.accepted) + " accepted acks");
    }
    PerRep& sink = trace_rep ? traced : untraced;
    sink.add("push_p50_us", median(all.latency));
    sink.add("sync_p50_us", median(all.sync_latency));
    if (trace_rep) {
      traced_pushes += all.pushes;
      traced_rejected += all.rejected;
      traced_total.messages += after.messages - before.messages;
      traced_total.dialed += after.dialed - before.dialed;
      traced_total.verdict_hits += after.verdict_hits - before.verdict_hits;
      traced_total.session_pushes += after.session_pushes - before.session_pushes;
      traced_total.resets += after.resets - before.resets;
      traced_total.code_requests += after.code_requests - before.code_requests;
      traced_total.batch_frames += after.batch_frames - before.batch_frames;
      traced_total.batch_entries += after.batch_entries - before.batch_entries;
      if (rep == 1) {
        replay_layers(u, plan, tracer.take(), setup_spans, untraced.median_of("sync_p50_us"),
                      report);
        put(report, "serial.frame_bytes_per_push",
            ratio(static_cast<double>(after.socket_bytes - before.socket_bytes),
                  static_cast<double>(all.pushes)));
      }
      continue;
    }
    push_samples += all.latency.size();
    untraced_pushes += all.pushes;
    untraced_accepted += all.accepted;
    total.bytes += after.bytes - before.bytes;
    total.messages += after.messages - before.messages;
    untraced.add("push_rate", static_cast<double>(all.pushes) / elapsed);
    untraced.add("push_p99_us", percentile(all.latency, 99));
    first_latency.insert(first_latency.end(), first.latency.begin(), first.latency.end());
    untraced.add("first_push_p99_us", percentile(first.latency, 99));
    untraced.add("sim_delivery_rate", static_cast<double>(all.accepted) / elapsed);
  }

  report.attempted = pushes_total + warm_pushes;
  report.detail["samples.push"] = static_cast<double>(push_samples);
  report.detail["samples.first_push_per_rep"] = static_cast<double>(kPairs * kTypeNames.size());
  report.detail["samples.reps"] = static_cast<double>(untraced.count("push_p50_us"));
  report.detail["exact.wire_bytes_per_push"] =
      ratio(static_cast<double>(total.bytes), static_cast<double>(untraced_pushes));
  report.detail["exact.messages_per_push"] =
      ratio(static_cast<double>(total.messages), static_cast<double>(untraced_pushes));

  if (!options.trace) {
    put(report, "setup_s", median(setups));
    for (const char* name : {"push_rate", "push_p50_us", "push_p99_us", "first_push_p99_us",
                             "sim_delivery_rate"}) {
      put(report, name, untraced.median_of(name));
    }
    // 8 first pushes per set-up: their median pools every set-up, their
    // p99 is the median over set-ups of the slowest one.
    put(report, "first_push_p50_us", median(first_latency));
    put(report, "wire_bytes_per_push",
        ratio(static_cast<double>(total.bytes), static_cast<double>(untraced_pushes)));
    put(report, "sim_wire_bytes_per_delivery",
        ratio(static_cast<double>(total.bytes), static_cast<double>(untraced_accepted)));
    put(report, "peak_rss_mb", peak_rss_mb());
    return report;
  }

  put(report, "transport.messages_per_push",
      ratio(static_cast<double>(traced_total.messages), static_cast<double>(traced_pushes)));
  put(report, "transport.code_fetch_per_reject",
      ratio(static_cast<double>(traced_total.code_requests), static_cast<double>(traced_rejected)));
  put(report, "transport.session_verdict_hit_ratio",
      ratio(static_cast<double>(traced_total.verdict_hits),
            static_cast<double>(traced_total.session_pushes)));
  put(report, "transport.batch_entries_per_frame",
      ratio(static_cast<double>(traced_total.batch_entries),
            static_cast<double>(traced_total.batch_frames)));
  put(report, "transport.session_resets", static_cast<double>(traced_total.resets));
  put(report, "transport.connections_dialed", static_cast<double>(traced_total.dialed));
  put(report, "conform.checks_per_first_push",
      ratio(static_cast<double>(first_checks), static_cast<double>(first_pushes)));
  const double base = untraced.median_of("push_p50_us");
  put(report, "trace.overhead_frac", ratio(traced.median_of("push_p50_us") - base, base));
  return report;
}

}  // namespace perfbench
