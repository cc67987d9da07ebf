// Megasim determinism and shared-index semantics (ISSUE 8 tentpole).
//
// Three layers under test:
//
//   EventLoop        (time, seq)-ordered firing, clock coupling, clamping.
//   InterestIndex    declaration-order matching, idempotent registration,
//                    LIFO id reuse, tombstone compaction, sorted-union
//                    fan-out and its bounded (lowest-k) selection checked
//                    against a sort+unique+truncate oracle — plus a churn
//                    test that TSan watches: concurrent subscribe/
//                    unsubscribe against pinned snapshot readers.
//   Scenario         the determinism contract: same seed => byte-identical
//                    trace/accept/stats digests, invariant under host
//                    thread count; eager and optimistic modes agree on
//                    every accept/reject verdict while optimistic moves
//                    fewer bytes; the inverted index and the per-peer-scan
//                    baseline produce identical runs.
//
// SimScale.PopulationScenario is the CI scale gate: peers default to 3000
// for plain ctest; the scale-smoke stage sets PTI_SIM_PEERS=10000 and the
// nightly soak sweeps 10^5 (and 10^6 on big iron). The scenario runs
// PTI_SIM_RUNS times (default 2) and every run must produce the same
// digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/scenario.hpp"
#include "transport/interest_index.hpp"
#include "transport/transport_error.hpp"
#include "util/epoch.hpp"
#include "util/interning.hpp"
#include "util/sim_clock.hpp"

namespace pti {
namespace {

using sim::EventLoop;
using sim::Scenario;
using sim::ScenarioConfig;
using sim::ScenarioResult;
using sim::ScenarioScript;
using transport::InterestEntry;
using transport::InterestIndex;
using transport::SubscriberId;
using util::InternedName;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  return raw != nullptr && *raw != '\0' ? std::strtoull(raw, nullptr, 10) : fallback;
}

InternedName intern(const std::string& s) { return util::SymbolTable::global().intern(s); }

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, FiresInTimeThenScheduleOrder) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.at(200, [&] { order.push_back(3); });
  loop.at(100, [&] { order.push_back(1); });
  loop.at(100, [&] { order.push_back(2); });  // same tick: schedule order
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_ns(), 200u);
}

TEST(EventLoopTest, EventsMayScheduleMoreEventsAndPastClampsToNow) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.at(100, [&] {
    order.push_back(1);
    loop.at(50, [&] { order.push_back(2); });  // in the past: fires next
    loop.after(10, [&] { order.push_back(3); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now_ns(), 110u);
}

TEST(EventLoopTest, RunUntilAdvancesSharedClock) {
  util::SimClock clock;
  EventLoop loop(1, &clock);
  int fired = 0;
  loop.at(100, [&] { fired++; });
  loop.at(900, [&] { fired++; });
  EXPECT_EQ(loop.run_until(500), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now_ns(), 500u);  // advanced to the horizon, not the event
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(clock.now_ns(), 900u);
}

// --- InterestIndex -----------------------------------------------------------

TEST(InterestIndexTest, MatchFirstHonorsDeclarationOrder) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.order.A");
  const InternedName b = intern("simidx.order.B");
  const InternedName c = intern("simidx.order.C");
  index.add_interest(sub, b, 2);
  index.add_interest(sub, a, 1);
  index.add_interest(sub, c, 3);

  // Everything matches: the FIRST DECLARED interest wins, not the lowest id.
  const auto any = index.match_first(sub, [](const InterestEntry&) { return true; });
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->interest, b);
  EXPECT_EQ(any->fingerprint, 2u);

  // A selective acceptor sees candidates in declaration order too.
  std::vector<InternedName> seen;
  const auto last = index.match_first(sub, [&](const InterestEntry& e) {
    seen.push_back(e.interest);
    return e.interest == c;
  });
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->interest, c);
  EXPECT_EQ(seen, (std::vector<InternedName>{b, a, c}));
}

TEST(InterestIndexTest, RegistrationIsIdempotentAndRemovable) {
  InterestIndex index;
  const SubscriberId sub = index.add_subscriber();
  const InternedName a = intern("simidx.idem.A");
  index.add_interest(sub, a, 7);
  index.add_interest(sub, a, 7);  // duplicate pair: no-op
  EXPECT_EQ(index.entry_count(), 1u);
  EXPECT_EQ(index.interest_count(), 1u);

  index.remove_interest(sub, a);
  EXPECT_EQ(index.entry_count(), 0u);
  EXPECT_EQ(index.interest_count(), 0u);
  std::vector<SubscriberId> subs;
  EXPECT_EQ(index.collect_subscribers(a, subs), 0u);

  EXPECT_THROW(index.add_interest(sub, InternedName(), 0), transport::TransportError);
  EXPECT_THROW(index.add_interest(sub + 100, a, 7), transport::TransportError);
}

TEST(InterestIndexTest, SubscriberIdsAreDenseAndReusedLifo) {
  InterestIndex index;
  const SubscriberId s0 = index.add_subscriber();
  const SubscriberId s1 = index.add_subscriber();
  const SubscriberId s2 = index.add_subscriber();
  EXPECT_EQ(s1, s0 + 1);
  EXPECT_EQ(s2, s0 + 2);

  index.remove_subscriber(s1);
  index.remove_subscriber(s2);
  EXPECT_FALSE(index.is_live(s1));
  // LIFO reuse: the most recently freed id comes back first — this is what
  // keeps churned scenario replays deterministic.
  EXPECT_EQ(index.add_subscriber(), s2);
  EXPECT_EQ(index.add_subscriber(), s1);
  EXPECT_TRUE(index.is_live(s1));
}

TEST(InterestIndexTest, PostingListsSurviveTombstoneCompaction) {
  InterestIndex index;
  const InternedName hot = intern("simidx.compact.Hot");
  std::vector<SubscriberId> subs;
  for (int i = 0; i < 400; ++i) {
    const SubscriberId sub = index.add_subscriber();
    index.add_interest(sub, hot, 11);
    subs.push_back(sub);
  }
  // Remove enough for erase() to trip compaction (tombstones > live).
  for (int i = 0; i < 300; ++i) index.remove_subscriber(subs[i]);

  std::vector<SubscriberId> collected;
  ASSERT_EQ(index.collect_subscribers(hot, collected), 100u);
  // Subscription order of the survivors is preserved across compaction.
  EXPECT_EQ(collected, std::vector<SubscriberId>(subs.begin() + 300, subs.end()));
  index.epochs().try_reclaim();
}

TEST(InterestIndexTest, CollectMatchesReturnsSortedUnion) {
  InterestIndex index;
  const InternedName x = intern("simidx.union.X");
  const InternedName y = intern("simidx.union.Y");
  const SubscriberId s0 = index.add_subscriber();
  const SubscriberId s1 = index.add_subscriber();
  const SubscriberId s2 = index.add_subscriber();
  index.add_interest(s2, x, 1);
  index.add_interest(s0, x, 1);
  index.add_interest(s0, y, 2);
  index.add_interest(s1, y, 2);

  std::vector<SubscriberId> out;
  std::vector<InternedName> scratch;
  // Accept both interests: s0 subscribes to both but appears once.
  ASSERT_EQ(index.collect_matches([](const InterestEntry&) { return true; }, out, scratch),
            3u);
  EXPECT_EQ(out, (std::vector<SubscriberId>{s0, s1, s2}));

  out.clear();
  ASSERT_EQ(index.collect_matches(
                [&](const InterestEntry& e) { return e.interest == y; }, out, scratch),
            2u);
  EXPECT_EQ(out, (std::vector<SubscriberId>{s0, s1}));
}

// Bounded fan-out against its definition: the `limit` lowest distinct ids
// of the sorted union. Random indexes put subscribers under several
// accepted interests (duplicates across posting lists), leave tombstones
// behind remove_subscriber/remove_interest, and re-subscribe LIFO-reused
// ids at the tails of the posting lists, so lists are far from sorted.
TEST(InterestIndexTest, BoundedCollectMatchesEqualsSortUniqueTruncate) {
  constexpr int kInterests = 6;
  std::vector<InternedName> names;
  for (int i = 0; i < kInterests; ++i) {
    names.push_back(intern("simidx.bounded.T" + std::to_string(i)));
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    InterestIndex index;
    const auto subscribe_randomly = [&](SubscriberId sub) {
      for (int i = 0; i < kInterests; ++i) {
        if (rng.next_bool(0.4)) index.add_interest(sub, names[i], i);
      }
    };
    std::vector<SubscriberId> live;
    const std::size_t population = 50 + rng.next_below(500);
    for (std::size_t k = 0; k < population; ++k) {
      live.push_back(index.add_subscriber());
      subscribe_randomly(live.back());
    }
    // Churn: tombstones, then LIFO reuse of the freed ids.
    for (std::size_t k = 0; k < population / 3; ++k) {
      const std::size_t at = rng.next_below(live.size());
      index.remove_subscriber(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    for (const SubscriberId sub : live) {
      if (rng.next_bool(0.2)) index.remove_interest(sub, names[rng.next_below(kInterests)]);
    }
    for (std::size_t k = 0; k < population / 4; ++k) {
      live.push_back(index.add_subscriber());
      subscribe_randomly(live.back());
    }

    std::vector<bool> accepted(kInterests);
    for (int i = 0; i < kInterests; ++i) accepted[i] = rng.next_bool(0.6);
    const auto accept = [&](const InterestEntry& e) {
      for (int i = 0; i < kInterests; ++i) {
        if (e.interest == names[i]) return static_cast<bool>(accepted[i]);
      }
      return false;
    };
    std::vector<SubscriberId> reference;
    for (int i = 0; i < kInterests; ++i) {
      if (accepted[i]) index.collect_subscribers(names[i], reference);
    }
    std::sort(reference.begin(), reference.end());
    reference.erase(std::unique(reference.begin(), reference.end()), reference.end());

    std::vector<SubscriberId> out;
    std::vector<InternedName> scratch;
    ASSERT_EQ(index.collect_matches(accept, out, scratch), reference.size());
    EXPECT_EQ(out, reference) << "seed " << seed << " unbounded";
    const std::size_t n = reference.size();
    for (const std::size_t limit :
         {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{65}, n, n + 7,
          InterestIndex::kMaxSelect, InterestIndex::kMaxSelect + 1}) {
      const auto kept = static_cast<std::ptrdiff_t>(std::min(limit, n));
      const std::vector<SubscriberId> expected(reference.begin(), reference.begin() + kept);
      out.assign(3, 0);  // stale contents must be cleared
      EXPECT_EQ(index.collect_matches(accept, out, scratch, limit), expected.size());
      EXPECT_EQ(out, expected) << "seed " << seed << " limit " << limit << " of " << n;
    }
  }
}

// The TSan target: writers churn subscriptions on a shared index while
// pinned readers walk snapshots and an epoch thread reclaims. Run under
// the tsan preset this asserts the epoch invariant (pinned readers never
// touch freed storage); under plain builds it is a liveness smoke.
TEST(InterestIndexTest, ConcurrentChurnWithPinnedReaders) {
  InterestIndex index;
  const int kInterests = 8;
  std::vector<InternedName> names;
  for (int i = 0; i < kInterests; ++i) {
    names.push_back(intern("simidx.churn.T" + std::to_string(i)));
  }

  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(100 + w);
      for (int round = 0; round < 400; ++round) {
        const SubscriberId sub = index.add_subscriber();
        for (int i = 0; i < kInterests; ++i) {
          if (rng.next_bool(0.5)) {
            index.add_interest(sub, names[i], static_cast<std::uint64_t>(i));
          }
        }
        if (rng.next_bool(0.3)) {
          index.remove_interest(sub, names[rng.next_below(kInterests)]);
        }
        index.remove_subscriber(sub);
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      std::vector<SubscriberId> subs;
      std::vector<InternedName> interests;
      for (int round = 0; round < 600; ++round) {
        util::EpochManager::Pin pin(index.epochs());
        subs.clear();
        index.collect_subscribers(names[round % kInterests], subs);
        interests.clear();
        index.collect_interests(interests);
        for (const SubscriberId sub : subs) {
          if (const auto* held = index.interests_of(sub)) {
            for (const InterestEntry& e : *held) ASSERT_TRUE(e.interest.valid());
          }
        }
        (void)r;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) index.epochs().try_reclaim();
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(index.subscriber_count(), 0u);
  EXPECT_EQ(index.entry_count(), 0u);
  index.epochs().try_reclaim();
}

// --- Scenario determinism ----------------------------------------------------

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.seed = seed;
  config.peers = 400;
  config.types = 24;
  config.type_groups = 6;
  config.fanout_cap = 32;
  return config;
}

TEST(ScenarioDeterminism, SameSeedByteIdenticalDigests) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult first = sim::run_scenario(small_config(7), script);
  const ScenarioResult second = sim::run_scenario(small_config(7), script);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_EQ(first.accept_digest, second.accept_digest);
  EXPECT_EQ(first.stats_digest, second.stats_digest);
  EXPECT_EQ(first.stats.net_bytes, second.stats.net_bytes);

  // The run did real work in every dimension the digest covers.
  EXPECT_GT(first.stats.publishes, 0u);
  EXPECT_GT(first.stats.accepts, 0u);
  EXPECT_GT(first.stats.rejects, 0u);
  EXPECT_GT(first.stats.leaves, 0u);
  EXPECT_GT(first.stats.partitions, 0u);
  EXPECT_EQ(first.stats.heals, first.stats.partitions);
}

TEST(ScenarioDeterminism, DifferentSeedDiverges) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult a = sim::run_scenario(small_config(7), script);
  const ScenarioResult b = sim::run_scenario(small_config(8), script);
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

// Independent scenarios on four host threads, all interning into the one
// global symbol table concurrently, must each reproduce the single-threaded
// digest — i.e. digests must not depend on raw interned-id values.
TEST(ScenarioDeterminism, HostThreadCountInvariant) {
  const ScenarioScript script = ScenarioScript::standard(400);
  const ScenarioResult reference = sim::run_scenario(small_config(11), script);

  std::vector<ScenarioResult> results(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = sim::run_scenario(small_config(11), script); });
  }
  for (std::thread& t : threads) t.join();
  for (const ScenarioResult& result : results) {
    EXPECT_EQ(result.trace_digest, reference.trace_digest);
    EXPECT_EQ(result.accept_digest, reference.accept_digest);
    EXPECT_EQ(result.stats_digest, reference.stats_digest);
  }
}

// A dense little population (60 peers, 30 partitioned pairs) makes storms
// reliably cross live partitions, so the drop path is exercised — and must
// replay byte-identically like everything else.
TEST(ScenarioDeterminism, ChurnAndPartitionWavesReplay) {
  ScenarioConfig config;
  config.seed = 13;
  config.peers = 60;
  config.types = 8;
  config.type_groups = 2;
  config.fanout_cap = 16;
  ScenarioScript script;
  script.churn(20, 10)
      .partition_wave(30, 10'000'000)
      .publish_storm(200)
      .settle(20'000'000)
      .churn(5, 5)
      .publish_storm(50);
  const ScenarioResult a = sim::run_scenario(config, script);
  const ScenarioResult b = sim::run_scenario(config, script);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.stats_digest, b.stats_digest);
  EXPECT_EQ(a.stats.leaves, 25u);
  EXPECT_EQ(a.stats.joins, 60u + 15u);
  EXPECT_EQ(a.stats.partitions, 30u);
  EXPECT_EQ(a.stats.heals, 30u);
  EXPECT_GT(a.stats.drops, 0u);  // the storm overlapped live partitions
}

// --- Protocol-mode and matching-path equivalence -----------------------------

TEST(ScenarioEquivalence, EagerAndOptimisticAgreeOnEveryVerdict) {
  const ScenarioScript script = ScenarioScript::standard(1000);
  ScenarioConfig config;
  config.seed = 21;
  config.peers = 1000;
  config.mode = transport::ProtocolMode::Optimistic;
  const ScenarioResult optimistic = sim::run_scenario(config, script);
  config.mode = transport::ProtocolMode::Eager;
  const ScenarioResult eager = sim::run_scenario(config, script);

  // Same seed, same universe, same matrix: identical accept/reject stream.
  EXPECT_EQ(optimistic.accept_digest, eager.accept_digest);
  EXPECT_EQ(optimistic.stats.accepts, eager.stats.accepts);
  EXPECT_EQ(optimistic.stats.rejects, eager.stats.rejects);

  // The paper's claim, end to end: optimistic rejections skip the type
  // bundle, so the same verdicts cost fewer wire bytes.
  EXPECT_GT(optimistic.stats.rejects, 0u);
  EXPECT_LT(optimistic.stats.net_bytes, eager.stats.net_bytes);
  EXPECT_GT(optimistic.stats.typeinfo_requests, 0u);
  EXPECT_EQ(eager.stats.typeinfo_requests, 0u);
}

TEST(ScenarioEquivalence, InvertedIndexAndPerPeerScanProduceIdenticalRuns) {
  const ScenarioScript script = ScenarioScript::standard(600);
  ScenarioConfig config;
  config.seed = 23;
  config.peers = 600;
  config.use_inverted_index = true;
  const ScenarioResult indexed = sim::run_scenario(config, script);
  config.use_inverted_index = false;
  const ScenarioResult scanned = sim::run_scenario(config, script);

  EXPECT_EQ(indexed.trace_digest, scanned.trace_digest);
  EXPECT_EQ(indexed.accept_digest, scanned.accept_digest);
  EXPECT_EQ(indexed.stats_digest, scanned.stats_digest);
}

// The same parity where the publisher itself is often among the lowest
// fanout_cap + 1 subscribers the bounded fan-out keeps: one type group, so
// every live peer matches every publish, and 40 peers with a cap of 4 put
// the publisher inside the lowest five in ~1 publish in 8 (missing it in
// all 300 has probability ~4e-18). Dropping it must leave cap targets.
TEST(ScenarioEquivalence, IndexAndScanAgreeWhenThePublisherIsAmongTheLowest) {
  ScenarioScript script;
  script.publish_storm(150).churn(10, 6).publish_storm(150);
  ScenarioConfig config;
  config.seed = 41;
  config.peers = 40;
  config.types = 4;
  config.type_groups = 1;
  for (const std::size_t cap : {std::size_t{4}, std::size_t{64}}) {
    config.fanout_cap = cap;
    config.use_inverted_index = true;
    const ScenarioResult indexed = sim::run_scenario(config, script);
    config.use_inverted_index = false;
    const ScenarioResult scanned = sim::run_scenario(config, script);
    EXPECT_EQ(indexed.trace_digest, scanned.trace_digest) << "cap " << cap;
    EXPECT_EQ(indexed.accept_digest, scanned.accept_digest) << "cap " << cap;
    EXPECT_EQ(indexed.stats_digest, scanned.stats_digest) << "cap " << cap;
    // Every publish reaches min(cap, live peers - 1) targets: 40 live in
    // the first storm, 36 after the churn.
    EXPECT_EQ(indexed.stats.deliveries,
              150 * std::min<std::size_t>(cap, 39) + 150 * std::min<std::size_t>(cap, 35))
        << "cap " << cap;
  }
}

TEST(ScenarioEquivalence, SessionModeAgreesWhileWireCostCollapses) {
  // A deliberately small, churn-heavy population so sender/receiver pairs
  // repeat a lot: that is where the session layer earns its keep. The
  // verdict/accept stream must be byte-identical to the non-session run —
  // sessions change how metadata travels, never what is decided — while
  // the exchange count and wire bytes drop (intros piggyback inline, so
  // the nested TypeInfoRequest traffic disappears entirely).
  ScenarioScript script;
  script.publish_storm(1500).churn(4, 4).publish_storm(1000).settle(5'000'000);
  ScenarioConfig config;
  config.seed = 29;
  config.peers = 16;
  config.types = 8;
  config.mode = transport::ProtocolMode::Optimistic;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  const ScenarioResult session = sim::run_scenario(config, script);

  EXPECT_EQ(session.accept_digest, cold.accept_digest);
  EXPECT_EQ(session.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(session.stats.rejects, cold.stats.rejects);
  EXPECT_EQ(session.stats.deliveries, cold.stats.deliveries);
  EXPECT_EQ(session.stats.drops, cold.stats.drops);

  // The collapse: same verdicts, strictly fewer exchanges and bytes.
  EXPECT_GT(cold.stats.typeinfo_requests, 0u);
  EXPECT_EQ(session.stats.typeinfo_requests, 0u);
  EXPECT_LT(session.stats.net_messages, cold.stats.net_messages);
  EXPECT_LT(session.stats.net_bytes, cold.stats.net_bytes);

  // Determinism holds in session mode too: same seed, same digests.
  const ScenarioResult replay = sim::run_scenario(config, script);
  EXPECT_EQ(replay.trace_digest, session.trace_digest);
  EXPECT_EQ(replay.accept_digest, session.accept_digest);
  EXPECT_EQ(replay.stats_digest, session.stats_digest);
}

// Batched session mode regroups the wire — SessionBatch frames carry many
// pushes per (publisher, target) pair — but must NOT regroup the verdict
// stream: the accept digest folds per delivery in original order and has
// to land byte-identical to both the unbatched session run and the cold
// run, across churn, partitions and heals (windows close before every
// state-changing event).
TEST(ScenarioEquivalence, BatchedSessionsReproduceTheVerdictStream) {
  ScenarioScript script;
  script.publish_storm(1200)
      .churn(4, 4)
      .partition_wave(6, 400'000)
      .publish_storm(900)
      .settle(5'000'000)
      .publish_storm(400);
  ScenarioConfig config;
  config.seed = 31;
  config.peers = 24;
  config.types = 12;
  config.type_groups = 4;
  config.fanout_cap = 16;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  const ScenarioResult session = sim::run_scenario(config, script);
  config.session_batch = 8;
  const ScenarioResult batched = sim::run_scenario(config, script);

  EXPECT_EQ(batched.accept_digest, session.accept_digest);
  EXPECT_EQ(batched.accept_digest, cold.accept_digest);
  EXPECT_EQ(batched.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(batched.stats.rejects, cold.stats.rejects);
  EXPECT_EQ(batched.stats.deliveries, cold.stats.deliveries);
  EXPECT_EQ(batched.stats.drops, cold.stats.drops);

  // The batching was real: frames carried more entries than frames, and
  // every deferred delivery went out through a batch frame.
  EXPECT_GT(batched.stats.session_batch_frames, 0u);
  EXPECT_GT(batched.stats.session_batch_entries, batched.stats.session_batch_frames);
  EXPECT_EQ(session.stats.session_batch_frames, 0u);
  // Fewer frames on the wire than unbatched session mode sent messages.
  EXPECT_LT(batched.stats.net_messages, session.stats.net_messages);
  EXPECT_LE(batched.stats.net_bytes, session.stats.net_bytes);

  // Determinism holds under batching: same seed, same digests.
  const ScenarioResult replay = sim::run_scenario(config, script);
  EXPECT_EQ(replay.trace_digest, batched.trace_digest);
  EXPECT_EQ(replay.accept_digest, batched.accept_digest);
  EXPECT_EQ(replay.stats_digest, batched.stats_digest);
}

// The shared-intro pay-off at population scale: a 16k-peer cold-heavy
// storm (almost every (sender, target) pair is first contact) used to be
// the session layer's worst case — every pair re-shipped the description
// XML the receiver already held. With receivers advertising description
// hashes and senders consulting the hub registry, a hot description
// crosses once per RECEIVER, so batched session bytes drop below even the
// cold protocol (which pays a TypeInfoRequest round trip per receiver).
TEST(ScenarioEquivalence, SharedIntrosBeatColdOnAColdHeavyStorm) {
  const std::size_t peers = env_u64("PTI_SIM_BATCH_PEERS", 16384);
  ScenarioScript script;
  script.publish_storm(2500);
  ScenarioConfig config;
  config.seed = 37;
  config.peers = peers;
  config.types = 64;
  config.type_groups = 16;
  config.fanout_cap = 16;
  config.use_sessions = false;
  const ScenarioResult cold = sim::run_scenario(config, script);
  config.use_sessions = true;
  config.session_batch = 16;
  const ScenarioResult batched = sim::run_scenario(config, script);

  EXPECT_EQ(batched.accept_digest, cold.accept_digest);
  EXPECT_EQ(batched.stats.accepts, cold.stats.accepts);
  EXPECT_EQ(batched.stats.rejects, cold.stats.rejects);
  EXPECT_GT(batched.stats.session_batch_frames, 0u);
  EXPECT_LE(batched.stats.net_bytes, cold.stats.net_bytes);
  EXPECT_LT(batched.stats.net_messages, cold.stats.net_messages);
  ::testing::Test::RecordProperty("cold_bytes", std::to_string(cold.stats.net_bytes));
  ::testing::Test::RecordProperty("session_bytes",
                                  std::to_string(batched.stats.net_bytes));
}

// --- Golden digests ----------------------------------------------------------

// Every other scenario test compares one run with another run, so a change
// that is wrong but deterministic (say, a fan-out that picks the wrong
// capped targets every time) would pass them all. These values were
// recorded from the implementation that sorted the full subscriber union
// and keyed session state by peer name; any change to fan-out selection,
// batching or session bookkeeping must reproduce them exactly.
struct GoldenRun {
  const char* label;
  bool sessions;
  std::size_t session_batch;
  std::size_t fanout_cap;
  std::uint64_t trace_digest;
  std::uint64_t accept_digest;
  std::uint64_t stats_digest;
  std::uint64_t net_bytes;
};

TEST(ScenarioGolden, DigestsMatchPinnedValues) {
  constexpr std::size_t kPeers = 1500;
  const GoldenRun runs[] = {
      {"optimistic/cap16", false, 1, 16, 16852827963466580873ULL, 3240809623005909056ULL,
       7863229076828516274ULL, 6926687ULL},
      {"optimistic/cap64", false, 1, 64, 2958558045681184115ULL, 3585816695577321411ULL,
       8221024017233152995ULL, 27492694ULL},
      {"session/cap16", true, 1, 16, 16852827963466580873ULL, 3240809623005909056ULL,
       8253676160607759001ULL, 6039693ULL},
      {"session/cap64", true, 1, 64, 2958558045681184115ULL, 3585816695577321411ULL,
       11032245340381392621ULL, 23954092ULL},
      {"batch16/cap16", true, 16, 16, 4990154917609408661ULL, 3240809623005909056ULL,
       13005671410760905318ULL, 6079539ULL},
      {"batch16/cap64", true, 16, 64, 11688647665426156231ULL, 3585816695577321411ULL,
       11725491231210435743ULL, 24113072ULL},
  };
  const ScenarioScript script = ScenarioScript::standard(kPeers);
  for (const GoldenRun& golden : runs) {
    ScenarioConfig config;
    config.seed = 53;
    config.peers = kPeers;
    config.types = 64;
    config.type_groups = 16;
    config.use_sessions = golden.sessions;
    config.session_batch = golden.session_batch;
    config.fanout_cap = golden.fanout_cap;
    const ScenarioResult result = sim::run_scenario(config, script);
    EXPECT_EQ(result.trace_digest, golden.trace_digest) << golden.label;
    EXPECT_EQ(result.accept_digest, golden.accept_digest) << golden.label;
    EXPECT_EQ(result.stats_digest, golden.stats_digest) << golden.label;
    EXPECT_EQ(result.stats.net_bytes, golden.net_bytes) << golden.label;
    // Print a ready-to-paste row when anything differs.
    if (::testing::Test::HasFailure()) {
      std::printf("{\"%s\", %s, %zu, %zu, %lluULL, %lluULL, %lluULL, %lluULL},\n", golden.label,
                  golden.sessions ? "true" : "false", golden.session_batch, golden.fanout_cap,
                  static_cast<unsigned long long>(result.trace_digest),
                  static_cast<unsigned long long>(result.accept_digest),
                  static_cast<unsigned long long>(result.stats_digest),
                  static_cast<unsigned long long>(result.stats.net_bytes));
    }
  }
}

// --- Scale gate --------------------------------------------------------------

// Env knobs:
//   PTI_SIM_PEERS  population size (default 3000; smoke 10^4; soak 10^5+)
//   PTI_SIM_RUNS   determinism repetitions (default 2; every run must match)
//   PTI_SIM_SEED   scenario seed (default 42)
TEST(SimScale, PopulationScenario) {
  const std::size_t peers = env_u64("PTI_SIM_PEERS", 3000);
  const std::size_t runs = std::max<std::uint64_t>(env_u64("PTI_SIM_RUNS", 2), 1);
  ScenarioConfig config;
  config.seed = env_u64("PTI_SIM_SEED", 42);
  config.peers = peers;
  config.types = 64;
  config.type_groups = 16;
  const ScenarioScript script = ScenarioScript::standard(peers);

  ScenarioResult reference;
  for (std::size_t run = 0; run < runs; ++run) {
    const ScenarioResult result = sim::run_scenario(config, script);
    if (run == 0) {
      reference = result;
      EXPECT_GE(result.stats.index_subscribers, peers - peers / 10);
      EXPECT_GT(result.stats.accepts, 0u);
      EXPECT_GT(result.stats.rejects, 0u);
      EXPECT_GT(result.stats.net_bytes, 0u);
      ::testing::Test::RecordProperty("peers", static_cast<int>(peers));
      ::testing::Test::RecordProperty(
          "net_messages", std::to_string(result.stats.net_messages));
      ::testing::Test::RecordProperty("trace_digest",
                                      std::to_string(result.trace_digest));
    } else {
      EXPECT_EQ(result.trace_digest, reference.trace_digest) << "run " << run;
      EXPECT_EQ(result.accept_digest, reference.accept_digest) << "run " << run;
      EXPECT_EQ(result.stats_digest, reference.stats_digest) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace pti
