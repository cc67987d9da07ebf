// API — the end-to-end cost of the v2 handle-based public surface.
//
// PR 1/2 made the library-level hot paths (checker + cache) allocation-
// free; this bench verifies the *public API* keeps those properties: a
// steady-state caller holding TypeHandles must pay no string hashing, no
// case folding and no heap allocations for cached conformance queries and
// handler dispatch, and only the unavoidable object construction for
// make/adapt. The acceptance bar (ISSUE 3): handle-based cached
// check_conformance ≤ the PR-2 cached checker cost, and dispatch at 0
// allocs per delivered object.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "core/interop.hpp"

namespace {

using namespace pti;
using bench::measure_allocs;
using core::InteropRuntime;
using core::InteropSystem;
using core::TypeHandle;
using reflect::Value;

/// One runtime with both teams' types loaded — the steady-state picture of
/// a peer after the optimistic protocol has run.
struct Fixture {
  Fixture() : runtime(system.create_runtime("alice")) {
    runtime.publish_assembly(fixtures::team_a_people());
    runtime.publish_assembly(fixtures::team_b_people());
    person_a = runtime.type("teamA.Person");
    person_b = runtime.type("teamB.Person");
    named_a = runtime.type("teamA.INamed");
  }

  InteropSystem system;
  InteropRuntime& runtime;
  TypeHandle person_a;
  TypeHandle person_b;
  TypeHandle named_a;
};

/// The name→handle resolution a caller pays exactly once.
void BM_ApiTypeResolve(benchmark::State& state) {
  bench::paper_reference("API v2 (ISSUE 3)",
                         "handle-based public API must keep the PR-2 cached-check "
                         "cost (~34 ns, 0 allocs) through core::InteropRuntime");
  Fixture f;
  measure_allocs(state,
                 [&] { benchmark::DoNotOptimize(f.runtime.type("teamB.Person")); });
}
BENCHMARK(BM_ApiTypeResolve);

/// Cached full check through the public API, by handle. The acceptance
/// bar: no slower than the checker-level cached check() of PR 2.
void BM_ApiCheckConformanceCachedHandle(benchmark::State& state) {
  Fixture f;
  (void)f.runtime.check_conformance(f.person_b, f.person_a);  // warm
  measure_allocs(state, [&] {
    benchmark::DoNotOptimize(f.runtime.check_conformance(f.person_b, f.person_a));
  });
}
BENCHMARK(BM_ApiCheckConformanceCachedHandle);

/// The same query through the v1 string API — what the handle redesign
/// saves (two registry resolutions per call).
void BM_ApiCheckConformanceCachedString(benchmark::State& state) {
  Fixture f;
  (void)f.runtime.check_conformance("teamB.Person", "teamA.Person");  // warm
  measure_allocs(state, [&] {
    benchmark::DoNotOptimize(
        f.runtime.check_conformance("teamB.Person", "teamA.Person"));
  });
}
BENCHMARK(BM_ApiCheckConformanceCachedString);

/// Verdict-only hit path through the public API: must be 0 allocs.
void BM_ApiConformsCachedHandle(benchmark::State& state) {
  Fixture f;
  (void)f.runtime.check_conformance(f.person_b, f.person_a);  // warm
  measure_allocs(state, [&] {
    benchmark::DoNotOptimize(f.runtime.conforms(f.person_b, f.person_a));
  });
}
BENCHMARK(BM_ApiConformsCachedHandle);

/// Reference point: the same cached check at the checker level (the PR-2
/// number the API path is measured against).
void BM_CheckerCheckCachedReference(benchmark::State& state) {
  Fixture f;
  const auto& source = f.person_b.description();
  const auto& target = f.person_a.description();
  (void)f.runtime.checker().check(source, target);  // warm
  measure_allocs(state, [&] {
    benchmark::DoNotOptimize(f.runtime.checker().check(source, target));
  });
}
BENCHMARK(BM_CheckerCheckCachedReference);

/// Batched verdicts over many warmed pairs: the shard-aware batch probe
/// amortizes cache traffic; per-pair cost should sit at or below the
/// single conforms() hit. Zero allocations (caller-owned output span).
void BM_ApiCheckConformanceBatch(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  Fixture f;
  f.runtime.domain().load_assembly(fixtures::deep_type_chain("da", depth));
  f.runtime.domain().load_assembly(fixtures::deep_type_chain("db", depth));
  std::vector<InteropRuntime::HandlePair> pairs;
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string level = "T" + std::to_string(i);
    pairs.emplace_back(f.runtime.type("db." + level), f.runtime.type("da." + level));
  }
  // Warm every pair, then measure the batch.
  std::vector<bool> warm = f.runtime.check_conformance(pairs);
  benchmark::DoNotOptimize(warm);
  const std::unique_ptr<bool[]> storage(new bool[pairs.size()]());
  const std::span<bool> verdicts(storage.get(), pairs.size());
  measure_allocs(state, [&] {
    f.runtime.check_conformance(std::span<const InteropRuntime::HandlePair>(pairs),
                                verdicts);
    benchmark::DoNotOptimize(verdicts.data());
  });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs.size()));
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_ApiCheckConformanceBatch)->Arg(16)->Arg(64);

/// make() by handle vs by string: the object construction dominates; the
/// handle path sheds the registry probe and name re-hash.
void BM_ApiMakeHandle(benchmark::State& state) {
  Fixture f;
  const Value args[] = {Value("Ada")};
  measure_allocs(state,
                 [&] { benchmark::DoNotOptimize(f.runtime.make(f.person_a, args)); });
}
BENCHMARK(BM_ApiMakeHandle);

void BM_ApiMakeString(benchmark::State& state) {
  Fixture f;
  const Value args[] = {Value("Ada")};
  measure_allocs(state,
                 [&] { benchmark::DoNotOptimize(f.runtime.make("teamA.Person", args)); });
}
BENCHMARK(BM_ApiMakeString);

/// adapt() on a warmed plan: proxy wrap through the cached conformance
/// plan (COW — no deep copy).
void BM_ApiAdaptCachedHandle(benchmark::State& state) {
  Fixture f;
  const Value args[] = {Value("Ada")};
  auto person = f.runtime.make(f.person_a, args);
  (void)f.runtime.adapt(person, f.person_b);  // warm plan
  measure_allocs(state, [&] {
    benchmark::DoNotOptimize(f.runtime.adapt(person, f.person_b));
  });
}
BENCHMARK(BM_ApiAdaptCachedHandle);

/// try_ channel overhead on the cached check path: Expected<CheckResult>
/// wraps the same computation.
void BM_ApiTryCheckConformanceCached(benchmark::State& state) {
  Fixture f;
  (void)f.runtime.check_conformance(f.person_b, f.person_a);  // warm
  measure_allocs(state, [&] {
    benchmark::DoNotOptimize(f.runtime.try_check_conformance(f.person_b, f.person_a));
  });
}
BENCHMARK(BM_ApiTryCheckConformanceCached);

/// Handler dispatch on the interned interest id: the per-delivery fan-out
/// must be allocation-free (ISSUE 3 satellite). Drives dispatch()
/// directly with a prebuilt DeliveredObject, exactly what the protocol
/// hands over after deserialization.
void BM_ApiDispatch(benchmark::State& state) {
  const auto handlers = static_cast<std::size_t>(state.range(0));
  Fixture f;
  std::uint64_t delivered_count = 0;
  std::vector<core::Subscription> subs;
  subs.reserve(handlers);
  for (std::size_t i = 0; i < handlers; ++i) {
    subs.push_back(
        f.runtime.subscribe(f.person_b, [&](const auto&) { ++delivered_count; }));
  }
  const Value args[] = {Value("Ada")};
  transport::DeliveredObject delivered;
  delivered.object = f.runtime.make(f.person_a, args);
  delivered.adapted = f.runtime.adapt(delivered.object, f.person_b);
  delivered.interest_type = "teamB.Person";
  delivered.interest_id = f.person_b.id();
  delivered.sender = "bench";
  measure_allocs(state, [&] { f.runtime.dispatch(delivered); });
  benchmark::DoNotOptimize(delivered_count);
  state.counters["handlers"] = static_cast<double>(handlers);
}
BENCHMARK(BM_ApiDispatch)->Arg(1)->Arg(4)->Arg(16);

/// The full pass-by-value exchange through the public API (send + match +
/// deserialize + dispatch) — the end-to-end context for the numbers above.
void BM_ApiSendDeliver(benchmark::State& state) {
  InteropSystem system;
  auto& alice = system.create_runtime("alice");
  auto& bob = system.create_runtime("bob");
  alice.publish_assembly(fixtures::team_a_people());
  bob.publish_assembly(fixtures::team_b_people());
  auto sub = bob.subscribe(bob.type("teamB.Person"), [](const auto&) {});
  const Value args[] = {Value("Ada")};
  auto person = alice.make(alice.type("teamA.Person"), args);
  (void)alice.send("bob", person);  // warm: descriptions + code downloaded
  for (auto _ : state) {
    benchmark::DoNotOptimize(alice.send("bob", person));
  }
}
BENCHMARK(BM_ApiSendDeliver);

}  // namespace

BENCHMARK_MAIN();
