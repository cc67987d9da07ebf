// E4 — conformance testing (paper §7.4).
//
// The paper verifies implicit structural conformance 100 x 1000 times on
// "very simple types" and reports ~12.66 ms / 1000 (≈12.7 us per check),
// calling it "in some sense, a lower bound" for real types. It also
// argues (implicitly) that the check dwarfs proxy invocation overhead.
//
// We measure: the Person pair uncached and cached, a non-conformant pair
// (early rejection), the baseline matchers, cache-hit throughput and
// per-lookup heap allocations (the interned-identity layer makes the
// verdict-only hit path allocation-free), and width/depth sweeps showing
// how the "lower bound" grows with type size.
#include <benchmark/benchmark.h>

#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "conform/baselines.hpp"
#include "conform/conformance_cache.hpp"
#include "conform/conformance_checker.hpp"

namespace {

using namespace pti;
using bench::measure_allocs;
using conform::ConformanceChecker;

void BM_ImplicitCheckUncached(benchmark::State& state) {
  bench::paper_reference("E4 conformance testing (§7.4)",
                         "~12.66 us per implicit structural check on simple types");
  reflect::Domain domain;
  bench::load_people(domain);
  ConformanceChecker checker(domain.registry());  // no cache: full rule every time
  const auto& source = *domain.registry().find("teamB.Person");
  const auto& target = *domain.registry().find("teamA.Person");
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(source, target));
  }
}
BENCHMARK(BM_ImplicitCheckUncached);

void BM_ImplicitCheckCached(benchmark::State& state) {
  reflect::Domain domain;
  bench::load_people(domain);
  conform::ConformanceCache cache;
  ConformanceChecker checker(domain.registry(), {}, &cache);
  const auto& source = *domain.registry().find("teamB.Person");
  const auto& target = *domain.registry().find("teamA.Person");
  (void)checker.check(source, target);  // warm
  measure_allocs(state, [&] { benchmark::DoNotOptimize(checker.check(source, target)); });
  state.counters["cache_hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_ImplicitCheckCached);

/// The verdict-only hit path: conforms() answers from the interned-key
/// cache without materializing a CheckResult. This is the path a busy peer
/// takes on every repeat (source, target) pair; allocs_per_iter must be 0.
void BM_CachedVerdictOnly(benchmark::State& state) {
  reflect::Domain domain;
  bench::load_people(domain);
  conform::ConformanceCache cache;
  ConformanceChecker checker(domain.registry(), {}, &cache);
  const auto& source = *domain.registry().find("teamB.Person");
  const auto& target = *domain.registry().find("teamA.Person");
  (void)checker.check(source, target);  // warm
  measure_allocs(state, [&] { benchmark::DoNotOptimize(checker.conforms(source, target)); });
  state.counters["cache_hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CachedVerdictOnly);

/// Cache-hit throughput across many distinct warmed pairs (not just one
/// hot key): cycles through the pairs of a deep reference chain, all of
/// which were cached by the single warming check.
void BM_CacheHitManyPairs(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  reflect::Domain domain;
  domain.load_assembly(fixtures::deep_type_chain("da", depth));
  domain.load_assembly(fixtures::deep_type_chain("db", depth));
  conform::ConformanceCache cache;
  ConformanceChecker checker(domain.registry(), {}, &cache);
  (void)checker.check(*domain.registry().find("db.T0"),
                      *domain.registry().find("da.T0"));  // warms every level
  std::vector<std::pair<const reflect::TypeDescription*, const reflect::TypeDescription*>>
      pairs;
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string level = "T" + std::to_string(i);
    pairs.emplace_back(domain.registry().find("db." + level),
                       domain.registry().find("da." + level));
  }
  std::size_t next = 0;
  measure_allocs(state, [&] {
    const auto& [source, target] = pairs[next];
    benchmark::DoNotOptimize(checker.conforms(*source, *target));
    next = (next + 1) % pairs.size();
  });
  state.counters["distinct_pairs"] = static_cast<double>(pairs.size());
  state.counters["cache_hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheHitManyPairs)->Arg(16)->Arg(64);

void BM_NonConformantEarlyReject(benchmark::State& state) {
  reflect::Domain domain;
  bench::load_people(domain);
  domain.load_assembly(fixtures::bank_accounts());
  ConformanceChecker checker(domain.registry());
  const auto& source = *domain.registry().find("bank.Account");
  const auto& target = *domain.registry().find("teamA.Person");
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(source, target));  // fails on name
  }
}
BENCHMARK(BM_NonConformantEarlyReject);

void BM_BaselineMatchers(benchmark::State& state) {
  reflect::Domain domain;
  bench::load_people(domain);
  domain.load_assembly(fixtures::tagged_a());
  domain.load_assembly(fixtures::tagged_b());

  conform::ExactMatcher exact;
  conform::NominalMatcher nominal(domain.registry());
  conform::TaggedStructuralMatcher tagged(domain.registry());
  conform::ImplicitStructuralMatcher implicit(domain.registry());
  conform::Matcher* matchers[] = {&exact, &nominal, &tagged, &implicit};
  conform::Matcher& matcher = *matchers[state.range(0)];

  const auto& src_person = *domain.registry().find("teamB.Person");
  const auto& tgt_person = *domain.registry().find("teamA.Person");
  const auto& src_point = *domain.registry().find("taggedB.Point");
  const auto& tgt_point = *domain.registry().find("taggedA.Point");
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.matches(src_person, tgt_person));
    benchmark::DoNotOptimize(matcher.matches(src_point, tgt_point));
  }
  state.SetLabel(std::string(matcher.name()));
}
BENCHMARK(BM_BaselineMatchers)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// The "lower bound" grows with type width. Member matching is still n^2
/// (target, source) name tests per aspect, but each test is an
/// allocation-free compare of token tables built once per name per check,
/// so allocs_per_iter grows linearly with width. Before the tables, every
/// pair re-tokenized both names and /128 cost ~15x /32;
/// tools/check_bench_regression.py now gates that ratio below 8.
void BM_CheckWidthSweep(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  reflect::Domain domain;
  domain.load_assembly(fixtures::wide_type("wa", "Widget", width, width));
  domain.load_assembly(fixtures::wide_type("wb", "Gadget", width, width));
  // Same shape but different type names: rename Gadget's description into a
  // Widget-named twin would short-circuit as equivalent, so instead check
  // Gadget -> Widget with a relaxed type-name budget, forcing the full
  // member-by-member walk.
  conform::ConformanceOptions options;
  options.max_name_distance = 6;  // "Widget" vs "Gadget"
  ConformanceChecker checker(domain.registry(), options);
  const auto& source = *domain.registry().find("wb.Gadget");
  const auto& target = *domain.registry().find("wa.Widget");
  measure_allocs(state, [&] { benchmark::DoNotOptimize(checker.check(source, target)); });
  state.counters["members"] = static_cast<double>(2 * width);
}
BENCHMARK(BM_CheckWidthSweep)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

/// Depth sweep over recursive reference chains.
void BM_CheckDepthSweep(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  reflect::Domain domain;
  domain.load_assembly(fixtures::deep_type_chain("da", depth));
  domain.load_assembly(fixtures::deep_type_chain("db", depth));
  ConformanceChecker checker(domain.registry());
  const auto& source = *domain.registry().find("db.T0");
  const auto& target = *domain.registry().find("da.T0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(source, target));
  }
  state.counters["depth"] = static_cast<double>(depth);
}
BENCHMARK(BM_CheckDepthSweep)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
