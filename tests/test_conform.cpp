// Tests for the conformance engine: the paper's rules (Fig. 2), cycle
// handling, ambiguity, caching, missing-type reporting, the baseline
// matchers, and member-name matching held to util::token_subset_match.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conform/baselines.hpp"
#include "conform/conformance_cache.hpp"
#include "conform/conformance_checker.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/introspect.hpp"
#include "reflect/type_builder.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace pti::conform {
namespace {

using reflect::Args;
using reflect::Domain;
using reflect::DynObject;
using reflect::TypeBuilder;
using reflect::TypeDescription;
using reflect::TypeKind;
using reflect::Value;

/// A domain pre-loaded with the whole fixture universe.
class ConformTest : public ::testing::Test {
 protected:
  ConformTest() {
    domain_.load_assembly(fixtures::team_a_people());
    domain_.load_assembly(fixtures::team_b_people());
    domain_.load_assembly(fixtures::planner_meetings());
    domain_.load_assembly(fixtures::agenda_meetings());
    domain_.load_assembly(fixtures::bank_accounts());
    domain_.load_assembly(fixtures::lists_a());
    domain_.load_assembly(fixtures::lists_b());
    domain_.load_assembly(fixtures::tagged_a());
    domain_.load_assembly(fixtures::tagged_b());
  }

  const TypeDescription& type(std::string_view name) {
    const TypeDescription* d = domain_.registry().find(name);
    EXPECT_NE(d, nullptr) << name;
    return *d;
  }

  ConformanceChecker make_checker(ConformanceOptions options = {},
                                  ConformanceCache* cache = nullptr) {
    return ConformanceChecker(domain_.registry(), options, cache);
  }

  Domain domain_;
};

// --- the headline result: the paper's Person example -------------------------

TEST_F(ConformTest, TeamBPersonConformsToTeamAPerson) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("teamB.Person"), type("teamA.Person"));
  ASSERT_TRUE(r.conformant) << (r.failures.empty() ? "" : r.failures.front());
  EXPECT_EQ(r.plan.kind(), ConformanceKind::ImplicitStructural);

  // The plan must map the renamed accessors.
  const MethodMapping* get_name = r.plan.find_method("getName", 0);
  ASSERT_NE(get_name, nullptr);
  EXPECT_EQ(get_name->source_name, "getPersonName");
  const MethodMapping* set_name = r.plan.find_method("setName", 1);
  ASSERT_NE(set_name, nullptr);
  EXPECT_EQ(set_name->source_name, "setPersonName");
}

TEST_F(ConformTest, ConformanceIsMutualForThePersonPair) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("teamA.Person"), type("teamB.Person")));
  EXPECT_TRUE(checker.conforms(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, NestedAddressTypesConformRecursively) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("teamB.Address"), type("teamA.Address")));
  const CheckResult r = checker.check(type("teamB.Address"), type("teamA.Address"));
  const MethodMapping* m = r.plan.find_method("getStreet", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->source_name, "getStreetName");
}

TEST_F(ConformTest, InterfacesConformAcrossTeams) {
  ConformanceChecker checker = make_checker();
  // teamB's INamed implicitly conforms to teamA's INamed (same name,
  // token-conformant method).
  EXPECT_TRUE(checker.conforms(type("teamB.INamed"), type("teamA.INamed")));
  // A *class* named Person does NOT conform to an interface named INamed:
  // the paper's name aspect (rule i) applies to the types themselves.
  EXPECT_FALSE(checker.conforms(type("teamB.Person"), type("teamA.INamed")));
  // And an interface cannot stand in for a class.
  EXPECT_FALSE(checker.conforms(type("teamA.INamed"), type("teamB.Person")));
}

TEST_F(ConformTest, AccountConformsToNothingPersonish) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("bank.Account"), type("teamA.Person"));
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures.front().find("name aspect"), std::string::npos);
}

// --- conformance kinds ---------------------------------------------------

TEST_F(ConformTest, IdentityShortCircuits) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("teamA.Person"), type("teamA.Person"));
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Identity);
  EXPECT_TRUE(r.plan.is_passthrough());
}

TEST_F(ConformTest, EverythingConformsToObject) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("teamA.Person"), type("object")));
  EXPECT_TRUE(checker.conforms(type("int32"), type("object")));
  EXPECT_TRUE(checker.conforms(type("bank.Account"), type("object")));
}

TEST_F(ConformTest, PrimitivesConformOnlyToThemselves) {
  ConformanceChecker checker = make_checker();
  EXPECT_TRUE(checker.conforms(type("int32"), type("int32")));
  EXPECT_FALSE(checker.conforms(type("int32"), type("int64")));
  EXPECT_FALSE(checker.conforms(type("int32"), type("string")));
  EXPECT_FALSE(checker.conforms(type("string"), type("teamA.Person")));
  EXPECT_FALSE(checker.conforms(type("teamA.Person"), type("string")));
}

TEST_F(ConformTest, NumericWideningIsOptIn) {
  ConformanceOptions options;
  options.allow_numeric_widening = true;
  ConformanceChecker widening = make_checker(options);
  EXPECT_TRUE(widening.conforms(type("int32"), type("int64")));
  EXPECT_TRUE(widening.conforms(type("int32"), type("float64")));
  EXPECT_TRUE(widening.conforms(type("int64"), type("float64")));
  EXPECT_FALSE(widening.conforms(type("int64"), type("int32")));  // no narrowing
  EXPECT_FALSE(widening.conforms(type("float64"), type("int32")));
}

TEST_F(ConformTest, ExplicitConformanceViaDeclaredInterface) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("teamA.Person"), type("teamA.INamed"));
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Explicit);
}

TEST_F(ConformTest, EquivalentWhenStructurallyEqual) {
  // Two identical descriptions in different namespaces with different GUIDs.
  Domain d;
  d.load_assembly(fixtures::wide_type("wa", "Widget", 3, 3));
  d.load_assembly(fixtures::wide_type("wb", "Widget", 3, 3));
  ConformanceChecker checker{d.registry()};
  const CheckResult r =
      checker.check(*d.registry().find("wa.Widget"), *d.registry().find("wb.Widget"));
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Equivalent);
}

// --- methods: covariance, contravariance, permutations ------------------------

TEST_F(ConformTest, ArgumentPermutationsAreFound) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("agenda.Meeting"), type("planner.Meeting"));
  ASSERT_TRUE(r.conformant) << (r.failures.empty() ? "" : r.failures.front());

  const MethodMapping* m = r.plan.find_method("reschedule", 2);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->source_name, "reschedule");
  // planner.reschedule(title:string, start:int64) maps onto
  // agenda.reschedule(begin:int64, title:string): source param 0 (int64)
  // takes target arg 1, source param 1 (string) takes target arg 0.
  EXPECT_FALSE(m->is_identity_permutation());
  ASSERT_EQ(m->arg_permutation.size(), 2u);
  EXPECT_EQ(m->arg_permutation[0], 1u);
  EXPECT_EQ(m->arg_permutation[1], 0u);

  // Constructors permute the same way.
  ASSERT_EQ(r.plan.ctors().size(), 1u);
  EXPECT_EQ(r.plan.ctors()[0].arg_permutation, (std::vector<std::size_t>{1, 0}));
}

TEST_F(ConformTest, PermutationsCanBeDisabled) {
  ConformanceOptions options;
  options.allow_permutations = false;
  ConformanceChecker strict = make_checker(options);
  EXPECT_FALSE(strict.conforms(type("agenda.Meeting"), type("planner.Meeting")));
  // Same-order signatures still work.
  EXPECT_TRUE(strict.conforms(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, ReturnTypeIsCovariant) {
  Domain d;
  // target: make()->object   source: make()->Thing  (Thing ≼ object) OK.
  d.registry().add([] {
    TypeDescription t("t", "Factory", TypeKind::Class);
    t.add_method({"make", "object", {}, reflect::Visibility::Public, false});
    return t;
  }());
  d.registry().add([] {
    TypeDescription t("s", "Factory", TypeKind::Class);
    t.add_method({"make", "s.Thing", {}, reflect::Visibility::Public, false});
    return t;
  }());
  d.registry().add(TypeDescription("s", "Thing", TypeKind::Class));
  ConformanceChecker checker{d.registry()};
  EXPECT_TRUE(
      checker.conforms(*d.registry().find("s.Factory"), *d.registry().find("t.Factory")));
  // The reverse requires object ≼ s.Thing, which fails.
  EXPECT_FALSE(
      checker.conforms(*d.registry().find("t.Factory"), *d.registry().find("s.Factory")));
}

TEST_F(ConformTest, ModifiersMustMatchByDefault) {
  Domain d;
  d.registry().add([] {
    TypeDescription t("t", "Svc", TypeKind::Class);
    t.add_method({"run", "void", {}, reflect::Visibility::Public, false});
    return t;
  }());
  d.registry().add([] {
    TypeDescription t("s", "Svc", TypeKind::Class);
    t.add_method({"run", "void", {}, reflect::Visibility::Private, false});
    return t;
  }());
  ConformanceChecker checker{d.registry()};
  EXPECT_FALSE(
      checker.conforms(*d.registry().find("s.Svc"), *d.registry().find("t.Svc")));

  ConformanceOptions lax;
  lax.require_same_modifiers = false;
  ConformanceChecker lax_checker{d.registry(), lax};
  EXPECT_TRUE(
      lax_checker.conforms(*d.registry().find("s.Svc"), *d.registry().find("t.Svc")));
}

// --- recursive types ---------------------------------------------------------

TEST_F(ConformTest, RecursiveTypesConformCoinductively) {
  ConformanceChecker checker = make_checker();
  const CheckResult r = checker.check(type("listsB.Node"), type("listsA.Node"));
  ASSERT_TRUE(r.conformant) << (r.failures.empty() ? "" : r.failures.front());
  const MethodMapping* next = r.plan.find_method("getNext", 0);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->source_name, "getNextNode");
}

TEST_F(ConformTest, DeepChainsConform) {
  Domain d;
  d.load_assembly(fixtures::deep_type_chain("da", 8));
  d.load_assembly(fixtures::deep_type_chain("db", 8));
  ConformanceChecker checker{d.registry()};
  EXPECT_TRUE(checker.conforms(*d.registry().find("db.T0"), *d.registry().find("da.T0")));
  // Chains of different depth do not conform (leaf shapes differ).
  Domain d2;
  d2.load_assembly(fixtures::deep_type_chain("da", 4));
  d2.load_assembly(fixtures::deep_type_chain("db", 5));
  ConformanceChecker checker2{d2.registry()};
  EXPECT_FALSE(
      checker2.conforms(*d2.registry().find("db.T0"), *d2.registry().find("da.T0")));
}

// --- aspect toggles (the "weaker rule" the paper warns about) ------------------

TEST_F(ConformTest, NameOnlyRuleAcceptsUnsafeMatches) {
  ConformanceOptions weak;
  weak.check_fields = false;
  weak.check_methods = false;
  weak.check_constructors = false;
  weak.check_supertypes = false;
  ConformanceChecker weak_checker = make_checker(weak);

  // planner.Meeting and agenda.Meeting share the name — fine. But so do
  // *any* two types named alike, even with totally different members:
  Domain d;
  d.registry().add(TypeDescription("x", "Account", TypeKind::Class));
  ConformanceChecker wk{d.registry(), weak};
  d.registry().add([] {
    TypeDescription t("y", "Account", TypeKind::Class);
    t.add_method({"explode", "void", {}, reflect::Visibility::Public, false});
    return t;
  }());
  EXPECT_TRUE(wk.conforms(*d.registry().find("x.Account"), *d.registry().find("y.Account")));
  // ... which is exactly why the full rule checks all aspects: the full
  // checker refuses.
  ConformanceChecker full{d.registry()};
  EXPECT_FALSE(
      full.conforms(*d.registry().find("x.Account"), *d.registry().find("y.Account")));
  (void)weak_checker;
}

TEST_F(ConformTest, WildcardTargetNames) {
  ConformanceOptions options;
  options.allow_wildcards = true;
  ConformanceChecker checker = make_checker(options);
  TypeDescription pattern("", "Pers*", TypeKind::Class);
  EXPECT_TRUE(checker.conforms(type("teamB.Person"), pattern));
  TypeDescription nomatch("", "Acc*", TypeKind::Class);
  EXPECT_FALSE(checker.conforms(type("teamB.Person"), nomatch));
}

TEST_F(ConformTest, MemberNameRuleAblation) {
  // Exact member names reject the paper's own example...
  ConformanceOptions exact;
  exact.member_name_rule = MemberNameRule::Exact;
  EXPECT_FALSE(
      make_checker(exact).conforms(type("teamB.Person"), type("teamA.Person")));
  // ...token-subset (default) and a Levenshtein budget behave differently.
  ConformanceOptions fuzzy;
  fuzzy.member_name_rule = MemberNameRule::Exact;
  fuzzy.max_name_distance = 6;  // "getName" -> "getPersonName" is 6 edits
  EXPECT_TRUE(
      make_checker(fuzzy).conforms(type("teamB.Person"), type("teamA.Person")));
}

// --- ambiguity ------------------------------------------------------------

class AmbiguityTest : public ::testing::Test {
 protected:
  AmbiguityTest() {
    // Target wants getName; source offers getName AND getNickName — both
    // token-conformant.
    domain_.registry().add([] {
      TypeDescription t("tgt", "Person", TypeKind::Class);
      t.add_method({"getName", "string", {}, reflect::Visibility::Public, false});
      return t;
    }());
    domain_.registry().add([] {
      TypeDescription t("src", "Person", TypeKind::Class);
      t.add_method({"getNickName", "string", {}, reflect::Visibility::Public, false});
      t.add_method({"getName", "string", {}, reflect::Visibility::Public, false});
      return t;
    }());
  }
  Domain domain_;
};

TEST_F(AmbiguityTest, FirstPolicyPicksDeclarationOrder) {
  ConformanceChecker checker{domain_.registry()};
  const CheckResult r = checker.check(*domain_.registry().find("src.Person"),
                                      *domain_.registry().find("tgt.Person"));
  ASSERT_TRUE(r.conformant);
  const MethodMapping* m = r.plan.find_method("getName", 0);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->source_name, "getNickName");  // declared first
  EXPECT_EQ(m->candidate_count, 2u);
  EXPECT_TRUE(r.plan.has_ambiguities());
}

TEST_F(AmbiguityTest, PreferExactNamePolicy) {
  ConformanceOptions options;
  options.ambiguity = AmbiguityPolicy::PreferExactName;
  ConformanceChecker checker{domain_.registry(), options};
  const CheckResult r = checker.check(*domain_.registry().find("src.Person"),
                                      *domain_.registry().find("tgt.Person"));
  ASSERT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.find_method("getName", 0)->source_name, "getName");
}

TEST_F(AmbiguityTest, ErrorPolicyRefuses) {
  ConformanceOptions options;
  options.ambiguity = AmbiguityPolicy::Error;
  ConformanceChecker checker{domain_.registry(), options};
  const CheckResult r = checker.check(*domain_.registry().find("src.Person"),
                                      *domain_.registry().find("tgt.Person"));
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures.front().find("2 source methods"), std::string::npos);
}

// --- missing types -------------------------------------------------------

TEST_F(ConformTest, MissingReferencedTypesAreReported) {
  Domain d;
  d.registry().add([] {
    TypeDescription t("remote", "Person", TypeKind::Class);
    t.add_field({"address", "remote.Address", reflect::Visibility::Private, false});
    return t;
  }());
  d.registry().add([] {
    TypeDescription t("local", "Person", TypeKind::Class);
    t.add_field({"address", "local.Address", reflect::Visibility::Private, false});
    return t;
  }());
  d.registry().add(TypeDescription("local", "Address", TypeKind::Class));
  // remote.Address is unknown.
  ConformanceChecker checker{d.registry()};
  const CheckResult r = checker.check(*d.registry().find("remote.Person"),
                                      *d.registry().find("local.Person"));
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.missing_types.empty());
  EXPECT_EQ(r.missing_types.front(), "remote.Address");

  // Once the missing description is supplied, the verdict flips.
  d.registry().add(TypeDescription("remote", "Address", TypeKind::Class));
  const CheckResult r2 = checker.check(*d.registry().find("remote.Person"),
                                       *d.registry().find("local.Person"));
  EXPECT_TRUE(r2.conformant);
  EXPECT_TRUE(r2.missing_types.empty());
}

// --- cache ------------------------------------------------------------------

TEST_F(ConformTest, CacheHitsAndConsistency) {
  ConformanceCache cache;
  ConformanceChecker checker = make_checker({}, &cache);

  const CheckResult first = checker.check(type("teamB.Person"), type("teamA.Person"));
  const auto misses_after_first = cache.stats().misses;
  EXPECT_GT(cache.size(), 0u);

  const CheckResult second = checker.check(type("teamB.Person"), type("teamA.Person"));
  EXPECT_EQ(cache.stats().misses, misses_after_first);  // no new misses
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_EQ(first.conformant, second.conformant);
  EXPECT_EQ(second.plan.find_method("getName", 0)->source_name, "getPersonName");

  // Different options -> different fingerprint -> separate entries.
  ConformanceOptions exact;
  exact.member_name_rule = MemberNameRule::Exact;
  ConformanceChecker other = make_checker(exact, &cache);
  EXPECT_FALSE(other.conforms(type("teamB.Person"), type("teamA.Person")));
  EXPECT_TRUE(checker.conforms(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, NegativeVerdictsAreCachedToo) {
  ConformanceCache cache;
  ConformanceChecker checker = make_checker({}, &cache);
  EXPECT_FALSE(checker.conforms(type("bank.Account"), type("teamA.Person")));
  const auto hits_before = cache.stats().hits;
  EXPECT_FALSE(checker.conforms(type("bank.Account"), type("teamA.Person")));
  EXPECT_GT(cache.stats().hits, hits_before);
}

// --- equivalence helper ---------------------------------------------------

TEST_F(ConformTest, EquivalentHelper) {
  EXPECT_TRUE(
      ConformanceChecker::equivalent(type("teamA.Person"), type("teamA.Person")));
  EXPECT_FALSE(
      ConformanceChecker::equivalent(type("teamB.Person"), type("teamA.Person")));
}

// --- baselines ------------------------------------------------------------

TEST_F(ConformTest, ExactMatcherOnlyAcceptsIdentity) {
  ExactMatcher exact;
  EXPECT_TRUE(exact.matches(type("teamA.Person"), type("teamA.Person")));
  EXPECT_FALSE(exact.matches(type("teamB.Person"), type("teamA.Person")));
  EXPECT_FALSE(exact.matches(type("taggedA.Point"), type("taggedB.Point")));
}

TEST_F(ConformTest, NominalMatcherAcceptsDeclaredSubtyping) {
  NominalMatcher nominal(domain_.registry());
  EXPECT_TRUE(nominal.matches(type("teamA.Person"), type("teamA.INamed")));
  EXPECT_TRUE(nominal.matches(type("teamA.Person"), type("teamA.Person")));
  EXPECT_FALSE(nominal.matches(type("teamB.Person"), type("teamA.Person")));
  EXPECT_FALSE(nominal.matches(type("teamB.Person"), type("teamA.INamed")));
}

TEST_F(ConformTest, TaggedStructuralMatcherRequiresTags) {
  TaggedStructuralMatcher tagged(domain_.registry());
  // Both tagged, identical method sets: match.
  EXPECT_TRUE(tagged.matches(type("taggedB.Point"), type("taggedA.Point")));
  // Untagged twin: no match, even with identical structure — the
  // restriction the paper lifts.
  EXPECT_FALSE(tagged.matches(type("taggedB.PlainPoint"), type("taggedA.Point")));
  // Tagged but renamed members (the Person pair): no match either.
  EXPECT_FALSE(tagged.matches(type("teamB.Person"), type("teamA.Person")));
}

TEST_F(ConformTest, ImplicitMatcherSubsumesTheOthersOnPositives) {
  // Containment property: whatever exact/nominal accept, implicit accepts.
  ExactMatcher exact;
  NominalMatcher nominal(domain_.registry());
  ImplicitStructuralMatcher implicit(domain_.registry());
  const std::array<std::string_view, 6> names = {
      "teamA.Person", "teamB.Person",   "teamA.INamed",
      "bank.Account", "planner.Meeting", "agenda.Meeting"};
  for (const auto src : names) {
    for (const auto tgt : names) {
      const TypeDescription& s = type(src);
      const TypeDescription& t = type(tgt);
      if (exact.matches(s, t)) {
        EXPECT_TRUE(implicit.matches(s, t)) << src << "->" << tgt;
      }
      if (nominal.matches(s, t)) {
        EXPECT_TRUE(implicit.matches(s, t)) << src << "->" << tgt;
      }
    }
  }
}

// --- reflexivity property over the whole fixture universe ---------------------

class ReflexivityProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ReflexivityProperty, EveryTypeConformsToItself) {
  Domain domain;
  domain.load_assembly(fixtures::team_a_people());
  domain.load_assembly(fixtures::team_b_people());
  domain.load_assembly(fixtures::planner_meetings());
  domain.load_assembly(fixtures::agenda_meetings());
  domain.load_assembly(fixtures::bank_accounts());
  domain.load_assembly(fixtures::lists_a());
  domain.load_assembly(fixtures::tagged_a());
  ConformanceChecker checker{domain.registry()};
  const reflect::TypeDescription* d = domain.registry().find(GetParam());
  ASSERT_NE(d, nullptr);
  const CheckResult r = checker.check(*d, *d);
  EXPECT_TRUE(r.conformant);
  EXPECT_EQ(r.plan.kind(), ConformanceKind::Identity);
}

INSTANTIATE_TEST_SUITE_P(AllFixtureTypes, ReflexivityProperty,
                         ::testing::Values("teamA.Person", "teamA.Address",
                                           "teamA.INamed", "teamB.Person",
                                           "teamB.Address", "planner.Meeting",
                                           "agenda.Meeting", "bank.Account",
                                           "listsA.Node", "taggedA.Point", "int32",
                                           "string", "object"));

// --- member names vs the util::token_subset_match oracle ---------------------
//
// The checker matches TokenSubset member names from per-check token tables;
// util::token_subset_match is the spec it must agree with, pair for pair.

constexpr char to_upper(char c) { return (c >= 'a' && c <= 'z') ? c - 'a' + 'A' : c; }

/// Fixed-seed identifier generator: camelCase, PascalCase, acronym runs
/// ("XMLParser"), digit runs, `_`/`-`/space separators, empty and
/// separator-only names, repeated tokens and mixed case, over a small
/// vocabulary so that names often share tokens.
class IdentifierGen {
 public:
  explicit IdentifierGen(std::uint64_t seed) : rng_(seed) {}

  std::string name() {
    const std::uint64_t kind = rng_.next_below(16);
    if (kind == 0) return "";
    if (kind == 1) return separators();
    std::vector<std::string> parts(1 + rng_.next_below(4));
    for (auto& part : parts) part = word();
    if (parts.size() > 1 && rng_.next_bool(0.2)) parts.back() = parts.front();
    return render(parts);
  }

  /// A name re-rendered from a subset of `source`'s tokens: usually (not
  /// always — rendering may merge tokens) a token-subset match of it.
  std::string derived(std::string_view source) {
    const std::vector<std::string> tokens = util::identifier_tokens(source);
    if (tokens.empty()) return rng_.next_bool(0.5) ? std::string() : separators();
    std::vector<std::string> parts;
    for (const auto& token : tokens) {
      if (rng_.next_bool(0.6)) parts.push_back(token);
    }
    if (parts.empty()) parts.push_back(tokens[rng_.next_below(tokens.size())]);
    return render(parts);
  }

  /// A wildcard pattern matching `source`: a prefix plus `*`, or `source`
  /// with one character replaced by `?`.
  std::string pattern(std::string_view source) {
    if (source.empty()) return "*";
    if (rng_.next_bool(0.5)) {
      return std::string(source.substr(0, rng_.next_below(source.size()))) + "*";
    }
    std::string out(source);
    out[rng_.next_below(out.size())] = '?';
    return out;
  }

  std::size_t below(std::size_t n) { return rng_.next_below(n); }
  bool coin() { return rng_.next_bool(0.5); }

 private:
  std::string word() {
    static const std::vector<std::string> kWords =
        util::split("get set name person id xml parser url value count a b", ' ');
    if (rng_.next_bool(0.25)) {
      return std::to_string(rng_.next_below(rng_.next_bool(0.5) ? 10 : 2048));
    }
    return kWords[rng_.next_below(kWords.size())];
  }

  std::string separators() {
    std::string out(1 + rng_.next_below(3), ' ');
    for (char& c : out) c = "_- "[rng_.next_below(3)];
    return out;
  }

  std::string render(const std::vector<std::string>& parts) {
    std::string out = rng_.next_bool(0.1) ? "_" : "";
    const std::uint64_t style = rng_.next_below(5);
    for (std::size_t k = 0; k < parts.size(); ++k) {
      std::string part = parts[k];
      switch (style) {
        case 0:  // camelCase
          if (k > 0) part[0] = to_upper(part[0]);
          break;
        case 1:  // snake, kebab or spaced
          if (k > 0) out += "_- "[rng_.next_below(3)];
          break;
        case 2:  // acronym runs
          if (rng_.next_bool(0.5)) {
            for (char& c : part) c = to_upper(c);
          } else if (k > 0) {
            part[0] = to_upper(part[0]);
          }
          break;
        case 3:  // mixed case
          for (char& c : part) {
            if (rng_.next_bool(0.3)) c = to_upper(c);
          }
          break;
        default:  // PascalCase
          part[0] = to_upper(part[0]);
          break;
      }
      out += part;
    }
    return out;
  }

  util::Rng rng_;
};

/// A class whose fields and zero-arity methods (all int32, public,
/// non-static) carry the given names.
TypeDescription member_probe(std::string ns, std::string name,
                             const std::vector<std::string>& fields,
                             const std::vector<std::string>& methods) {
  TypeDescription t(std::move(ns), std::move(name), TypeKind::Class);
  for (const auto& f : fields) {
    t.add_field({f, "int32", reflect::Visibility::Public, false});
  }
  for (const auto& m : methods) {
    t.add_method({m, "int32", {}, reflect::Visibility::Public, false});
  }
  return t;
}

TEST(MemberNameOracle, SingleMemberVerdictsMatchTokenSubset) {
  Domain domain;
  ConformanceOptions options;
  options.max_name_distance = 1;  // "ProbeS" vs "ProbeT": never structurally equal
  ConformanceChecker checker(domain.registry(), options);
  IdentifierGen gen(0x7e57'0001);
  constexpr int kPairs = 3000;
  int matches = 0;
  for (int n = 0; n < kPairs; ++n) {
    std::string a = gen.name();
    std::string b = gen.coin() ? gen.derived(a) : gen.name();
    if (gen.coin()) std::swap(a, b);
    const bool oracle = util::token_subset_match(a, b);
    matches += oracle ? 1 : 0;
    SCOPED_TRACE("source '" + a + "', target '" + b + "'");
    const TypeDescription field_src = member_probe("s", "ProbeS", {a}, {});
    const TypeDescription field_tgt = member_probe("t", "ProbeT", {b}, {});
    EXPECT_EQ(checker.check(field_src, field_tgt).conformant, oracle) << "fields";
    const TypeDescription method_src = member_probe("s", "ProbeS", {}, {a});
    const TypeDescription method_tgt = member_probe("t", "ProbeT", {}, {b});
    EXPECT_EQ(checker.check(method_src, method_tgt).conformant, oracle) << "methods";
  }
  // Both verdicts are well represented.
  EXPECT_GT(matches, kPairs / 5);
  EXPECT_LT(matches, kPairs * 4 / 5);
}

/// The member-name rule by the oracle: wildcard targets by
/// util::wildcard_match, everything else by util::token_subset_match.
bool oracle_match(std::string_view source, std::string_view target, bool wildcards) {
  if (wildcards && target.find_first_of("*?") != std::string_view::npos) {
    return util::wildcard_match(target, source);
  }
  return util::token_subset_match(source, target);
}

/// What the checker must produce for one aspect, derived from the oracle:
/// per target, in order, the chosen source name and the candidate count.
struct OracleAspect {
  bool conformant = true;
  std::vector<std::string> chosen;
  std::vector<std::size_t> candidates;
};

OracleAspect oracle_aspect(const std::vector<std::string>& sources,
                           const std::vector<std::string>& targets,
                           const ConformanceOptions& options) {
  OracleAspect out;
  for (const auto& target : targets) {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (oracle_match(sources[i], target, options.allow_wildcards)) candidates.push_back(i);
    }
    const bool refused = candidates.size() > 1 && options.ambiguity == AmbiguityPolicy::Error;
    if (candidates.empty() || refused) {
      out.conformant = false;
      return out;
    }
    std::size_t chosen = candidates.front();
    if (options.ambiguity == AmbiguityPolicy::PreferExactName) {
      for (const std::size_t c : candidates) {
        if (util::iequals(sources[c], target)) {
          chosen = c;
          break;
        }
      }
    }
    out.chosen.push_back(sources[chosen]);
    out.candidates.push_back(candidates.size());
  }
  return out;
}

TEST(MemberNameOracle, WideAmbiguousPairsMapLikeTheOracle) {
  Domain domain;
  IdentifierGen gen(0x7e57'0002);
  constexpr std::size_t kSources = 48;
  constexpr std::size_t kTargets = 24;
  constexpr int kRounds = 40;
  const auto make_names = [&](std::size_t n) {
    std::vector<std::string> names(n);
    for (auto& name : names) name = gen.name();
    return names;
  };
  const auto recased = [](std::string name) {
    if (!name.empty()) name[0] = to_upper(name[0]);
    return name;
  };
  // Targets derived from a source, re-cased exact copies (PreferExactName
  // has something to prefer), unrelated names and, in odd rounds, wildcard
  // patterns. Outside every fourth round a target no source matches (with
  // wildcards on) becomes a re-cased copy, so most rounds conform and
  // their mappings can be compared.
  const auto make_targets = [&](const std::vector<std::string>& sources, int round) {
    std::vector<std::string> targets(kTargets);
    for (auto& target : targets) {
      const std::string& source = sources[gen.below(sources.size())];
      const std::size_t kind = gen.below(10);
      if (round % 2 == 1 && kind < 2) {
        target = gen.pattern(source);
      } else if (kind < 4) {
        target = recased(source);
      } else if (kind < 9) {
        target = gen.derived(source);
      } else {
        target = gen.name();
      }
      bool matched = false;
      for (const auto& s : sources) matched = matched || oracle_match(s, target, true);
      if (round % 4 != 0 && !matched) target = recased(source);
    }
    return targets;
  };

  int conformant[2][3] = {};  // [allow_wildcards][policy]
  int ambiguous_mappings = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto src_fields = make_names(kSources);
    const auto src_methods = make_names(kSources);
    const auto tgt_fields = make_targets(src_fields, round);
    const auto tgt_methods = make_targets(src_methods, round);
    const TypeDescription source = member_probe("s", "Wide", src_fields, src_methods);
    const TypeDescription target = member_probe("t", "Wide", tgt_fields, tgt_methods);
    for (const bool allow_wildcards : {false, true}) {
      for (const int policy : {0, 1, 2}) {
        SCOPED_TRACE("round " + std::to_string(round));
        SCOPED_TRACE("allow_wildcards " + std::to_string(allow_wildcards));
        SCOPED_TRACE("policy " + std::to_string(policy));
        ConformanceOptions options;
        options.allow_wildcards = allow_wildcards;
        options.ambiguity = static_cast<AmbiguityPolicy>(policy);
        ConformanceChecker checker(domain.registry(), options);
        const CheckResult r = checker.check(source, target);
        const OracleAspect fields = oracle_aspect(src_fields, tgt_fields, options);
        const OracleAspect methods = oracle_aspect(src_methods, tgt_methods, options);
        ASSERT_EQ(r.conformant, fields.conformant && methods.conformant);
        if (!r.conformant) continue;
        ++conformant[allow_wildcards][policy];
        ASSERT_EQ(r.plan.fields().size(), kTargets);
        ASSERT_EQ(r.plan.methods().size(), kTargets);
        for (std::size_t j = 0; j < kTargets; ++j) {
          EXPECT_EQ(r.plan.fields()[j].source_field, fields.chosen[j]) << tgt_fields[j];
          const MethodMapping& m = r.plan.methods()[j];
          EXPECT_EQ(m.source_name, methods.chosen[j]) << tgt_methods[j];
          EXPECT_EQ(m.candidate_count, methods.candidates[j]) << tgt_methods[j];
          if (methods.candidates[j] > 1) ++ambiguous_mappings;
        }
      }
    }
  }
  // Every policy but Error (which refuses ambiguity) maps some rounds in
  // both wildcard modes, and wildcard targets conform more often with the
  // extension on.
  for (const bool allow_wildcards : {false, true}) {
    EXPECT_GT(conformant[allow_wildcards][0], 0);
    EXPECT_GT(conformant[allow_wildcards][1], 0);
  }
  EXPECT_GT(conformant[1][0], conformant[0][0]);
  EXPECT_GT(ambiguous_mappings, kRounds * 4);
}

}  // namespace
}  // namespace pti::conform
