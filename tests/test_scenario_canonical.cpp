// Spec canonicalization and hashing: the identity layer under the
// experiment service's job store and result cache. Injective
// serialization (length-prefixed fields), hash_hex round-trips, and
// catalog_hash sensitivity to registration.

#include <gtest/gtest.h>

#include "scenario/plan.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace dualcast::scenario {
namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.name = "canon/base";
  spec.title = "titles are presentation, not identity";
  spec.topology = "dual_clique({x})";
  spec.problem = "global(1)";
  spec.sweep = {16, 32};
  spec.trials = 4;
  spec.base_seed = 9;
  spec.max_rounds = "200*n";
  spec.columns = {
      {"decay+iid", "decay_global(permuted,persistent)", "iid(0.5)", ""},
      {"robin+collider", "round_robin", "collider", ""},
  };
  return spec;
}

TEST(CanonicalSpec, DeterministicAndPresentationBlind) {
  EXPECT_EQ(canonical_spec_string(base_spec()),
            canonical_spec_string(base_spec()));
  // Banner/note text never reaches the canonical form: identical
  // experiments with different prose share job and cache entries.
  ScenarioSpec retitled = base_spec();
  retitled.title = "different banner";
  retitled.note = "different note";
  retitled.paper_claim = "different claim";
  EXPECT_EQ(canonical_spec_string(retitled),
            canonical_spec_string(base_spec()));
}

TEST(CanonicalSpec, EveryResultSelectingFieldChangesTheString) {
  const std::string base = canonical_spec_string(base_spec());
  const auto differs = [&](auto&& mutate) {
    ScenarioSpec spec = base_spec();
    mutate(spec);
    return canonical_spec_string(spec) != base;
  };
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.name += "x"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.topology = "line_overlay({x},3)"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.problem = "global(2)"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.metric = "first_receive(m)"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.sweep.push_back(64); }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.sweep[0] = 17; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.trials += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.base_seed += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.topology_seed += 1; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.max_rounds = "201*n"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.smoke_x = 16; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.columns[0].algorithm = "round_robin"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.columns[0].adversary = "none"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.columns[0].problem = "global(1)"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.columns.pop_back(); }));
}

TEST(CanonicalSpec, LengthPrefixingDefeatsConcatenationCollisions) {
  // Adjacent fields may not blur into each other: moving a character
  // across a field boundary must change the canonical form.
  ScenarioSpec a = base_spec();
  a.name = "canon/ab";
  a.topology = "cd";
  ScenarioSpec b = base_spec();
  b.name = "canon/a";
  b.topology = "bcd";
  EXPECT_NE(canonical_spec_string(a), canonical_spec_string(b));

  // Same for list-valued fields: one column of "xy" vs two of "x","y"
  // in the label position.
  ScenarioSpec one = base_spec();
  one.columns = {{"xy", "round_robin", "none", ""}};
  ScenarioSpec two = base_spec();
  two.columns = {{"x", "round_robin", "none", ""},
                 {"y", "round_robin", "none", ""}};
  EXPECT_NE(canonical_spec_string(one), canonical_spec_string(two));
}

TEST(CanonicalSpec, AppliedOptionsReachTheCanonicalForm) {
  // The service hashes *applied* specs, so overrides that change results
  // must change the string.
  RunOptions fewer;
  fewer.trials_override = 2;
  EXPECT_NE(canonical_spec_string(apply_options(base_spec(), fewer)),
            canonical_spec_string(apply_options(base_spec(), {})));
  RunOptions smoke;
  smoke.smoke = true;
  EXPECT_NE(canonical_spec_string(apply_options(base_spec(), smoke)),
            canonical_spec_string(apply_options(base_spec(), {})));
}

TEST(SpecHash, HashHexRoundTripsAndRejectsGarbage) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, kFnvOffsetBasis,
        std::uint64_t{0xffffffffffffffffULL}}) {
    const std::string hex = hash_hex(value);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(parse_hash_hex(hex), value);
  }
  EXPECT_THROW(parse_hash_hex(""), ScenarioError);
  EXPECT_THROW(parse_hash_hex("xyz"), ScenarioError);
  EXPECT_THROW(parse_hash_hex("0123456789abcdeg"), ScenarioError);
}

TEST(SpecHash, Fnv1a64MatchesKnownVectorsAndChains) {
  EXPECT_EQ(fnv1a64(""), kFnvOffsetBasis);
  // Published FNV-1a test vector.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  // Chaining is concatenation over one stream, so the seeded form must
  // agree with hashing the joined text.
  EXPECT_EQ(fnv1a64("world", fnv1a64("hello")), fnv1a64("helloworld"));
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(CatalogHash, PinnedForTheBuiltInCatalog) {
  // Every job.meta and cache key embeds this hash, so a change that only
  // edits presentation (titles, notes such as fig1/summary-static-local's
  // reading guide) must leave it where it is. Declared before the test
  // below, which registers an extra scenario.
  EXPECT_EQ(hash_hex(catalog_hash()), "cc306489e763c654");
}

TEST(CatalogHash, StableWithinAProcessAndSensitiveToRegistration) {
  const std::uint64_t before = catalog_hash();
  EXPECT_EQ(before, catalog_hash());
  ScenarioSpec extra = base_spec();
  extra.name = "canon/registered-later";
  scenarios().add(extra);
  EXPECT_NE(catalog_hash(), before);
  EXPECT_EQ(catalog_hash(), catalog_hash());
}

}  // namespace
}  // namespace dualcast::scenario
