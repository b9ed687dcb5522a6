// Property-style suites over randomly generated programs and windows:
// solver soundness (every reported model passes the from-first-principles
// stable-model check), grounder/solver equivalence under simplification,
// and partitioning invariants.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "depgraph/decomposition.h"
#include "ground/grounder.h"
#include "solve/solver.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/random_partitioner.h"
#include "util/rng.h"

namespace streamasp {
namespace {

/// Generates a small random normal program over atoms a0..a{n-1}:
/// a mix of facts, positive rules, negated rules and constraints. The
/// programs are propositional so the whole space is exercised cheaply.
std::string RandomProgram(uint64_t seed) {
  Rng rng(seed);
  const int num_atoms = 3 + static_cast<int>(rng.NextBounded(5));
  const int num_rules = 2 + static_cast<int>(rng.NextBounded(10));
  std::string text;
  auto atom = [&](int i) { return "a" + std::to_string(i); };
  for (int r = 0; r < num_rules; ++r) {
    const int kind = static_cast<int>(rng.NextBounded(10));
    if (kind < 2) {
      text += atom(static_cast<int>(rng.NextBounded(num_atoms))) + ".\n";
      continue;
    }
    const bool constraint = kind == 9;
    const int body_len = 1 + static_cast<int>(rng.NextBounded(3));
    std::string body;
    for (int b = 0; b < body_len; ++b) {
      if (b > 0) body += ", ";
      if (rng.NextBounded(3) == 0) body += "not ";
      body += atom(static_cast<int>(rng.NextBounded(num_atoms)));
    }
    if (constraint) {
      text += ":- " + body + ".\n";
    } else {
      text += atom(static_cast<int>(rng.NextBounded(num_atoms))) + " :- " +
              body + ".\n";
    }
  }
  return text;
}

class SolverSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverSoundnessTest, EveryModelPassesStableCheck) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomProgram(GetParam());
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok()) << text;

  GroundingOptions raw;
  raw.simplify = false;
  Grounder grounder(raw);
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok()) << text;

  SolverOptions options;
  options.verify_models = false;  // The check below must pass on its own.
  Solver solver(options);
  StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
  ASSERT_TRUE(models.ok()) << text;
  for (const AnswerSet& model : *models) {
    EXPECT_TRUE(IsStableModel(*ground, model.atoms))
        << "non-stable model for program:\n"
        << text;
  }
}

TEST_P(SolverSoundnessTest, ModelsAreUniqueAndSorted) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  StatusOr<Program> program = parser.ParseProgram(RandomProgram(GetParam()));
  ASSERT_TRUE(program.ok());
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok());
  Solver solver;
  StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
  ASSERT_TRUE(models.ok());
  std::set<std::vector<GroundAtomId>> seen;
  for (const AnswerSet& model : *models) {
    EXPECT_TRUE(std::is_sorted(model.atoms.begin(), model.atoms.end()));
    EXPECT_TRUE(seen.insert(model.atoms).second)
        << "duplicate answer set reported";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SolverSoundnessTest,
                         ::testing::Range<uint64_t>(0, 40));

/// Simplified and raw grounding must describe the same answer sets.
class SimplifyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplifyEquivalenceTest, SameModels) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const std::string text = RandomProgram(GetParam() ^ 0x5EED);
  StatusOr<Program> program = parser.ParseProgram(text);
  ASSERT_TRUE(program.ok());

  auto solve_with = [&](bool simplify) {
    GroundingOptions options;
    options.simplify = simplify;
    Grounder grounder(options);
    StatusOr<GroundProgram> ground = grounder.Ground(*program);
    EXPECT_TRUE(ground.ok());
    Solver solver;
    StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
    EXPECT_TRUE(models.ok());
    // Render as atom-string sets: atom ids differ between groundings.
    std::set<std::set<std::string>> out;
    for (const AnswerSet& model : *models) {
      std::set<std::string> atoms;
      for (GroundAtomId id : model.atoms) {
        atoms.insert(ground->atoms().GetAtom(id).ToString(*symbols));
      }
      out.insert(std::move(atoms));
    }
    return out;
  };

  EXPECT_EQ(solve_with(true), solve_with(false)) << text;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, SimplifyEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 40));

/// A seeded groundable (non-ground) program and its input facts.
struct GroundableProgram {
  std::string text;
  std::vector<Atom> input_facts;
  /// Negation only on lower strata and no disjunctive head.
  bool stratified = true;
  bool has_constraints = false;
};

/// Generates a small safe non-ground program over the constants 1..n
/// (n = 4..6): input facts of v/1 and e/2, then three to five derived
/// predicates d0, d1, ... of arity 1 or 2, predicate i forming stratum i.
/// Rule bodies join one to three positive literals of the same or lower
/// strata (so some rules recurse), filter with `<`/`>` comparisons and
/// negate lower strata; some programs add constraints and program facts.
/// One seed in four is unstratified instead: it guesses d0 against d1 on
/// every v, its other negations may reach any derived predicate, and in
/// half of those programs some heads are disjunctive. Disjunctive
/// programs get the smallest domain and input and three unary derived
/// predicates, because the solver's minimality check of a disjunctive
/// candidate is exponential in the candidate's size.
GroundableProgram RandomGroundableProgram(uint64_t seed,
                                          SymbolTable& symbols) {
  Rng rng(seed);
  GroundableProgram out;
  auto pick = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  const size_t kind = pick(8);
  out.stratified = kind >= 2;
  const bool disjunctive = kind == 0;
  const size_t domain = disjunctive ? 4 : 4 + pick(3);
  const size_t max_inputs = disjunctive ? 2 : domain;
  auto constant = [&] { return static_cast<int64_t>(1 + pick(domain)); };

  struct Pred {
    std::string name;
    size_t arity;
  };
  std::vector<Pred> preds = {{"v", 1}, {"e", 2}};
  const size_t num_inputs = preds.size();
  const size_t num_derived = disjunctive ? 3 : 3 + pick(3);
  for (size_t i = 0; i < num_derived; ++i) {
    // Unstratified programs open on an even loop over unary d0 and d1.
    const bool unary = disjunctive || (!out.stratified && i < 2);
    preds.push_back({"d" + std::to_string(i), unary ? 1 : 1 + pick(2)});
  }
  if (!out.stratified) {
    out.text += "d0(X) :- v(X), not d1(X).\nd1(X) :- v(X), not d0(X).\n";
  }

  for (size_t i = 0, n = 2 + pick(max_inputs); i < n; ++i) {
    out.input_facts.push_back(
        Atom(symbols.Intern("v"), {Term::Integer(constant())}));
  }
  for (size_t i = 0, n = 2 + pick(2 * max_inputs); i < n; ++i) {
    out.input_facts.push_back(Atom(
        symbols.Intern("e"), {Term::Integer(constant()), Term::Integer(constant())}));
  }

  static const char* const kVars[] = {"X", "Y", "Z"};
  // An atom of `pred` whose arguments are bound variables (or constants
  // when none is bound); `fresh` lets them introduce variables instead.
  auto atom = [&](size_t pred, std::vector<std::string>* bound,
                  bool fresh) {
    std::string text = preds[pred].name + "(";
    for (size_t a = 0; a < preds[pred].arity; ++a) {
      if (a > 0) text += ", ";
      if (fresh && pick(8) != 0) {
        const std::string var = kVars[pick(3)];
        if (std::find(bound->begin(), bound->end(), var) == bound->end()) {
          bound->push_back(var);
        }
        text += var;
      } else if (!fresh && !bound->empty()) {
        text += (*bound)[pick(bound->size())];
      } else {
        text += std::to_string(constant());
      }
    }
    return text + ")";
  };
  // A body whose positive literals lie in strata [0, positive_top] and
  // negative ones in [negative_begin, negative_end) (none when empty).
  auto body = [&](size_t positive_top, size_t negative_begin,
                  size_t negative_end, std::vector<std::string>* bound) {
    std::string text;
    for (size_t i = 0, n = 1 + pick(3); i < n; ++i) {
      if (i > 0) text += ", ";
      // Half the bodies open on an input literal, so most rules fire.
      const size_t pred = i == 0 && pick(2) == 0 ? pick(num_inputs)
                                                 : pick(positive_top + 1);
      text += atom(pred, bound, /*fresh=*/true);
    }
    if (!bound->empty() && pick(3) == 0) {
      const std::string lhs = (*bound)[pick(bound->size())];
      const std::string rhs = pick(2) == 0
                                  ? (*bound)[pick(bound->size())]
                                  : std::to_string(constant());
      text += ", " + lhs + (pick(2) == 0 ? " < " : " > ") + rhs;
    }
    for (size_t i = 0, n = pick(3); negative_begin < negative_end && i < n;
         ++i) {
      text += ", not " + atom(negative_begin + pick(negative_end -
                                                    negative_begin),
                              bound, /*fresh=*/false);
    }
    return text;
  };

  for (size_t head = num_inputs; head < preds.size(); ++head) {
    for (size_t r = 0, n = 1 + pick(2); r < n; ++r) {
      std::vector<std::string> bound;
      // Unstratified negation reaches the derived predicates only: a
      // negated input is always resolved by the grounder.
      const std::string rule_body =
          out.stratified ? body(head, 0, head, &bound)
                         : body(head, num_inputs, preds.size(), &bound);
      std::string rule_head = atom(head, &bound, /*fresh=*/false);
      if (disjunctive && pick(3) == 0) {
        rule_head += " | " + atom(num_inputs + pick(num_derived), &bound,
                                  /*fresh=*/false);
      }
      out.text += rule_head + " :- " + rule_body + ".\n";
    }
    if (pick(4) == 0) {
      std::vector<std::string> none;
      out.text += atom(head, &none, /*fresh=*/false) + ".\n";
    }
  }
  if (pick(3) == 0) {
    out.has_constraints = true;
    std::vector<std::string> bound;
    out.text +=
        ":- " + body(preds.size() - 1, 0, preds.size(), &bound) + ".\n";
  }
  return out;
}

/// Simplified and raw grounding of non-ground programs describe the same
/// answer sets; on stratified programs the simplified grounding is facts
/// only, the grounder having folded every instance into a fact.
class GroundableDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GroundableDifferentialTest, SimplifiedAndRawAgree) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  const GroundableProgram generated =
      RandomGroundableProgram(GetParam(), *symbols);
  StatusOr<Program> program = parser.ParseProgram(generated.text);
  ASSERT_TRUE(program.ok()) << program.status() << "\n" << generated.text;

  auto solve_with = [&](bool simplify, GroundProgram* ground) {
    GroundingOptions options;
    options.simplify = simplify;
    StatusOr<GroundProgram> grounded =
        Grounder(options).Ground(*program, generated.input_facts);
    EXPECT_TRUE(grounded.ok()) << grounded.status();
    *ground = std::move(grounded).value();
    StatusOr<std::vector<AnswerSet>> models = Solver().Solve(*ground);
    EXPECT_TRUE(models.ok()) << models.status();
    std::set<std::set<std::string>> out;
    for (const AnswerSet& model : *models) {
      std::set<std::string> atoms;
      for (GroundAtomId id : model.atoms) {
        atoms.insert(ground->atoms().GetAtom(id).ToString(*symbols));
      }
      out.insert(std::move(atoms));
    }
    return out;
  };

  GroundProgram simplified;
  GroundProgram raw;
  const auto models = solve_with(true, &simplified);
  EXPECT_EQ(models, solve_with(false, &raw)) << generated.text;
  if (generated.stratified && !generated.has_constraints) {
    EXPECT_EQ(models.size(), 1u) << generated.text;
    for (const GroundRule& rule : simplified.rules()) {
      EXPECT_TRUE(rule.is_fact()) << generated.text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, GroundableDifferentialTest,
                         ::testing::Range<uint64_t>(0, 240));

/// Partitioning invariants on random windows and plans.
class PartitioningPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitioningPropertyTest, PlanPartitionCoversAndRespectsPlan) {
  Rng rng(GetParam());
  SymbolTablePtr symbols = MakeSymbolTable();

  const int num_preds = 2 + static_cast<int>(rng.NextBounded(5));
  const int num_communities = 1 + static_cast<int>(rng.NextBounded(3));
  PartitioningPlan plan(num_communities);
  std::vector<PredicateSignature> signatures;
  for (int p = 0; p < num_preds; ++p) {
    const PredicateSignature sig{
        symbols->Intern("p" + std::to_string(p)), 1};
    signatures.push_back(sig);
    // Every predicate lands in >= 1 community; some get duplicated.
    plan.Assign(sig, static_cast<int>(rng.NextBounded(num_communities)));
    if (rng.NextBounded(4) == 0) {
      plan.Assign(sig, static_cast<int>(rng.NextBounded(num_communities)));
    }
  }
  PartitioningHandler handler(plan);

  std::vector<Atom> window;
  const size_t items = 50 + rng.NextBounded(200);
  for (size_t i = 0; i < items; ++i) {
    const PredicateSignature& sig =
        signatures[rng.NextBounded(signatures.size())];
    window.push_back(Atom(sig.name, {Term::Integer(
        static_cast<int64_t>(rng.NextBounded(100)))}));
  }

  const auto partitions = handler.PartitionFacts(window);
  ASSERT_EQ(partitions.size(), static_cast<size_t>(num_communities));

  // (1) Every window item appears in exactly the communities of its
  // predicate; (2) partitions contain no foreign predicates; (3) totals
  // match the sum of community multiplicities.
  size_t expected_total = 0;
  for (const Atom& item : window) {
    expected_total += plan.CommunitiesOf(item.signature()).size();
  }
  size_t actual_total = 0;
  for (int c = 0; c < num_communities; ++c) {
    actual_total += partitions[c].size();
    for (const Atom& item : partitions[c]) {
      const std::vector<int>& communities =
          plan.CommunitiesOf(item.signature());
      EXPECT_TRUE(std::binary_search(communities.begin(), communities.end(),
                                     c))
          << "atom routed to a community its predicate is not mapped to";
    }
  }
  EXPECT_EQ(actual_total, expected_total);
  EXPECT_EQ(handler.stray_items(), 0u);
}

TEST_P(PartitioningPropertyTest, RandomPartitionIsAPartition) {
  Rng rng(GetParam() ^ 0xFACE);
  SymbolTablePtr symbols = MakeSymbolTable();
  std::vector<Atom> window;
  const size_t items = 20 + rng.NextBounded(100);
  for (size_t i = 0; i < items; ++i) {
    window.push_back(Atom(symbols->Intern("p"),
                          {Term::Integer(static_cast<int64_t>(i))}));
  }
  const size_t k = 1 + rng.NextBounded(6);
  RandomPartitioner partitioner(k, GetParam());
  const auto partitions = partitioner.PartitionFacts(window);
  ASSERT_EQ(partitions.size(), k);

  // Disjoint cover: every item in exactly one partition, order preserved
  // within partitions.
  std::vector<Atom> reassembled;
  for (const auto& partition : partitions) {
    reassembled.insert(reassembled.end(), partition.begin(), partition.end());
  }
  EXPECT_EQ(reassembled.size(), window.size());
  std::sort(reassembled.begin(), reassembled.end());
  std::vector<Atom> sorted_window = window;
  std::sort(sorted_window.begin(), sorted_window.end());
  EXPECT_EQ(reassembled, sorted_window);
}

INSTANTIATE_TEST_SUITE_P(RandomWindows, PartitioningPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace streamasp
