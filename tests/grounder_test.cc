#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "solve/solver.h"
#include "stream/format.h"
#include "stream/generator.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class GrounderTest : public ::testing::Test {
 protected:
  GrounderTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  GroundProgram MustGround(const std::string& text,
                           GroundingOptions options = {}) {
    StatusOr<Program> program = parser_.ParseProgram(text);
    EXPECT_TRUE(program.ok()) << program.status();
    Grounder grounder(options);
    StatusOr<GroundProgram> ground = grounder.Ground(*program, &last_stats_);
    EXPECT_TRUE(ground.ok()) << ground.status();
    return std::move(ground).value();
  }

  /// The set of atoms that appear as single-head facts.
  std::set<std::string> FactStrings(const GroundProgram& ground) {
    std::set<std::string> facts;
    for (const GroundRule& rule : ground.rules()) {
      if (rule.is_fact()) {
        facts.insert(ground.atoms().GetAtom(rule.head[0]).ToString(*symbols_));
      }
    }
    return facts;
  }

  SymbolTablePtr symbols_;
  Parser parser_;
  GroundingStats last_stats_;
};

TEST_F(GrounderTest, FactsPassThrough) {
  const GroundProgram g = MustGround("p(1). p(2). q(a).");
  EXPECT_EQ(g.rules().size(), 3u);
  EXPECT_EQ(FactStrings(g),
            (std::set<std::string>{"p(1)", "p(2)", "q(a)"}));
}

TEST_F(GrounderTest, RecursiveRuleRepeatingItsHeadPredicate) {
  // Regression: both positive literals share the head predicate, so the
  // recursion extends the predicate's lazy join index while an index
  // bucket is mid-iteration — formerly a use-after-free on the bucket's
  // reallocated storage.
  std::string text = "r(a, Z) :- r(a, Y), r(Y, Z).\n";
  for (int i = 1; i <= 20; ++i) {
    text += "r(a, " + std::to_string(i) + ").\n";
    text += "r(" + std::to_string(i) + ", " + std::to_string(100 + i) +
            ").\n";
  }
  const GroundProgram g = MustGround(text);
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("r(a,101)"));
  EXPECT_TRUE(facts.count("r(a,120)"));
}

TEST_F(GrounderTest, SimpleJoinInstantiates) {
  const GroundProgram g = MustGround(R"(
    p(1). p(2). q(2). q(3).
    both(X) :- p(X), q(X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("both(2)"));
  EXPECT_FALSE(facts.count("both(1)"));
  EXPECT_FALSE(facts.count("both(3)"));
}

TEST_F(GrounderTest, ComparisonsFilterDuringGrounding) {
  const GroundProgram g = MustGround(R"(
    speed(a, 10). speed(b, 30).
    slow(X) :- speed(X, Y), Y < 20.
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("slow(a)"));
  EXPECT_FALSE(facts.count("slow(b)"));
}

TEST_F(GrounderTest, ComparisonBetweenTwoVariables) {
  const GroundProgram g = MustGround(R"(
    edge(1, 3). edge(5, 2).
    increasing(X, Y) :- edge(X, Y), X < Y.
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("increasing(1,3)"));
  EXPECT_FALSE(facts.count("increasing(5,2)"));
}

TEST_F(GrounderTest, TransitiveClosureViaRecursion) {
  const GroundProgram g = MustGround(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
  )");
  const std::set<std::string> facts = FactStrings(g);
  for (const char* expected :
       {"reach(1,2)", "reach(1,3)", "reach(1,4)", "reach(2,3)",
        "reach(2,4)", "reach(3,4)"}) {
    EXPECT_TRUE(facts.count(expected)) << expected;
  }
  EXPECT_FALSE(facts.count("reach(2,1)"));
}

TEST_F(GrounderTest, RecursionWithCycleTerminates) {
  const GroundProgram g = MustGround(R"(
    edge(1, 2). edge(2, 1).
    reach(X, Y) :- edge(X, Y).
    reach(X, Z) :- reach(X, Y), edge(Y, Z).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("reach(1,1)"));
  EXPECT_TRUE(facts.count("reach(2,2)"));
}

TEST_F(GrounderTest, MutualRecursionInOneComponent) {
  const GroundProgram g = MustGround(R"(
    seed(1).
    even(X) :- seed(X).
    odd(X) :- even(X), follows(X, Y), seed(Y).
    follows(1, 1).
    even2(X) :- odd(X).
  )");
  EXPECT_GE(g.rules().size(), 4u);
}

TEST_F(GrounderTest, StratifiedNegationResolvedEagerly) {
  // q is fully evaluated before p's component; `not q(X)` with underivable
  // q(2) is erased, and with certain q(1) drops the whole instance.
  const GroundProgram g = MustGround(R"(
    base(1). base(2).
    q(1).
    p(X) :- base(X), not q(X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("p(2)"));
  EXPECT_FALSE(facts.count("p(1)"));
}

TEST_F(GrounderTest, UnstratifiedNegationKeptForSolver) {
  const GroundProgram g = MustGround(R"(
    a :- not b.
    b :- not a.
  )", GroundingOptions{});
  // Both rules must survive with their negative bodies intact.
  size_t with_negatives = 0;
  for (const GroundRule& rule : g.rules()) {
    if (!rule.negative_body.empty()) ++with_negatives;
  }
  EXPECT_EQ(with_negatives, 2u);
}

TEST_F(GrounderTest, SimplificationRemovesFactBodies) {
  GroundingOptions simplify;
  simplify.simplify = true;
  const GroundProgram g = MustGround(R"(
    p(1).
    q(X) :- p(X).
  )", simplify);
  // q(1) should be reduced to a fact.
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("q(1)"));
  for (const GroundRule& rule : g.rules()) {
    EXPECT_TRUE(rule.positive_body.empty())
        << "simplified stratified program must have no residual bodies";
  }
}

TEST_F(GrounderTest, NoSimplifyKeepsBodies) {
  GroundingOptions raw;
  raw.simplify = false;
  const GroundProgram g = MustGround(R"(
    p(1).
    q(X) :- p(X).
  )", raw);
  bool saw_body = false;
  for (const GroundRule& rule : g.rules()) {
    if (!rule.positive_body.empty()) saw_body = true;
  }
  EXPECT_TRUE(saw_body);
  EXPECT_EQ(last_stats_.num_rules_raw, last_stats_.num_rules);
}

TEST_F(GrounderTest, ConstraintsGroundAgainstFinalExtensions) {
  const GroundProgram g = MustGround(R"(
    p(1). p(2).
    big(X) :- p(X), X > 1.
    :- big(X).
  )");
  size_t constraints = 0;
  for (const GroundRule& rule : g.rules()) {
    if (rule.is_constraint()) ++constraints;
  }
  EXPECT_EQ(constraints, 1u);
  EXPECT_EQ(last_stats_.num_constraints, 1u);
}

TEST_F(GrounderTest, UnsatisfiedConstraintDisappears) {
  const GroundProgram g = MustGround(R"(
    p(1).
    :- p(2).
  )");
  for (const GroundRule& rule : g.rules()) {
    EXPECT_FALSE(rule.is_constraint());
  }
}

TEST_F(GrounderTest, DisjunctiveHeadsGroundTogether) {
  const GroundProgram g = MustGround(R"(
    item(1).
    good(X) | bad(X) :- item(X).
    flagged(X) :- bad(X).
  )");
  bool saw_disjunction = false;
  for (const GroundRule& rule : g.rules()) {
    if (rule.head.size() == 2) saw_disjunction = true;
  }
  EXPECT_TRUE(saw_disjunction);
  // flagged(1) must have been instantiated (bad(1) is possible).
  const GroundAtomId flagged = g.atoms().Lookup(
      Atom(symbols_->Intern("flagged"), {Term::Integer(1)}));
  EXPECT_NE(flagged, kInvalidGroundAtom);
}

TEST_F(GrounderTest, InputFactsMergeWithProgram) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    #input p/1.
    q(X) :- p(X).
  )");
  ASSERT_TRUE(program.ok());
  std::vector<Atom> facts = {Atom(symbols_->Intern("p"), {Term::Integer(7)})};
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(*program, facts);
  ASSERT_TRUE(ground.ok()) << ground.status();
  EXPECT_NE(ground->atoms().Lookup(
                Atom(symbols_->Intern("q"), {Term::Integer(7)})),
            kInvalidGroundAtom);
}

TEST_F(GrounderTest, RejectsNonGroundInputFact) {
  StatusOr<Program> program = parser_.ParseProgram("q(X) :- p(X).");
  ASSERT_TRUE(program.ok());
  std::vector<Atom> facts = {
      Atom(symbols_->Intern("p"), {Term::Variable(symbols_->Intern("X"))})};
  Grounder grounder;
  EXPECT_EQ(grounder.Ground(*program, facts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, RejectsUnsafeProgram) {
  StatusOr<Program> program = parser_.ParseProgram("h(X) :- q.");
  ASSERT_TRUE(program.ok());
  Grounder grounder;
  EXPECT_EQ(grounder.Ground(*program).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GrounderTest, FunctionTermsInstantiate) {
  const GroundProgram g = MustGround(R"(
    reading(sensor(1), 10).
    hot(S) :- reading(S, V), V >= 10.
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("hot(sensor(1))"));
}

TEST_F(GrounderTest, RuleLimitTriggersOnDivergentPrograms) {
  GroundingOptions options;
  options.max_ground_rules = 100;
  // f(X) grows forever through the successor function term.
  StatusOr<Program> program = parser_.ParseProgram(R"(
    n(0).
    n(s(X)) :- n(X).
  )");
  ASSERT_TRUE(program.ok());
  Grounder grounder(options);
  EXPECT_EQ(grounder.Ground(*program).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(GrounderTest, StatsAreConsistent) {
  MustGround(R"(
    p(1). p(2).
    q(X) :- p(X).
    :- q(3).
  )");
  EXPECT_EQ(last_stats_.num_rules, 4u);   // p(1), p(2), q(1), q(2).
  EXPECT_EQ(last_stats_.num_facts, 4u);
  EXPECT_EQ(last_stats_.num_constraints, 0u);
  EXPECT_GT(last_stats_.num_atoms, 0u);
}

TEST_F(GrounderTest, GroundProgramToStringRendersRules) {
  const GroundProgram g = MustGround(R"(
    a :- not b.
    b :- not a.
  )", GroundingOptions{});
  const std::string text = g.ToString(*symbols_);
  EXPECT_NE(text.find("a :- not b."), std::string::npos);
  EXPECT_NE(text.find("b :- not a."), std::string::npos);
}

TEST_F(GrounderTest, SharedVariableAcrossThreeLiterals) {
  const GroundProgram g = MustGround(R"(
    vss(n1). vss(n2).
    mc(n1). mc(n3).
    tl(n1).
    tj(X) :- vss(X), mc(X), not tl(X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_FALSE(facts.count("tj(n1)"));  // Blocked by tl(n1).
  EXPECT_FALSE(facts.count("tj(n2)"));  // No mc(n2).
  EXPECT_FALSE(facts.count("tj(n3)"));  // No vss(n3).
}

TEST_F(GrounderTest, ConstantsInRulePatternsMatchSelectively) {
  const GroundProgram g = MustGround(R"(
    car_in_smoke(car1, high). car_in_smoke(car2, low).
    alarm(C) :- car_in_smoke(C, high).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("alarm(car1)"));
  EXPECT_FALSE(facts.count("alarm(car2)"));
}

TEST_F(GrounderTest, RepeatedVariableInOneAtom) {
  const GroundProgram g = MustGround(R"(
    pair(1, 1). pair(1, 2).
    diag(X) :- pair(X, X).
  )");
  const std::set<std::string> facts = FactStrings(g);
  EXPECT_TRUE(facts.count("diag(1)"));
  EXPECT_EQ(facts.count("diag(2)"), 0u);
}

TEST_F(GrounderTest, TrafficWindowGroundsToFactsOnly) {
  // P' is stratified: every instance over a window is certain or blocked,
  // so the cold grounder leaves nothing for simplification or search.
  StatusOr<Program> program =
      MakeTrafficProgram(symbols_, TrafficProgramVariant::kPPrime);
  ASSERT_TRUE(program.ok());
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), {});
  DataFormatProcessor format;
  ASSERT_TRUE(
      format.DeclareInputPredicates(program->input_predicates()).ok());
  StatusOr<std::vector<Atom>> facts =
      format.ToFacts(generator.GenerateWindow(3000));
  ASSERT_TRUE(facts.ok());

  GroundingStats stats;
  StatusOr<GroundProgram> ground = Grounder().Ground(*program, *facts, &stats);
  ASSERT_TRUE(ground.ok()) << ground.status();
  EXPECT_EQ(stats.num_rules, stats.num_facts);
  EXPECT_EQ(stats.num_rules, ground->rules().size());
  EXPECT_GT(stats.num_rules_raw, stats.num_rules);
  for (const GroundRule& rule : ground->rules()) EXPECT_TRUE(rule.is_fact());

  // The unfolded program has the same single answer set.
  GroundingOptions raw;
  raw.simplify = false;
  StatusOr<GroundProgram> reference = Grounder(raw).Ground(*program, *facts);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_GT(reference->rules().size(), ground->rules().size());
  auto render = [&](const GroundProgram& g) {
    StatusOr<std::vector<AnswerSet>> models = Solver().Solve(g);
    EXPECT_TRUE(models.ok());
    EXPECT_EQ(models->size(), 1u);
    std::set<std::string> atoms;
    for (GroundAtomId id : models->front().atoms) {
      atoms.insert(g.atoms().GetAtom(id).ToString(*symbols_));
    }
    return atoms;
  };
  const std::set<std::string> answer = render(*ground);
  EXPECT_EQ(answer, render(*reference));
  EXPECT_TRUE(std::any_of(answer.begin(), answer.end(), [](const auto& a) {
    return a.rfind("give_notification(", 0) == 0;
  })) << "need derived events for a meaningful check";
}

TEST_F(GrounderTest, CertainNegativeDropsInstanceAndLeavesHeadUninterned) {
  const Atom p1(symbols_->Intern("p"), {Term::Integer(1)});
  const std::string text = R"(
    base(1). base(2).
    q(1).
    p(X) :- base(X), not q(X).
    :- q(X), not base(X).
  )";
  const GroundProgram g = MustGround(text);
  EXPECT_EQ(g.atoms().Lookup(p1), kInvalidGroundAtom);
  EXPECT_EQ(FactStrings(g),
            (std::set<std::string>{"base(1)", "base(2)", "q(1)", "p(2)"}));
  EXPECT_EQ(last_stats_.num_rules, 4u);
  EXPECT_EQ(last_stats_.num_constraints, 0u);
  // Three facts, two p instances and the constraint's one instance.
  EXPECT_EQ(last_stats_.num_rules_raw, 6u);

  // Unsimplified grounding keeps the instance, so p(1) is interned.
  GroundingOptions raw;
  raw.simplify = false;
  const GroundProgram unfolded = MustGround(text, raw);
  EXPECT_NE(unfolded.atoms().Lookup(p1), kInvalidGroundAtom);
  EXPECT_EQ(last_stats_.num_rules_raw, last_stats_.num_rules);
}

TEST_F(GrounderTest, DisjunctionsAndConstraintsNeverFold) {
  const GroundProgram g = MustGround(R"(
    item(1).
    a | b.
    good(X) | bad(X) :- item(X).
    :- item(1).
  )");
  size_t disjunctive = 0;
  for (const GroundRule& rule : g.rules()) {
    if (rule.head.size() == 2) ++disjunctive;
  }
  EXPECT_EQ(disjunctive, 2u);
  EXPECT_EQ(FactStrings(g), (std::set<std::string>{"item(1)"}));
  // The all-certain constraint survives with an empty body.
  EXPECT_EQ(last_stats_.num_constraints, 1u);
  StatusOr<std::vector<AnswerSet>> models = Solver().Solve(g);
  ASSERT_TRUE(models.ok());
  EXPECT_TRUE(models->empty());
}

TEST_F(GrounderTest, FactsOnlyProgramYieldsExactlyOneModel) {
  const GroundProgram g = MustGround(R"(
    p(1). p(2).
    q(X) :- p(X).
  )");
  ASSERT_EQ(last_stats_.num_rules, last_stats_.num_facts);
  // Duplicate facts, out of id order, in a hand-built program.
  GroundProgram duplicated(g.atoms(), {});
  for (const GroundRule& rule : g.rules()) duplicated.AddRule(rule);
  duplicated.AddRule(g.rules().front());
  std::reverse(duplicated.mutable_rules().begin(),
               duplicated.mutable_rules().end());
  for (const bool verify : {true, false}) {
    SolverOptions options;
    options.verify_models = verify;
    for (const GroundProgram* program :
         std::vector<const GroundProgram*>{&g, &duplicated}) {
      StatusOr<std::vector<AnswerSet>> models =
          Solver(options).Solve(*program);
      ASSERT_TRUE(models.ok());
      ASSERT_EQ(models->size(), 1u) << "verify_models=" << verify;
      const std::vector<GroundAtomId>& atoms = models->front().atoms;
      EXPECT_EQ(atoms.size(), 4u);
      EXPECT_TRUE(std::is_sorted(atoms.begin(), atoms.end()));
      EXPECT_TRUE(IsStableModel(*program, atoms));
    }
  }
}

TEST_F(GrounderTest, RuleLimitCountsFoldedFacts) {
  GroundingOptions options;
  options.max_ground_rules = 1;
  StatusOr<Program> program = parser_.ParseProgram("p(1). p(2).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(Grounder(options).Ground(*program).status().code(),
            StatusCode::kResourceExhausted);
  std::vector<Atom> facts = {Atom(symbols_->Intern("p"), {Term::Integer(3)})};
  options.max_ground_rules = 2;
  EXPECT_EQ(Grounder(options).Ground(*program, facts).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace streamasp
