#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "solve/solver.h"

namespace streamasp {
namespace {

/// Renders each answer set as a sorted set of atom strings for robust
/// comparisons.
std::set<std::set<std::string>> ModelStrings(
    const GroundProgram& ground, const std::vector<AnswerSet>& models,
    const SymbolTable& symbols) {
  std::set<std::set<std::string>> out;
  for (const AnswerSet& model : models) {
    std::set<std::string> atoms;
    for (GroundAtomId id : model.atoms) {
      atoms.insert(ground.atoms().GetAtom(id).ToString(symbols));
    }
    out.insert(std::move(atoms));
  }
  return out;
}

class SolverTest : public ::testing::Test {
 protected:
  SolverTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  /// Grounds + solves, returning the models as string sets.
  std::set<std::set<std::string>> SolveText(const std::string& text,
                                            SolverOptions solver_options = {},
                                            GroundingOptions ground_options = {}) {
    StatusOr<Program> program = parser_.ParseProgram(text);
    EXPECT_TRUE(program.ok()) << program.status();
    Grounder grounder(ground_options);
    StatusOr<GroundProgram> ground = grounder.Ground(*program);
    EXPECT_TRUE(ground.ok()) << ground.status();
    Solver solver(solver_options);
    StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
    EXPECT_TRUE(models.ok()) << models.status();
    last_ground_ = *ground;
    return ModelStrings(*ground, *models, *symbols_);
  }

  SymbolTablePtr symbols_;
  Parser parser_;
  GroundProgram last_ground_;
};

TEST_F(SolverTest, FactsOnlyHaveOneModel) {
  const auto models = SolveText("a. b. c(1).");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(*models.begin(),
            (std::set<std::string>{"a", "b", "c(1)"}));
}

TEST_F(SolverTest, DefiniteChainsDerive) {
  const auto models = SolveText("a. b :- a. c :- b.");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_TRUE(models.begin()->count("c"));
}

TEST_F(SolverTest, NegationCycleGivesTwoModels) {
  const auto models = SolveText("a :- not b. b :- not a.");
  EXPECT_EQ(models.size(), 2u);
  EXPECT_TRUE(models.count({"a"}));
  EXPECT_TRUE(models.count({"b"}));
}

TEST_F(SolverTest, OddLoopHasNoModel) {
  EXPECT_TRUE(SolveText("a :- not a.").empty());
}

TEST_F(SolverTest, OddLoopEscapedByAlternative) {
  // a :- not a is defused when a has independent support.
  const auto models = SolveText("a :- not a. a :- b. b.");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_TRUE(models.begin()->count("a"));
}

TEST_F(SolverTest, PositiveLoopIsUnfounded) {
  // Mutual positive support without external support must not be a model.
  const auto models = SolveText("a :- b. b :- a.", SolverOptions{},
                                GroundingOptions{.simplify = false});
  ASSERT_EQ(models.size(), 1u);
  EXPECT_TRUE(models.begin()->empty());
}

TEST_F(SolverTest, UnfoundedLoopBehindNegation) {
  // {a,b} would satisfy the completion but is unfounded; the stable model
  // is {c}.
  const auto models = SolveText(R"(
    a :- b.
    b :- a.
    c :- not a.
  )", SolverOptions{}, GroundingOptions{.simplify = false});
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(*models.begin(), (std::set<std::string>{"c"}));
}

TEST_F(SolverTest, ConstraintEliminatesModels) {
  const auto models = SolveText(R"(
    a :- not b. b :- not a.
    :- a.
  )");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_TRUE(models.count({"b"}));
}

TEST_F(SolverTest, ConstraintCanEliminateEverything) {
  EXPECT_TRUE(SolveText("a. :- a.").empty());
}

TEST_F(SolverTest, ChoiceViaEvenCycleAndConstraints) {
  // Classic 2-coloring of one edge via even negation cycles.
  const auto models = SolveText(R"(
    red(n) :- not green(n).
    green(n) :- not red(n).
    red(m) :- not green(m).
    green(m) :- not red(m).
    :- red(n), red(m).
    :- green(n), green(m).
  )");
  EXPECT_EQ(models.size(), 2u);
}

TEST_F(SolverTest, StratifiedProgramSingleModel) {
  const auto models = SolveText(R"(
    p(1). p(2). q(2).
    r(X) :- p(X), not q(X).
  )");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_TRUE(models.begin()->count("r(1)"));
  EXPECT_FALSE(models.begin()->count("r(2)"));
}

TEST_F(SolverTest, DisjunctionPicksMinimalModels) {
  const auto models = SolveText("a | b.");
  EXPECT_EQ(models.size(), 2u);
  EXPECT_TRUE(models.count({"a"}));
  EXPECT_TRUE(models.count({"b"}));
  EXPECT_FALSE(models.count({"a", "b"}));
}

TEST_F(SolverTest, DisjunctionWithBody) {
  const auto models = SolveText("c. a | b :- c.");
  EXPECT_EQ(models.size(), 2u);
}

TEST_F(SolverTest, DisjunctionMinimalityRejectsSupersets) {
  // b is forced; the disjunct a|b is then satisfied by b alone, so {a,b}
  // is not minimal and a stays false.
  const auto models = SolveText("b. a | b.");
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(*models.begin(), (std::set<std::string>{"b"}));
}

TEST_F(SolverTest, DisjunctionInteractsWithConstraints) {
  const auto models = SolveText(R"(
    a | b | c.
    :- a.
  )");
  EXPECT_EQ(models.size(), 2u);
  EXPECT_TRUE(models.count({"b"}));
  EXPECT_TRUE(models.count({"c"}));
}

TEST_F(SolverTest, MaxModelsCapsEnumeration) {
  SolverOptions options;
  options.max_models = 1;
  const auto models = SolveText("a :- not b. b :- not a.", options);
  EXPECT_EQ(models.size(), 1u);
}

TEST_F(SolverTest, DisjunctiveMinimalityCheckIsNotExponential) {
  // Every candidate model of a disjunctive program goes through the
  // minimality check. With 20 d facts the candidate holds 40 atoms; a
  // check that enumerates all 2^40 subsets would never finish, one that
  // cuts each branch at its first violated rule takes microseconds.
  std::string text = "p(X) | q(X) :- d(X).\n";
  for (int i = 0; i < 20; ++i) text += "d(" + std::to_string(i) + ").\n";
  SolverOptions options;
  options.max_models = 1;
  const auto start = std::chrono::steady_clock::now();
  const auto models = SolveText(text, options);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  ASSERT_EQ(models.size(), 1u);
  const std::set<std::string>& model = *models.begin();
  EXPECT_EQ(model.size(), 40u);
  for (int i = 0; i < 20; ++i) {
    const std::string x = std::to_string(i);
    EXPECT_TRUE(model.count("d(" + x + ")"));
    EXPECT_NE(model.count("p(" + x + ")"), model.count("q(" + x + ")"));
  }
  EXPECT_LT(elapsed_s, 1.0);
}

TEST_F(SolverTest, ManyModelEnumeration) {
  // 3 independent binary choices: 8 models.
  const auto models = SolveText(R"(
    a1 :- not b1. b1 :- not a1.
    a2 :- not b2. b2 :- not a2.
    a3 :- not b3. b3 :- not a3.
  )");
  EXPECT_EQ(models.size(), 8u);
}

TEST_F(SolverTest, DecisionLimitReported) {
  SolverOptions options;
  options.max_decisions = 1;
  StatusOr<Program> program = parser_.ParseProgram(R"(
    a1 :- not b1. b1 :- not a1.
    a2 :- not b2. b2 :- not a2.
    a3 :- not b3. b3 :- not a3.
  )");
  ASSERT_TRUE(program.ok());
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok());
  Solver solver(options);
  EXPECT_EQ(solver.Solve(*ground).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(SolverTest, VerificationOffStillCorrectOnNormalPrograms) {
  SolverOptions options;
  options.verify_models = false;
  const auto models = SolveText("a :- not b. b :- not a.", options);
  EXPECT_EQ(models.size(), 2u);
}

TEST_F(SolverTest, GroundedPaperProgramSolves) {
  const auto models = SolveText(R"(
    average_speed(newcastle, 10). car_number(newcastle, 55).
    traffic_light(newcastle).
    car_in_smoke(car1, high). car_speed(car1, 0).
    car_location(car1, dangan).
    very_slow_speed(X) :- average_speed(X, Y), Y < 20.
    many_cars(X) :- car_number(X, Y), Y > 40.
    traffic_jam(X) :- very_slow_speed(X), many_cars(X),
                      not traffic_light(X).
    car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0),
                   car_location(C, X).
    give_notification(X) :- traffic_jam(X).
    give_notification(X) :- car_fire(X).
  )");
  ASSERT_EQ(models.size(), 1u);
  const std::set<std::string>& model = *models.begin();
  // The paper's §II-A ground truth: car fire in dangan, NO traffic jam in
  // newcastle (blocked by the traffic light).
  EXPECT_TRUE(model.count("car_fire(dangan)"));
  EXPECT_TRUE(model.count("give_notification(dangan)"));
  EXPECT_FALSE(model.count("traffic_jam(newcastle)"));
  EXPECT_FALSE(model.count("give_notification(newcastle)"));
}

// ------------------------------------------------------- IsStableModel.

class StableModelCheckTest : public SolverTest {};

TEST_F(StableModelCheckTest, AcceptsSolverModels) {
  StatusOr<Program> program = parser_.ParseProgram(R"(
    a :- not b. b :- not a. c :- a.
  )");
  ASSERT_TRUE(program.ok());
  Grounder grounder;
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok());
  Solver solver;
  StatusOr<std::vector<AnswerSet>> models = solver.Solve(*ground);
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 2u);
  for (const AnswerSet& model : *models) {
    EXPECT_TRUE(IsStableModel(*ground, model.atoms));
  }
}

TEST_F(StableModelCheckTest, RejectsNonModels) {
  StatusOr<Program> program = parser_.ParseProgram("a. b :- a.");
  ASSERT_TRUE(program.ok());
  Grounder grounder(GroundingOptions{.simplify = false});
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok());
  // The empty set does not satisfy fact a.
  EXPECT_FALSE(IsStableModel(*ground, {}));
}

TEST_F(StableModelCheckTest, RejectsNonMinimalSets) {
  StatusOr<Program> program = parser_.ParseProgram("a :- not b. b :- not a.");
  ASSERT_TRUE(program.ok());
  Grounder grounder(GroundingOptions{.simplify = false});
  StatusOr<GroundProgram> ground = grounder.Ground(*program);
  ASSERT_TRUE(ground.ok());
  // {a, b} satisfies both rules classically, but the reduct w.r.t. it is
  // empty, so its least model {} differs: not stable.
  const GroundAtomId a =
      ground->atoms().Lookup(Atom(symbols_->Intern("a"), {}));
  const GroundAtomId b =
      ground->atoms().Lookup(Atom(symbols_->Intern("b"), {}));
  ASSERT_NE(a, kInvalidGroundAtom);
  ASSERT_NE(b, kInvalidGroundAtom);
  std::vector<GroundAtomId> bad = {a, b};
  std::sort(bad.begin(), bad.end());
  EXPECT_FALSE(IsStableModel(*ground, bad));
  // The empty set is also not stable: both rules then fire in the reduct.
  EXPECT_FALSE(IsStableModel(*ground, {}));
}

}  // namespace
}  // namespace streamasp
