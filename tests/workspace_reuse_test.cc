// Differential tests of workspace reuse on the cold path: one Grounder
// workspace, one Solver workspace and one Reasoner are driven through a
// window sequence that varies in size — large, small, empty, one that hits
// max_ground_rules and fails, then normal windows again — and every window
// must match a fresh one-shot run byte for byte.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "ground/grounder.h"
#include "solve/solver.h"
#include "stream/format.h"
#include "streamrule/reasoner.h"
#include "streamrule/traffic_workload.h"
#include "util/rng.h"

namespace streamasp {
namespace {

struct Case {
  const char* name;
  std::string text;
  int64_t value_range;  ///< Fact arguments are integers in [0, range).
  size_t large;         ///< Facts in a large window.
  size_t small;
  size_t over_limit;    ///< Facts in the window that must fail.
  size_t max_rules;     ///< max_ground_rules for every run.
};

std::vector<Case> Cases() {
  return {
      {"traffic_pprime",
       TrafficProgramText(TrafficProgramVariant::kPPrime, /*with_show=*/true),
       60, 900, 25, 2500, 2000},
      {"reach",
       R"(#input link/2.
          #input high/1.
          reach(X, Y) :- link(X, Y).
          reach(X, Z) :- reach(X, Y), link(Y, Z).
          alarm(X, Y) :- high(X), high(Y), reach(X, Y).
          #show alarm/2.)",
       8, 900, 25, 2500, 2000},
      // Unstratified negation, arithmetic (including undefined division),
      // compound terms, integers beyond the inline packed range and a
      // constraint.
      {"mixed",
       R"(#input e/2.
          #input m/1.
          base(1). base(2). big(1152921504606846977).
          in(X) :- m(X), X < 2, not out(X).
          out(X) :- m(X), X < 2, not in(X).
          q(X) :- e(X, Y), Y > 3, X < 2, not p(X).
          p(X) :- e(X, 1), not q(X).
          succ(X, Z) :- e(X, Y), Z = Y + 1.
          wrap(f(X, g(Y))) :- e(X, Y), X < 3.
          unw(X) :- wrap(f(X, g(2))).
          div(X, Z) :- e(X, Y), Z = X / Y.
          huge(Z) :- big(B), m(X), Z = B + X.
          :- in(X), p(X), X > 4.
          r(X) :- m(X), not q(X), not huge(X).
          s(X) :- e(X, Y), not r(Y).)",
       6, 900, 25, 2500, 2000},
      // Disjunction: candidates pass the exact minimality check, whose
      // cost is exponential in the model, so windows stay tiny.
      {"disjunctive",
       R"(#input e/2.
          p(X) | q(X) :- e(X, Y), Y > 1.
          r(X) :- p(X), not q(X).)",
       5, 3, 1, 12, 10},
  };
}

/// Random facts over the program's input predicates; with `stray` every
/// tenth fact is of a predicate the program never mentions.
std::vector<Atom> RandomFacts(const Program& program, const Case& c,
                              size_t count, Rng* rng, bool stray = false) {
  const std::vector<PredicateSignature>& inputs = program.input_predicates();
  const SymbolId stray_predicate = program.symbol_table().Intern("stray");
  std::vector<Atom> facts;
  for (size_t i = 0; i < count; ++i) {
    if (stray && i % 10 == 9) {
      facts.push_back(Atom(stray_predicate, {Term::Integer(i % 4)}));
      continue;
    }
    const PredicateSignature& sig = inputs[rng->NextBounded(inputs.size())];
    std::vector<Term> args;
    for (uint32_t a = 0; a < sig.arity; ++a) {
      args.push_back(Term::Integer(
          static_cast<int64_t>(rng->NextBounded(c.value_range))));
    }
    facts.emplace_back(sig.name, args);
  }
  return facts;
}

/// large, small, empty, over the rule limit, then normal windows again.
std::vector<size_t> WindowSizes(const Case& c) {
  return {c.large, c.small, 0,       c.over_limit, c.small,
          c.large, 0,       c.large, c.small};
}

std::string Render(const std::vector<AnswerSet>& models) {
  std::string out;
  for (const AnswerSet& model : models) {
    for (GroundAtomId id : model.atoms) out += std::to_string(id) + " ";
    out += "\n";
  }
  return out;
}

std::string Render(const std::vector<GroundAnswer>& answers,
                   const SymbolTable& symbols) {
  std::string out;
  for (const GroundAnswer& answer : answers) {
    for (const Atom& atom : answer) out += atom.ToString(symbols) + " ";
    out += "\n";
  }
  return out;
}

class WorkspaceReuseTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    symbols_ = MakeSymbolTable();
    Parser parser(symbols_);
    StatusOr<Program> program = parser.ParseProgram(GetParam().text);
    ASSERT_TRUE(program.ok()) << program.status();
    program_ = std::make_unique<Program>(std::move(program).value());
    options_.grounding.max_ground_rules = GetParam().max_rules;
  }

  SymbolTablePtr symbols_;
  std::unique_ptr<Program> program_;
  ReasonerOptions options_;
};

TEST_P(WorkspaceReuseTest, ReusedGrounderAndSolverMatchOneShotRuns) {
  const Case& c = GetParam();
  const Grounder grounder(options_.grounding);
  const Solver solver(options_.solving);
  GroundingWorkspace grounding(PrepareGrounding(program_.get()));
  SolveWorkspace solving;
  Rng rng(7);
  bool saw_limit_error = false;
  for (size_t size : WindowSizes(c)) {
    SCOPED_TRACE("window of " + std::to_string(size) + " facts");
    const std::vector<Atom> facts =
        RandomFacts(*program_, c, size, &rng, /*stray=*/true);
    GroundingStats fresh_stats;
    StatusOr<GroundProgram> fresh =
        grounder.Ground(*program_, facts, &fresh_stats);
    GroundingStats reused_stats;
    const Status reused =
        grounder.Ground(facts, &grounding, &reused_stats);
    ASSERT_EQ(fresh.status().code(), reused.code()) << reused;
    if (!reused.ok()) {
      EXPECT_EQ(reused.code(), StatusCode::kResourceExhausted);
      saw_limit_error = true;
      continue;
    }
    EXPECT_EQ(fresh->ToString(*symbols_),
              grounding.ground().ToString(*symbols_));
    EXPECT_EQ(fresh_stats.num_atoms, reused_stats.num_atoms);
    EXPECT_EQ(fresh_stats.num_rules, reused_stats.num_rules);
    EXPECT_EQ(fresh_stats.num_rules_raw, reused_stats.num_rules_raw);

    StatusOr<std::vector<AnswerSet>> fresh_models = solver.Solve(*fresh);
    StatusOr<std::vector<AnswerSet>> reused_models =
        solver.Solve(grounding.ground(), &solving);
    ASSERT_TRUE(fresh_models.ok()) << fresh_models.status();
    ASSERT_TRUE(reused_models.ok()) << reused_models.status();
    EXPECT_EQ(Render(*fresh_models), Render(*reused_models));
  }
  EXPECT_TRUE(saw_limit_error) << "the over-limit window must fail";
}

TEST_P(WorkspaceReuseTest, ReusedReasonerMatchesFreshReasoners) {
  const Case& c = GetParam();
  const Reasoner reused(program_.get(), options_);
  DataFormatProcessor format;
  ASSERT_TRUE(
      format.DeclareInputPredicates(program_->input_predicates()).ok());
  Rng rng(11);
  for (size_t size : WindowSizes(c)) {
    SCOPED_TRACE("window of " + std::to_string(size) + " facts");
    const std::vector<Atom> facts = RandomFacts(*program_, c, size, &rng);
    TripleWindow window;
    for (const Atom& fact : facts) {
      StatusOr<Triple> triple = format.ToTriple(fact);
      ASSERT_TRUE(triple.ok()) << triple.status();
      window.items.push_back(*triple);
    }
    const Reasoner fresh(program_.get(), options_);
    StatusOr<ReasonerResult> expected = fresh.ProcessFacts(facts);
    // The triple path refills the workspace's fact buffer; the fact path
    // grounds the caller's facts on the same workspace.
    StatusOr<ReasonerResult> via_triples = reused.Process(window);
    StatusOr<ReasonerResult> via_facts = reused.ProcessFacts(facts);
    ASSERT_EQ(expected.status().code(), via_triples.status().code());
    ASSERT_EQ(expected.status().code(), via_facts.status().code());
    if (!expected.ok()) continue;
    const std::string answers = Render(expected->answers, *symbols_);
    EXPECT_EQ(answers, Render(via_triples->answers, *symbols_));
    EXPECT_EQ(answers, Render(via_facts->answers, *symbols_));
  }
}

TEST_P(WorkspaceReuseTest, ConcurrentCallersShareOneReasoner) {
  const Case& c = GetParam();
  const Reasoner shared(program_.get(), options_);
  Rng rng(23);
  std::vector<std::vector<Atom>> windows;
  std::vector<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    windows.push_back(
        RandomFacts(*program_, c, i % 3 == 0 ? c.large : c.small, &rng));
    StatusOr<ReasonerResult> result =
        Reasoner(program_.get(), options_).ProcessFacts(windows.back());
    ASSERT_TRUE(result.ok()) << result.status();
    expected.push_back(Render(result->answers, *symbols_));
  }
  constexpr int kThreads = 3;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < windows.size(); ++i) {
        const size_t w = (i + t * 4) % windows.size();
        StatusOr<ReasonerResult> result = shared.ProcessFacts(windows[w]);
        got[t].push_back(result.ok() ? Render(result->answers, *symbols_)
                                     : result.status().ToString());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < windows.size(); ++i) {
      EXPECT_EQ(got[t][i], expected[(i + t * 4) % windows.size()]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, WorkspaceReuseTest,
                         ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace streamasp
