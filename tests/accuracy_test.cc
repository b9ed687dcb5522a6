// Unit tests for the streamrule/accuracy harness: the paper's answer
// accuracy measure plus the graceful-degradation completeness estimators
// the overload path (tombstone shedding) reports through PipelineStats
// and EngineStats. These pin the estimator's conventions —
// especially the degenerate empty-window and full-shed cases — so a
// regression here is caught independently of the pipelines that consume
// the numbers.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asp/parser.h"
#include "streamrule/accuracy.h"
#include "streamrule/answer.h"

namespace streamasp {
namespace {

class AccuracyTest : public ::testing::Test {
 protected:
  AccuracyTest() : symbols_(MakeSymbolTable()), parser_(symbols_) {}

  Atom A(const std::string& text) {
    StatusOr<Atom> atom = parser_.ParseGroundAtom(text);
    EXPECT_TRUE(atom.ok()) << atom.status();
    return std::move(atom).value();
  }

  GroundAnswer Ans(std::initializer_list<const char*> atoms) {
    GroundAnswer answer;
    for (const char* text : atoms) answer.push_back(A(text));
    NormalizeAnswer(&answer);
    return answer;
  }

  SymbolTablePtr symbols_;
  Parser parser_;
};

// ----------------------------------------------- AnswerAccuracy (§III).

TEST_F(AccuracyTest, IdenticalAnswerScoresExactlyOne) {
  const GroundAnswer ans = Ans({"p(1)", "p(2)", "q(1)"});
  EXPECT_EQ(AnswerAccuracy(ans, {ans}), 1.0);
}

TEST_F(AccuracyTest, PartialRecallAgainstSingleReference) {
  // 2 of the reference's 4 atoms recovered -> 0.5; the PR answer's extra
  // atom does not count against it (the measure is recall, not F1).
  const GroundAnswer pr = Ans({"p(1)", "p(2)", "r(9)"});
  const GroundAnswer ref = Ans({"p(1)", "p(2)", "p(3)", "p(4)"});
  EXPECT_DOUBLE_EQ(AnswerAccuracy(pr, {ref}), 0.5);
}

TEST_F(AccuracyTest, BestReferenceWins) {
  const GroundAnswer pr = Ans({"p(1)", "p(2)"});
  const GroundAnswer poor = Ans({"q(1)", "q(2)", "q(3)", "q(4)"});
  const GroundAnswer good = Ans({"p(1)", "p(2)"});
  EXPECT_EQ(AnswerAccuracy(pr, {poor, good}), 1.0);
  // Order independence: max over references, not first match.
  EXPECT_EQ(AnswerAccuracy(pr, {good, poor}), 1.0);
}

TEST_F(AccuracyTest, EmptyReferenceAnswerIsVacuouslySatisfied) {
  EXPECT_EQ(AnswerAccuracy(Ans({"p(1)"}), {Ans({})}), 1.0);
  EXPECT_EQ(AnswerAccuracy(Ans({}), {Ans({})}), 1.0);
}

TEST_F(AccuracyTest, EmptyReferenceListMatchesOnlyEmptyAnswer) {
  EXPECT_EQ(AnswerAccuracy(Ans({}), {}), 1.0);
  EXPECT_EQ(AnswerAccuracy(Ans({"p(1)"}), {}), 0.0);
}

// ------------------------------------------------------- MeanAccuracy.

TEST_F(AccuracyTest, MeanAveragesOverPrAnswers) {
  const GroundAnswer ref = Ans({"p(1)", "p(2)"});
  const GroundAnswer full = Ans({"p(1)", "p(2)"});
  const GroundAnswer half = Ans({"p(1)"});
  EXPECT_DOUBLE_EQ(MeanAccuracy({full, half}, {ref}), 0.75);
}

TEST_F(AccuracyTest, MeanDegenerateCases) {
  // Nothing produced, nothing expected: perfect.
  EXPECT_EQ(MeanAccuracy({}, {}), 1.0);
  // Nothing produced against a real reference: total loss.
  EXPECT_EQ(MeanAccuracy({}, {Ans({"p(1)"})}), 0.0);
}

// ------------------------------- Exact completeness (items-reasoned /
// ------------------------------- items-admitted, the shedding measure).

TEST_F(AccuracyTest, CompletenessIsExactlyOneWhenNothingShed) {
  // The acceptance criterion: when nothing was shed the ratio is 1.0
  // *exactly* (bit-equal), not merely close — downstream code compares
  // `== 1.0` to distinguish clean windows from degraded ones.
  EXPECT_EQ(CompletenessRatio(0, 0), 1.0);
  EXPECT_EQ(CompletenessRatio(1, 1), 1.0);
  EXPECT_EQ(CompletenessRatio(12345678, 12345678), 1.0);
}

TEST_F(AccuracyTest, CompletenessOfEmptyWindowIsOne) {
  // Empty window: nothing admitted, nothing lost. 0/0 := 1.
  EXPECT_EQ(CompletenessRatio(0, 0), 1.0);
}

TEST_F(AccuracyTest, CompletenessOfFullShedIsZero) {
  // Full shed: every admitted item lost.
  EXPECT_EQ(CompletenessRatio(0, 7), 0.0);
}

TEST_F(AccuracyTest, CompletenessPartialShed) {
  EXPECT_DOUBLE_EQ(CompletenessRatio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(CompletenessRatio(1, 10), 0.1);
}

TEST_F(AccuracyTest, CompletenessClampsAccountingOverrun) {
  // reasoned > admitted is a caller bug; clamp rather than report > 1.
  EXPECT_EQ(CompletenessRatio(5, 4), 1.0);
}

TEST_F(AccuracyTest, TallyAggregatesItemWeighted) {
  CompletenessTally tally;
  tally.Record(100, 100);  // clean window
  tally.Record(0, 100);    // fully shed window
  tally.Record(50, 100);   // half-shed window
  EXPECT_DOUBLE_EQ(tally.ratio(), 0.5);
  // Item weighting: a big clean window outweighs a small shed one.
  CompletenessTally skewed;
  skewed.Record(900, 900);
  skewed.Record(0, 100);
  EXPECT_DOUBLE_EQ(skewed.ratio(), 0.9);
}

TEST_F(AccuracyTest, TallyOfEmptyStreamIsOne) {
  CompletenessTally tally;
  EXPECT_EQ(tally.ratio(), 1.0);
  tally.Record(0, 0);
  EXPECT_EQ(tally.ratio(), 1.0);
}

TEST_F(AccuracyTest, TallyComposesAcrossShards) {
  // Summing per-shard tallies then ratioing == ratioing the merged
  // stream — the property that lets EngineStats aggregate
  // PipelineStats without re-walking windows.
  CompletenessTally shard_a, shard_b, merged;
  shard_a.Record(80, 100);
  shard_b.Record(60, 60);
  merged.Record(shard_a.items_reasoned + shard_b.items_reasoned,
                shard_a.items_admitted + shard_b.items_admitted);
  EXPECT_DOUBLE_EQ(merged.ratio(), 140.0 / 160.0);
}

// --------------------------- Estimated completeness (answer recall of a
// --------------------------- degraded run against a lossless oracle).

TEST_F(AccuracyTest, EstimatedCompletenessFullShedScoresZero) {
  // The degraded run produced nothing; the oracle produced an answer.
  EXPECT_EQ(EstimatedCompleteness({}, {Ans({"alarm(1)"})}), 0.0);
}

TEST_F(AccuracyTest, EstimatedCompletenessEmptyWindowScoresOne) {
  // Neither run produced answers (empty window): vacuously complete.
  EXPECT_EQ(EstimatedCompleteness({}, {}), 1.0);
}

TEST_F(AccuracyTest, EstimatedCompletenessTracksAnswerRecall) {
  const GroundAnswer oracle = Ans({"reach(1)", "reach(2)", "reach(3)",
                                   "reach(4)"});
  const GroundAnswer degraded = Ans({"reach(1)", "reach(2)", "reach(3)"});
  EXPECT_DOUBLE_EQ(EstimatedCompleteness({degraded}, {oracle}), 0.75);
  // Identical outputs despite shedding: estimated completeness is 1 even
  // if exact completeness was < 1 (shed inputs that did not matter).
  EXPECT_EQ(EstimatedCompleteness({oracle}, {oracle}), 1.0);
}

}  // namespace
}  // namespace streamasp
