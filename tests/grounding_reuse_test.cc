// Grounding reuse threaded through the reasoning layers: the sliding
// query processor's delta emission, ParallelReasoner's per-partition
// incremental grounders, the sync/async pipeline with reuse_grounding,
// and the sharded engine — all differentially checked against the same
// configuration without reuse (byte-identical transcripts).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stream/generator.h"
#include "stream/query_processor.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/pipeline.h"
#include "streamrule/sharded_pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class GroundingReuseTest : public ::testing::Test {
 protected:
  GroundingReuseTest() : symbols_(MakeSymbolTable()) {}

  Program MustProgram(TrafficProgramVariant variant) {
    StatusOr<Program> program =
        MakeTrafficProgram(symbols_, variant, /*with_show=*/true);
    EXPECT_TRUE(program.ok()) << program.status();
    return std::move(program).value();
  }

  std::vector<Triple> MakeStream(size_t items, uint64_t seed = 2017) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
    return generator.GenerateWindow(items);
  }

  void AppendLine(std::string* transcript, const TripleWindow& window,
                  const ParallelReasonerResult& result) {
    *transcript += "#" + std::to_string(window.sequence) + "[" +
                   std::to_string(window.size()) + "]:";
    for (const GroundAnswer& answer : result.answers) {
      *transcript += " " + AnswerToString(answer, *symbols_);
    }
    *transcript += "\n";
  }

  std::string PipelineTranscript(const Program& program,
                                 PipelineOptions options,
                                 const std::vector<Triple>& stream,
                                 PipelineStats* stats_out = nullptr) {
    std::string transcript;
    int64_t last_sequence = -1;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &program, options,
            [&](const TripleWindow& window,
                const ParallelReasonerResult& result) {
              EXPECT_GT(static_cast<int64_t>(window.sequence), last_sequence);
              last_sequence = static_cast<int64_t>(window.sequence);
              AppendLine(&transcript, window, result);
            });
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    (*pipeline)->PushBatch(stream);
    (*pipeline)->Flush();
    if (stats_out != nullptr) *stats_out = (*pipeline)->stats();
    return transcript;
  }

  std::string ShardedTranscript(const Program& program,
                                EngineConfig options,
                                const std::vector<Triple>& stream,
                                EngineStats* stats_out = nullptr) {
    std::string transcript;
    StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
        ShardedPipelineEngine::Create(
            &program, options,
            [&](const TripleWindow& window,
                const ParallelReasonerResult& result) {
              AppendLine(&transcript, window, result);
            });
    EXPECT_TRUE(engine.ok()) << engine.status();
    (*engine)->PushBatch(stream);
    (*engine)->Flush();
    if (stats_out != nullptr) *stats_out = (*engine)->stats();
    return transcript;
  }

  SymbolTablePtr symbols_;
};

TEST_F(GroundingReuseTest, ParallelReasonerSlidingWindowsMatchBatch) {
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    const Program program = MustProgram(variant);
    const std::vector<Triple> stream = MakeStream(600);
    for (const size_t slide : {size_t{25}, size_t{50}, size_t{100}}) {
      SCOPED_TRACE("slide " + std::to_string(slide));
      ParallelReasonerOptions reuse_options;
      reuse_options.reasoner.reuse_grounding = true;
      ParallelReasoner incremental(
          &program, PartitioningPlan(1), reuse_options);
      ParallelReasoner batch(&program, PartitioningPlan(1), {});

      std::string incremental_answers;
      std::string batch_answers;
      StreamQueryProcessor windower(
          /*window_size=*/100, slide, [&](const TripleWindow& window) {
            StatusOr<ParallelReasonerResult> a = incremental.Process(window);
            StatusOr<ParallelReasonerResult> b = batch.Process(window);
            ASSERT_TRUE(a.ok()) << a.status();
            ASSERT_TRUE(b.ok()) << b.status();
            AppendLine(&incremental_answers, window, *a);
            AppendLine(&batch_answers, window, *b);
          });
      for (const StreamPredicate& pred : MakeTrafficSchema(*symbols_)) {
        windower.RegisterPredicate(pred.predicate);
      }
      windower.PushBatch(stream);
      windower.Flush();
      EXPECT_FALSE(batch_answers.empty());
      EXPECT_EQ(incremental_answers, batch_answers);
    }
  }
}

TEST_F(GroundingReuseTest, SyncSlidingPipelineMatchesWithAndWithoutReuse) {
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(1200);

  PipelineOptions base;
  base.window_size = 200;
  base.window_slide = 50;
  base.async = false;

  PipelineOptions reuse = base;
  reuse.reuse_grounding = true;

  PipelineStats baseline_stats;
  PipelineStats reuse_stats;
  const std::string want =
      PipelineTranscript(program, base, stream, &baseline_stats);
  const std::string got =
      PipelineTranscript(program, reuse, stream, &reuse_stats);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, got);

  // Without reuse no counter moves; with reuse the overlapping windows
  // must actually hit the incremental path.
  EXPECT_EQ(baseline_stats.incremental_windows, 0u);
  EXPECT_EQ(baseline_stats.grounding_fallbacks, 0u);
  EXPECT_GT(reuse_stats.incremental_windows, 0u);
  EXPECT_GT(reuse_stats.grounding_rules_retained, 0u);
  EXPECT_GT(reuse_stats.grounding_rules_new, 0u);
  EXPECT_EQ(reuse_stats.windows, baseline_stats.windows);
}

TEST_F(GroundingReuseTest, AsyncSlidingPipelineMatchesSyncOracle) {
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(900);

  PipelineOptions sync;
  sync.window_size = 150;
  sync.window_slide = 30;
  sync.async = false;
  const std::string want = PipelineTranscript(program, sync, stream);

  // Async with reuse: each worker's grounders see every Nth window, so
  // deltas are larger, but the lossless kBlock policy keeps the delivered
  // transcript byte-identical to the sync oracle.
  PipelineOptions async = sync;
  async.async = true;
  async.max_inflight_windows = 4;
  async.reuse_grounding = true;
  const std::string got = PipelineTranscript(program, async, stream);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(want, got);
}

TEST_F(GroundingReuseTest, ShardedEngineMatchesWithAndWithoutReuse) {
  const Program program = MustProgram(TrafficProgramVariant::kPPrime);
  const std::vector<Triple> stream = MakeStream(800);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EngineConfig base;
    base.num_shards = shards;
    base.pipeline.window_size = 200;

    EngineConfig reuse = base;
    reuse.pipeline.reuse_grounding = true;

    const std::string want = ShardedTranscript(program, base, stream);
    EngineStats reuse_stats;
    const std::string got =
        ShardedTranscript(program, reuse, stream, &reuse_stats);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(want, got);
    // Tumbling global windows: the cache sees disjoint content and must
    // degrade to (correct) full re-groundings, never corrupt answers.
    EXPECT_GT(reuse_stats.reasoning.grounding_fallbacks, 0u);
  }
}

TEST_F(GroundingReuseTest, ShardedSlidingWindowsKeepGroundingReuseIncremental) {
  // Router delta punctuation: sliding global windows reach the sharded
  // engine, each shard's grounders replay only the routed slice of the
  // global delta, and the merged transcript stays byte-identical to the
  // unsharded sliding oracle.
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const std::vector<Triple> stream = MakeStream(900);

  PipelineOptions sync;
  sync.window_size = 150;
  sync.window_slide = 30;
  const std::string want = PipelineTranscript(program, sync, stream);
  ASSERT_FALSE(want.empty());

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EngineConfig options;
    options.num_shards = shards;
    options.pipeline.window_size = 150;
    options.pipeline.window_slide = 30;
    options.pipeline.reuse_grounding = true;
    EngineStats stats;
    EXPECT_EQ(ShardedTranscript(program, options, stream, &stats), want);
    EXPECT_GT(stats.delta_punctuations, 0u);
    EXPECT_GT(stats.reasoning.incremental_windows, 0u);
    EXPECT_GT(stats.reasoning.grounding_rules_retained, 0u);
  }
}

TEST_F(GroundingReuseTest, ShardedSlidingValidation) {
  const Program program = MustProgram(TrafficProgramVariant::kP);
  const auto callback = [](TripleWindow&, const ParallelReasonerResult&) {};

  // The remaining unsupported sliding combination: lossy shedding (a
  // shed sub-window would stall the ordered merge; ROADMAP.md).
  EngineConfig lossy;
  lossy.num_shards = 2;
  lossy.pipeline.window_size = 100;
  lossy.pipeline.window_slide = 25;
  lossy.pipeline.backpressure = BackpressurePolicy::kDropOldest;
  StatusOr<std::unique_ptr<ShardedPipelineEngine>> shedding =
      ShardedPipelineEngine::Create(&program, lossy, callback);
  EXPECT_FALSE(shedding.ok());

  // Sliding by more than a full window never makes sense.
  EngineConfig oversized;
  oversized.num_shards = 2;
  oversized.pipeline.window_size = 100;
  oversized.pipeline.window_slide = 200;
  EXPECT_FALSE(
      ShardedPipelineEngine::Create(&program, oversized, callback).ok());

  // In-range slides are now a supported configuration.
  EngineConfig sliding;
  sliding.num_shards = 2;
  sliding.pipeline.window_size = 100;
  sliding.pipeline.window_slide = 25;
  EXPECT_TRUE(
      ShardedPipelineEngine::Create(&program, sliding, callback).ok());
}

TEST_F(GroundingReuseTest, SlidingQueryProcessorEmitsDeltas) {
  const std::vector<Triple> stream = MakeStream(400);
  std::vector<TripleWindow> windows;
  StreamQueryProcessor processor(
      /*window_size=*/100, /*slide=*/25,
      [&](TripleWindow window) { windows.push_back(std::move(window)); });
  for (const StreamPredicate& pred : MakeTrafficSchema(*symbols_)) {
    processor.RegisterPredicate(pred.predicate);
  }
  for (const Triple& t : stream) processor.Push(t);
  processor.Flush();
  ASSERT_GE(windows.size(), 2u);
  for (size_t k = 0; k < windows.size(); ++k) {
    EXPECT_TRUE(windows[k].has_delta);
    EXPECT_EQ(windows[k].sequence, k);
    EXPECT_EQ(windows[k].size(), 100u);
  }
  // First window admits everything; later ones slide by 25.
  EXPECT_TRUE(windows[0].expired.empty());
  EXPECT_EQ(windows[0].admitted.size(), 100u);
  EXPECT_EQ(windows[1].expired.size(), 25u);
  EXPECT_EQ(windows[1].admitted.size(), 25u);
}

}  // namespace
}  // namespace streamasp
