// The sharded multi-pipeline engine: differential shard-count invariance
// against the single-pipeline synchronous oracle, skewed-key worst cases,
// ordered merge delivery, flush/drain semantics, and stats aggregation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "asp/parser.h"
#include "stream/generator.h"
#include "stream/shard_key.h"
#include "streamrule/pipeline.h"
#include "streamrule/sharded_pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class ShardedPipelineTest : public ::testing::Test {
 protected:
  ShardedPipelineTest() : symbols_(MakeSymbolTable()) {}

  std::vector<Triple> MakeStream(size_t items, uint64_t seed = 2017) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
    return generator.GenerateWindow(items);
  }

  // One transcript line per delivered window: sequence, size, and every
  // answer set, byte for byte — the common currency for the differential
  // comparisons. Also asserts the strict emission-order invariant.
  std::string SyncOracleTranscript(const Program& program, size_t window_size,
                                   const std::vector<Triple>& stream,
                                   PipelineStats* stats_out = nullptr,
                                   size_t window_slide = 0) {
    std::string transcript;
    int64_t last_sequence = -1;
    PipelineOptions options;
    options.window_size = window_size;
    options.window_slide = window_slide;
    options.async = false;
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
    int64_t last_sequence = -1;
    StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
        ShardedPipelineEngine::Create(
            &program, options,
            [&](const TripleWindow& window,
                const ParallelReasonerResult& result) {
              // The ordered merge's contract: strictly increasing global
              // sequences no matter how shards race.
              EXPECT_GT(static_cast<int64_t>(window.sequence), last_sequence);
              last_sequence = static_cast<int64_t>(window.sequence);
              AppendLine(&transcript, window, result);
            });
    EXPECT_TRUE(engine.ok()) << engine.status();
    (*engine)->PushBatch(stream);
    (*engine)->Flush();
    if (stats_out != nullptr) *stats_out = (*engine)->stats();
    return transcript;
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

  SymbolTablePtr symbols_;
};

TEST_F(ShardedPipelineTest, ShardCountInvariantAgainstSyncOracle) {
  // The acceptance bar: for every shard count, the merged stream of
  // answers is byte-identical to the unsharded synchronous oracle —
  // subject sharding is dependency-respecting for the traffic workload,
  // and the router's aligned global windows make window boundaries (and
  // thus window contents) shard-count-invariant.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(5300);  // 10 full + trailer.

  PipelineStats oracle_stats;
  const std::string oracle =
      SyncOracleTranscript(*program, 500, stream, &oracle_stats);
  ASSERT_FALSE(oracle.empty());
  ASSERT_EQ(oracle_stats.windows, 11u);

  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig options;
    options.num_shards = shards;
    options.pipeline.window_size = 500;
    options.pipeline.async = true;
    options.pipeline.max_inflight_windows = 4;

    EngineStats stats;
    EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);
    EXPECT_EQ(stats.delivered_windows, oracle_stats.windows);
    EXPECT_EQ(stats.delivered_answers, oracle_stats.answers);
    EXPECT_EQ(stats.delivery_errors, 0u);
    EXPECT_EQ(stats.reasoning.errors, 0u);
    // Every routed item ends up in exactly one shard sub-window.
    EXPECT_EQ(stats.reasoning.items, oracle_stats.items);
    EXPECT_EQ(std::accumulate(stats.routed_items.begin(),
                              stats.routed_items.end(), uint64_t{0}),
              oracle_stats.items);
  }
}

TEST_F(ShardedPipelineTest, ConnectedVariantWithDuplicationStaysInvariant) {
  // P' exercises Louvain + duplicated predicates inside every shard's
  // ParallelReasoner while the cross-shard merge runs on top. At the
  // router level the duplicated predicate (car_number) is broadcast to
  // every shard, which is what makes r7's cross-shard join
  // (car_fire(X), many_cars(X)) exact regardless of how subjects hash
  // — tests/engine_test.cc covers the case that needs it.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(3000, /*seed=*/7);

  const std::string oracle = SyncOracleTranscript(*program, 400, stream);
  for (const size_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig options;
    options.num_shards = shards;
    options.pipeline.window_size = 400;
    options.pipeline.async = true;
    options.pipeline.max_inflight_windows = 4;
    EXPECT_EQ(ShardedTranscript(*program, options, stream), oracle);
  }
}

TEST_F(ShardedPipelineTest, SynchronousShardPipelinesAlsoMatch) {
  // Inner async=false reasons the shards one after another on the caller
  // thread, like the unsharded oracle: still byte-identical.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(2500, /*seed=*/11);

  const std::string oracle = SyncOracleTranscript(*program, 300, stream);
  EngineConfig options;
  options.num_shards = 3;
  options.pipeline.window_size = 300;
  options.pipeline.async = false;
  EXPECT_EQ(ShardedTranscript(*program, options, stream), oracle);
}

TEST_F(ShardedPipelineTest, CommunityShardKeyMatchesOracleWithoutDuplication) {
  // Dependency-graph-derived keys: P's input dependency graph is
  // disconnected, so its plan has no duplicated predicates and routing
  // whole communities to shards is answer-preserving by the paper's
  // decomposition theorem.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(2000, /*seed=*/3);

  const std::string oracle = SyncOracleTranscript(*program, 250, stream);

  // Build the plan the same way the pipeline does, then shard by it.
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program, InputDependencyOptions{});
  ASSERT_TRUE(graph.ok());
  DecompositionInfo info;
  StatusOr<PartitioningPlan> plan =
      DecomposeInputDependencyGraph(*graph, DecompositionOptions{}, &info);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->DuplicatedPredicates().empty());

  EngineConfig options;
  options.num_shards = 2;
  options.shard_key = CommunityShardKey(*plan);
  options.pipeline.window_size = 250;
  options.pipeline.async = true;
  EXPECT_EQ(ShardedTranscript(*program, options, stream), oracle);
}

TEST_F(ShardedPipelineTest, SkewedKeyRoutesEverythingToOneShardCorrectly) {
  // Worst-case skew: a constant key sends the entire stream to shard 0.
  // Ordering, answers and accounting must all hold with the other shards
  // idle — this also exercises the pending==window_size punctuation edge
  // (a sub-window that IS the whole global window).
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(2100, /*seed=*/13);

  PipelineStats oracle_stats;
  const std::string oracle =
      SyncOracleTranscript(*program, 400, stream, &oracle_stats);

  EngineConfig options;
  options.num_shards = 4;
  options.shard_key = ConstantShardKey();
  options.pipeline.window_size = 400;
  options.pipeline.async = true;
  options.pipeline.max_inflight_windows = 4;

  EngineStats stats;
  EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);

  ASSERT_EQ(stats.routed_items.size(), 4u);
  EXPECT_EQ(stats.routed_items[0], oracle_stats.items);
  EXPECT_EQ(stats.routed_items[1], 0u);
  EXPECT_EQ(stats.routed_items[2], 0u);
  EXPECT_EQ(stats.routed_items[3], 0u);
  ASSERT_EQ(stats.per_shard.size(), 4u);
  EXPECT_EQ(stats.per_shard[0].windows, oracle_stats.windows);
  EXPECT_EQ(stats.per_shard[1].windows, 0u);
  EXPECT_EQ(stats.delivered_windows, oracle_stats.windows);
  EXPECT_EQ(stats.delivery_errors, 0u);
}

TEST_F(ShardedPipelineTest, SlidingGlobalWindowsMatchSyncOracle) {
  // The sliding tentpole: router delta punctuation must keep the merged
  // transcript byte-identical to the unsharded sliding oracle across
  // slide sizes (including slide == window, the tumbling full-replacement
  // edge), programs P and P', shard counts 1/2/4, and with the full
  // reuse stack (reuse_solving implies reuse_grounding) on or off.
  // (P''s r7 joins car-subject and location-subject items, so subject
  // sharding is only stream-dependently respecting for it — these fixed
  // seeds, like the tumbling P' differentials', never co-locate a
  // cross-shard join opportunity in one window.)
  for (const TrafficProgramVariant variant :
       {TrafficProgramVariant::kP, TrafficProgramVariant::kPPrime}) {
    StatusOr<Program> program =
        MakeTrafficProgram(symbols_, variant, /*with_show=*/true);
    ASSERT_TRUE(program.ok());
    const std::vector<Triple> stream = MakeStream(
        1200, variant == TrafficProgramVariant::kP ? 2017 : 7);
    for (const size_t slide : {size_t{40}, size_t{100}, size_t{200}}) {
      const std::string oracle = SyncOracleTranscript(
          *program, /*window_size=*/200, stream, nullptr, slide);
      ASSERT_FALSE(oracle.empty());
      for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
        for (const bool reuse : {false, true}) {
          SCOPED_TRACE("variant=" + std::to_string(static_cast<int>(variant)) +
                       " slide=" + std::to_string(slide) +
                       " shards=" + std::to_string(shards) +
                       (reuse ? " +reuse" : ""));
          EngineConfig options;
          options.num_shards = shards;
          options.pipeline.window_size = 200;
          options.pipeline.window_slide = slide;
          options.pipeline.reuse_solving = reuse;
          EngineStats stats;
          EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats),
                    oracle);
          EXPECT_EQ(stats.delivery_errors, 0u);
          if (slide < 200) {
            EXPECT_GT(stats.delta_punctuations, 0u);
            if (reuse && slide == 40) {
              // At the high-overlap slide the routed slices of the delta
              // stay under the grounder's fallback fraction, so the
              // persistent engines must actually patch, not rebuild.
              // (slide == 100 turns over half the window, whose ~2×slide
              // delta magnitude exceeds the fallback fraction — the
              // caches legitimately rebuild, still byte-identical above.)
              EXPECT_GT(stats.reasoning.incremental_solve_windows, 0u);
              EXPECT_GT(stats.reasoning.grounding_rules_retained, 0u);
            }
          } else {
            // slide == window is the tumbling full-replacement path: the
            // router keeps disjoint punctuation, no deltas travel.
            EXPECT_EQ(stats.delta_punctuations, 0u);
          }
        }
      }
    }
  }
}

TEST_F(ShardedPipelineTest, SlidingSmallSlidesPunctuateEmptyDeltas) {
  // slide ≪ shards × churn: most boundaries change only one or two
  // shards' slices, so the other contributing shards are punctuated with
  // EMPTY deltas (retain everything) — and the transcript must still
  // match the oracle exactly.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(700, /*seed=*/23);

  const std::string oracle = SyncOracleTranscript(
      *program, /*window_size=*/120, stream, nullptr, /*window_slide=*/10);

  EngineConfig options;
  options.num_shards = 4;
  options.pipeline.window_size = 120;
  options.pipeline.window_slide = 10;
  options.pipeline.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);
  // Punctuations outnumber boundaries (several shards per boundary), and
  // boundaries outnumber slices that changed — i.e. empty-delta
  // punctuations really occurred.
  EXPECT_GT(stats.delta_punctuations, stats.delivered_windows);
  uint64_t admitted_total = 0;
  for (const PipelineStats& shard : stats.per_shard) {
    admitted_total += shard.windows;
  }
  EXPECT_EQ(admitted_total, stats.delta_punctuations);
}

TEST_F(ShardedPipelineTest, SlidingDuplicateTriplesExpireAcrossBoundaries) {
  // Duplicate stream items: the multiset delta contract says each
  // occurrence expires positionally. Doubling every triple guarantees
  // duplicates live in the same window and expire across boundaries.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> base = MakeStream(300, /*seed=*/5);
  std::vector<Triple> stream;
  stream.reserve(base.size() * 2);
  for (const Triple& t : base) {
    stream.push_back(t);
    stream.push_back(t);
  }

  const std::string oracle = SyncOracleTranscript(
      *program, /*window_size=*/100, stream, nullptr, /*window_slide=*/20);

  for (const size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig options;
    options.num_shards = shards;
    options.pipeline.window_size = 100;
    options.pipeline.window_slide = 20;
    options.pipeline.reuse_solving = true;
    EngineStats stats;
    EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);
    EXPECT_EQ(stats.delivery_errors, 0u);
    EXPECT_GT(stats.delta_punctuations, 0u);
  }
}

TEST_F(ShardedPipelineTest, SlidingShardWithAdmissionsButNoExpirations) {
  // A phased stream steered by an object-valued shard key: shard 1 is
  // empty for the first phase (admissions, no expirations when its items
  // start), then shard 0's items age out completely (boundaries skip it,
  // its expirations fold until it contributes again in phase 3).
  Parser parser(symbols_);
  StatusOr<Program> program = parser.ParseProgram(R"(
    #input p/2.
    q(X, Y) :- p(X, Y).
    #show q/2.
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  const SymbolId p = symbols_->Intern("p");
  auto item = [&](int64_t subject, int64_t object) {
    return Triple{Term::Integer(subject), p, Term::Integer(object)};
  };
  std::vector<Triple> stream;
  for (int64_t i = 0; i < 60; ++i) stream.push_back(item(i, 0));       // shard 0
  for (int64_t i = 0; i < 80; ++i) stream.push_back(item(100 + i, 1)); // shard 1
  for (int64_t i = 0; i < 40; ++i) stream.push_back(item(200 + i, 0)); // shard 0

  const std::string oracle = SyncOracleTranscript(
      *program, /*window_size=*/40, stream, nullptr, /*window_slide=*/8);

  EngineConfig options;
  options.num_shards = 2;
  options.shard_key = [](const Triple& t) {
    return static_cast<uint64_t>(t.object->integer_value());
  };
  options.pipeline.window_size = 40;
  options.pipeline.window_slide = 8;
  options.pipeline.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);
  EXPECT_EQ(stats.delivery_errors, 0u);
  // Phase 2 drains shard 0's slice entirely: boundaries must have
  // skipped it while its expirations folded.
  EXPECT_GT(stats.skipped_empty_slices, 0u);
  EXPECT_GT(stats.delta_punctuations, 0u);
  ASSERT_EQ(stats.routed_items.size(), 2u);
  EXPECT_EQ(stats.routed_items[0], 100u);
  EXPECT_EQ(stats.routed_items[1], 80u);
}

TEST_F(ShardedPipelineTest, SlidingFlushBeforeFirstFillEmitsPartialWindow) {
  // A stream shorter than the global window: no boundary ever fires, so
  // Flush must emit the retained partial window exactly like the
  // unsharded sliding windower does (admitted == items, no expirations).
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(90, /*seed=*/31);

  const std::string oracle = SyncOracleTranscript(
      *program, /*window_size=*/200, stream, nullptr, /*window_slide=*/50);
  ASSERT_FALSE(oracle.empty());

  EngineConfig options;
  options.num_shards = 3;
  options.pipeline.window_size = 200;
  options.pipeline.window_slide = 50;
  options.pipeline.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);
  EXPECT_EQ(stats.delivered_windows, 1u);
}

TEST_F(ShardedPipelineTest, SlidingWithAsyncInnerPipelinesMatchesOracle) {
  // Async inner pipelines put several delta-carrying sub-windows in
  // flight per shard; each worker's grounders see every Nth sub-window,
  // reject the stale delta hints, and snapshot-diff instead — the
  // transcript must stay byte-identical regardless. Program P: its
  // rules are subject-local, so subject sharding is
  // dependency-respecting with no help from the router's
  // duplicated-predicate broadcast (P's plan duplicates nothing —
  // this leg isolates the delta machinery from the broadcast path).
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(1000, /*seed=*/17);

  const std::string oracle = SyncOracleTranscript(
      *program, /*window_size=*/200, stream, nullptr, /*window_slide=*/40);

  EngineConfig options;
  options.num_shards = 2;
  options.pipeline.window_size = 200;
  options.pipeline.window_slide = 40;
  options.pipeline.async = true;
  options.pipeline.max_inflight_windows = 4;
  options.pipeline.reuse_solving = true;
  EngineStats stats;
  EXPECT_EQ(ShardedTranscript(*program, options, stream, &stats), oracle);
  EXPECT_EQ(stats.delivery_errors, 0u);
  EXPECT_GT(stats.delta_punctuations, 0u);
}

TEST_F(ShardedPipelineTest, StatsAggregateAcrossShards) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  EngineConfig options;
  options.num_shards = 4;
  options.pipeline.window_size = 300;
  options.pipeline.async = true;
  StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
      ShardedPipelineEngine::Create(
          &*program, options,
          [](const TripleWindow&, const ParallelReasonerResult&) {});
  ASSERT_TRUE(engine.ok()) << engine.status();

  (*engine)->PushBatch(MakeStream(1500));
  (*engine)->Flush();

  const EngineStats stats = (*engine)->stats();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  uint64_t windows = 0;
  uint64_t items = 0;
  for (const PipelineStats& shard : stats.per_shard) {
    windows += shard.windows;
    items += shard.items;
  }
  EXPECT_EQ(stats.reasoning.windows, windows);
  EXPECT_EQ(stats.reasoning.items, items);
  EXPECT_EQ(items, 1500u);
  EXPECT_EQ(stats.delivered_windows, 5u);  // 1500 / 300 global windows.
  EXPECT_EQ(std::accumulate(stats.routed_items.begin(),
                            stats.routed_items.end(), uint64_t{0}),
            1500u);
  EXPECT_EQ(stats.filtered_items, 0u);
  // Sub-window count >= global windows (each global window splits into
  // at least one non-empty sub-window) and <= shards * global windows.
  EXPECT_GE(windows, stats.delivered_windows);
  EXPECT_LE(windows, 4 * stats.delivered_windows);
}

TEST_F(ShardedPipelineTest, FlushDrainsAndEngineStaysUsable) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::atomic<uint64_t> callbacks{0};
  EngineConfig options;
  options.num_shards = 2;
  options.pipeline.window_size = 300;
  options.pipeline.async = true;
  StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
      ShardedPipelineEngine::Create(
          &*program, options,
          [&](const TripleWindow&, const ParallelReasonerResult&) {
            ++callbacks;
          });
  ASSERT_TRUE(engine.ok()) << engine.status();

  (*engine)->PushBatch(MakeStream(900));
  (*engine)->Flush();
  EXPECT_EQ(callbacks.load(), 3u);
  EXPECT_EQ((*engine)->stats().delivered_windows, 3u);

  // The engine keeps running after a flush.
  (*engine)->PushBatch(MakeStream(600, /*seed=*/5));
  (*engine)->Flush();
  EXPECT_EQ(callbacks.load(), 5u);
}

TEST_F(ShardedPipelineTest, DestructorDrainsAdmittedGlobalWindows) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::atomic<uint64_t> callbacks{0};
  {
    EngineConfig options;
    options.num_shards = 2;
    options.pipeline.window_size = 200;
    options.pipeline.async = true;
    options.pipeline.max_inflight_windows = 8;
    StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
        ShardedPipelineEngine::Create(
            &*program, options,
            [&](const TripleWindow&, const ParallelReasonerResult&) {
              ++callbacks;
            });
    ASSERT_TRUE(engine.ok()) << engine.status();
    // 4 closed global windows + 100 items of partial window that was
    // never assigned: the destructor must deliver exactly the closed 4.
    (*engine)->PushBatch(MakeStream(900));
  }
  EXPECT_EQ(callbacks.load(), 4u);
}

TEST_F(ShardedPipelineTest, CreateValidatesOptions) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const ShardedPipelineEngine::ResultCallback callback =
      [](const TripleWindow&, const ParallelReasonerResult&) {};

  EngineConfig zero_shards;  // num_shards defaults to 0.
  EXPECT_FALSE(
      ShardedPipelineEngine::Create(&*program, zero_shards, callback).ok());

  // Lossy backpressure needs async inner pipelines (sync mode has no work
  // queue to shed from); with async set the shedding-aware merge handles
  // it, sliding windows included.
  EngineConfig shedding;
  shedding.num_shards = 2;
  shedding.pipeline.backpressure = BackpressurePolicy::kDropOldest;
  EXPECT_FALSE(
      ShardedPipelineEngine::Create(&*program, shedding, callback).ok());
  shedding.pipeline.async = true;
  EXPECT_TRUE(
      ShardedPipelineEngine::Create(&*program, shedding, callback).ok());

  EngineConfig ok_options;
  ok_options.num_shards = 2;
  EXPECT_FALSE(
      ShardedPipelineEngine::Create(nullptr, ok_options, callback).ok());
  EXPECT_FALSE(ShardedPipelineEngine::Create(
                   &*program, ok_options,
                   ShardedPipelineEngine::ResultCallback())
                   .ok());
  EXPECT_FALSE(
      ShardedPipelineEngine::Create(&*program, ok_options, EmissionHandler())
          .ok());
}

TEST_F(ShardedPipelineTest, FailedSubWindowsSkipTheirSlotInsteadOfStalling) {
  // Force every sub-window's reasoning to fail (grounding resource limit)
  // with SYNCHRONOUS inner pipelines: the error deliveries must consume
  // their merge slots so Flush drains instead of hanging, and the merged
  // windows are skipped and counted — the engine's error discipline.
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::atomic<uint64_t> callbacks{0};
  EngineConfig options;
  options.num_shards = 2;
  options.pipeline.window_size = 200;
  options.pipeline.async = false;
  options.pipeline.reasoner.reasoner.grounding.max_ground_rules = 1;
  StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
      ShardedPipelineEngine::Create(
          &*program, options,
          [&](const TripleWindow&, const ParallelReasonerResult&) {
            ++callbacks;
          });
  ASSERT_TRUE(engine.ok()) << engine.status();

  (*engine)->PushBatch(MakeStream(600));  // Three global windows.
  (*engine)->Flush();                     // Must not hang.

  EXPECT_EQ(callbacks.load(), 0u);
  const EngineStats stats = (*engine)->stats();
  EXPECT_EQ(stats.delivered_windows, 0u);
  EXPECT_EQ(stats.delivery_errors, 3u);
  EXPECT_GE(stats.reasoning.errors, 3u);  // Per-sub-window failures.
}

TEST_F(ShardedPipelineTest, ThrowingCallbackIsCountedNotFatal) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  std::atomic<uint64_t> delivered{0};
  EngineConfig options;
  options.num_shards = 2;
  options.pipeline.window_size = 250;
  options.pipeline.async = true;
  StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
      ShardedPipelineEngine::Create(
          &*program, options,
          [&](const TripleWindow& window, const ParallelReasonerResult&) {
            if (window.sequence == 0) throw std::runtime_error("boom");
            ++delivered;
          });
  ASSERT_TRUE(engine.ok()) << engine.status();

  (*engine)->PushBatch(MakeStream(750));  // Three global windows.
  (*engine)->Flush();

  EXPECT_EQ(delivered.load(), 2u);  // Windows 1 and 2 still arrive.
  const EngineStats stats = (*engine)->stats();
  EXPECT_EQ(stats.delivery_errors, 1u);
  EXPECT_EQ(stats.delivered_windows, 2u);
}

}  // namespace
}  // namespace streamasp
