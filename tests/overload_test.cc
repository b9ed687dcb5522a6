// Graceful degradation under overload: the tombstone emission channel,
// shedding-aware sharded merge, completeness accounting, and the bursty
// workload generator. The core property: shedding degrades answers
// (completeness < 1), it never reorders, stalls, or silently corrupts —
// and windows nothing was shed from stay byte-identical to the lossless
// oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "asp/parser.h"
#include "stream/generator.h"
#include "streamrule/answer.h"
#include "streamrule/pipeline.h"
#include "streamrule/sharded_pipeline.h"
#include "streamrule/traffic_workload.h"

namespace streamasp {
namespace {

class OverloadTest : public ::testing::Test {
 protected:
  OverloadTest() : symbols_(MakeSymbolTable()) {}

  std::vector<Triple> MakeStream(size_t items, uint64_t seed = 2017) {
    GeneratorOptions options;
    options.seed = seed;
    SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols_), options);
    return generator.GenerateWindow(items);
  }

  std::string Line(const TripleWindow& window,
                   const ParallelReasonerResult& result) {
    std::string line = "#" + std::to_string(window.sequence) + "[" +
                       std::to_string(window.size()) + "]:";
    for (const GroundAnswer& answer : result.answers) {
      line += " " + AnswerToString(answer, *symbols_);
    }
    return line;
  }

  // Lossless unsharded synchronous run — the oracle every shedding
  // configuration is compared against, keyed by window sequence.
  std::map<uint64_t, std::string> OracleLines(const Program& program,
                                              size_t window_size,
                                              size_t window_slide,
                                              const std::vector<Triple>& stream) {
    std::map<uint64_t, std::string> lines;
    PipelineOptions options;
    options.window_size = window_size;
    options.window_slide = window_slide;
    options.async = false;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &program, options,
            [&](const TripleWindow& window,
                const ParallelReasonerResult& result) {
              lines[window.sequence] = Line(window, result);
            });
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    (*pipeline)->PushBatch(stream);
    (*pipeline)->Flush();
    return lines;
  }

  SymbolTablePtr symbols_;
};

// The acceptance matrix: shards {1, 2, 4} × {tumbling, sliding+reuse}
// under a deterministic pseudo-random admission filter (~25% of shard
// sub-windows shed, desynchronized across shards). The merge must never
// reorder or stall, every global window must be delivered, windows with
// completeness == 1.0 (bit-exact) must be byte-identical to the lossless
// oracle — which under sliding+reuse exercises the shed-delta fold across
// gaps — and the shed accounting must match what the filter actually did.
TEST_F(OverloadTest, RandomizedShedShardedMatrixStaysOrderedAndExact) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const std::vector<Triple> stream = MakeStream(5300);
  const size_t window_size = 500;

  for (const bool sliding : {false, true}) {
    // 20% turnover per slide keeps single-window deltas under the
    // grounder's fallback fraction, so incremental reuse genuinely
    // engages (folded post-shed deltas may still legitimately fall back).
    const size_t slide = sliding ? 100 : 0;
    const std::map<uint64_t, std::string> oracle =
        OracleLines(*program, window_size, slide, stream);
    ASSERT_FALSE(oracle.empty());

    for (const size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("sliding=" + std::to_string(sliding) +
                   " shards=" + std::to_string(shards));
      std::atomic<uint64_t> filter_shed_windows{0};
      std::atomic<uint64_t> filter_shed_items{0};

      EngineConfig options;
      options.num_shards = shards;
      options.pipeline.window_size = window_size;
      options.pipeline.window_slide = slide;
      options.pipeline.async = false;  // Sheds synchronously → exact folds.
      options.pipeline.reuse_grounding = sliding;
      options.pipeline.admission_filter = [&](const TripleWindow& window) {
        // Deterministic ~25% shed, desynchronized across shards by mixing
        // the sub-window's size into the hash.
        const uint64_t h =
            (window.sequence * 2654435761ULL) ^ (window.size() * 97ULL);
        if (h % 4 != 0) return true;
        filter_shed_windows.fetch_add(1, std::memory_order_relaxed);
        filter_shed_items.fetch_add(window.size(), std::memory_order_relaxed);
        return false;
      };

      std::vector<std::pair<uint64_t, double>> delivered;  // seq, completeness
      std::vector<std::string> mismatches;
      uint64_t full_shed_windows = 0;
      int64_t last_sequence = -1;
      StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
          ShardedPipelineEngine::Create(
              &*program, options,
              [&](const TripleWindow& window,
                  const ParallelReasonerResult& result) {
                EXPECT_GT(static_cast<int64_t>(window.sequence),
                          last_sequence);
                last_sequence = static_cast<int64_t>(window.sequence);
                delivered.emplace_back(window.sequence, result.completeness);
                if (result.completeness == 1.0) {
                  const auto it = oracle.find(window.sequence);
                  const std::string line = Line(window, result);
                  if (it == oracle.end() || it->second != line) {
                    mismatches.push_back(line);
                  }
                } else if (result.completeness == 0.0) {
                  // Fully shed global windows bypass combining: zero
                  // answer sets, not one vacuous empty one.
                  EXPECT_TRUE(result.answers.empty());
                  ++full_shed_windows;
                }
              });
      ASSERT_TRUE(engine.ok()) << engine.status();
      (*engine)->PushBatch(stream);
      (*engine)->Flush();  // Must return: tombstones release every slot.

      // Every global window was delivered despite shedding — no stall,
      // no skipped slot.
      ASSERT_EQ(delivered.size(), oracle.size());
      EXPECT_TRUE(mismatches.empty())
          << "complete window diverged from oracle: " << mismatches.front();

      const EngineStats stats = (*engine)->stats();
      // The filter both shed and passed work (the matrix is meaningless
      // otherwise), and the engine's accounting matches it exactly.
      EXPECT_GT(filter_shed_windows.load(), 0u);
      EXPECT_LT(filter_shed_windows.load(), oracle.size() * shards);
      EXPECT_EQ(stats.shed_subwindows, filter_shed_windows.load());
      EXPECT_EQ(stats.reasoning.rejected_windows, filter_shed_windows.load());
      EXPECT_EQ(stats.reasoning.shed_items, filter_shed_items.load());
      EXPECT_EQ(stats.reasoning.dropped_windows, 0u);
      EXPECT_EQ(stats.delivery_errors, 0u);
      EXPECT_EQ(stats.delivered_windows, oracle.size());

      // completeness < 1 on exactly the windows with a shed contribution.
      uint64_t degraded = 0;
      double min_completeness = 1.0;
      double sum = 0;
      for (const auto& [sequence, completeness] : delivered) {
        EXPECT_GE(completeness, 0.0);
        EXPECT_LE(completeness, 1.0);
        if (completeness < 1.0) ++degraded;
        min_completeness = std::min(min_completeness, completeness);
        sum += completeness;
      }
      EXPECT_EQ(stats.degraded_windows, degraded);
      EXPECT_DOUBLE_EQ(stats.min_completeness, min_completeness);
      EXPECT_NEAR(stats.mean_completeness,
                  sum / static_cast<double>(delivered.size()), 1e-9);
      EXPECT_GT(degraded, 0u);
      if (shards == 1) {
        // One shard: a shed sub-window is the whole global window.
        EXPECT_EQ(full_shed_windows, filter_shed_windows.load());
      }
      if (sliding) {
        // The fold kept the incremental chain warm across shed gaps.
        EXPECT_GT(stats.reasoning.incremental_windows, 0u);
      }
    }
  }
}

// Tombstones interleave with results on the same ordered channel: across
// result + shed callbacks the delivered sequences are exactly 0..N-1 in
// strictly increasing order, in both sync and async mode, and the
// pipeline-level completeness matches the filter's actual sheds.
TEST_F(OverloadTest, TombstonesInterleaveInStrictSequenceOrder) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());
  const size_t window_size = 100;
  const std::vector<Triple> stream = MakeStream(3000);  // 30 windows.

  for (const bool async : {false, true}) {
    SCOPED_TRACE("async=" + std::to_string(async));
    PipelineOptions options;
    options.window_size = window_size;
    options.async = async;
    options.num_reason_workers = async ? 2 : 0;
    options.admission_filter = [](const TripleWindow& window) {
      return window.sequence % 3 != 1;
    };

    std::mutex mutex;
    std::vector<uint64_t> all_sequences;
    std::vector<uint64_t> shed_sequences;
    StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
        StreamRulePipeline::Create(
            &*program, options,
            [&](const TripleWindow& window, const ParallelReasonerResult&) {
              std::lock_guard<std::mutex> lock(mutex);
              all_sequences.push_back(window.sequence);
            },
            /*error_callback=*/nullptr,
            [&](TripleWindow& window) {
              std::lock_guard<std::mutex> lock(mutex);
              all_sequences.push_back(window.sequence);
              shed_sequences.push_back(window.sequence);
              // Tombstones carry the unreasoned window's items intact.
              EXPECT_EQ(window.size(), window_size);
            });
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    (*pipeline)->PushBatch(stream);
    (*pipeline)->Flush();

    // One delivery per emitted window, all three channels interleaved in
    // strict sequence order with no gaps.
    ASSERT_EQ(all_sequences.size(), 30u);
    for (size_t i = 0; i < all_sequences.size(); ++i) {
      EXPECT_EQ(all_sequences[i], i);
    }
    ASSERT_EQ(shed_sequences.size(), 10u);
    for (size_t i = 0; i < shed_sequences.size(); ++i) {
      EXPECT_EQ(shed_sequences[i], 3 * i + 1);
    }

    const PipelineStats stats = (*pipeline)->stats();
    EXPECT_EQ(stats.windows, 20u);
    EXPECT_EQ(stats.rejected_windows, 10u);
    EXPECT_EQ(stats.dropped_windows, 0u);
    EXPECT_EQ(stats.shed_windows(), 10u);
    EXPECT_EQ(stats.shed_items, 10u * window_size);
    EXPECT_DOUBLE_EQ(stats.completeness(), 2000.0 / 3000.0);
    if (async) {
      // Admission sheds happen before the queue: nothing shed was ever
      // enqueued.
      EXPECT_EQ(stats.enqueued_windows, 20u);
    }
  }
}

// Hot-key storm against an undersized async pipeline with kDropOldest:
// the pipeline keeps up by evicting stale windows, so per-window emit
// latency (window close → ordered delivery) stays bounded by the in-flight
// budget times the slowest window — instead of the unbounded backlog a
// lossless queue would accumulate — and the drop accounting matches the
// losses exactly.
TEST_F(OverloadTest, HotKeyStormDropOldestBoundsEmitLatency) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  const size_t window_size = 250;
  const size_t num_windows = 200;
  BurstOptions burst;
  burst.shape = BurstShape::kHotKeyStorm;
  burst.period = 2000;
  burst.burst_fraction = 0.5;
  burst.hot_subjects = 2;
  burst.hot_fraction = 0.9;
  BurstyStreamGenerator generator =
      MakeTrafficBurstGenerator(*symbols_, /*seed=*/7, burst);

  PipelineOptions options;
  options.window_size = window_size;
  options.async = true;
  options.num_reason_workers = 1;
  options.max_inflight_windows = 2;
  options.backpressure = BackpressurePolicy::kDropOldest;

  using Clock = std::chrono::steady_clock;
  // Pre-sized and written before the window's last item is pushed, so the
  // emitter thread never races a reallocation or an unwritten slot.
  std::vector<Clock::time_point> close_times(num_windows);
  std::mutex mutex;
  std::vector<double> emit_latency_ms;  // Result channel only.
  uint64_t shed_tombstones = 0;

  StatusOr<std::unique_ptr<StreamRulePipeline>> pipeline =
      StreamRulePipeline::Create(
          &*program, options,
          [&](const TripleWindow& window, const ParallelReasonerResult&) {
            const Clock::time_point now = Clock::now();
            std::lock_guard<std::mutex> lock(mutex);
            emit_latency_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    now - close_times[window.sequence])
                    .count());
          },
          /*error_callback=*/nullptr,
          [&](TripleWindow&) {
            std::lock_guard<std::mutex> lock(mutex);
            ++shed_tombstones;
          });
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();

  // Full-speed push: one window's worth at a time, stamping the close
  // time just before the chunk whose last item closes window k (every
  // schema predicate is an input, so window k closes exactly at item
  // (k+1)*window_size). Stamping early by one chunk's push time only
  // makes the measured latency conservatively larger.
  for (size_t k = 0; k < num_windows; ++k) {
    const std::vector<Triple> chunk = generator.Generate(window_size);
    close_times[k] = Clock::now();
    (*pipeline)->PushBatch(chunk);
  }
  (*pipeline)->Flush();

  const PipelineStats stats = (*pipeline)->stats();
  // Every window accounted for: reasoned or shed, nothing lost silently.
  EXPECT_EQ(stats.windows + stats.shed_windows(), num_windows);
  EXPECT_EQ(shed_tombstones, stats.shed_windows());
  EXPECT_EQ(stats.shed_items, stats.shed_windows() * window_size);
  EXPECT_DOUBLE_EQ(
      stats.completeness(),
      static_cast<double>(stats.windows * window_size) /
          static_cast<double>(num_windows * window_size));
  EXPECT_EQ(stats.errors, 0u);

  // Pushing a window takes microseconds, reasoning takes ≫ that with one
  // worker, so a 200-window full-speed burst must overflow the 2-deep
  // queue and shed.
  EXPECT_GT(stats.dropped_windows, 0u);

  // The latency bound: a delivered window waits behind at most the queue
  // (2) + in-flight worker windows (1) + its own reasoning, each at most
  // max_latency_ms — anything near num_windows × mean latency would mean
  // the shedding failed to bound the backlog. Generous 4× slack plus a
  // constant for scheduling noise keeps this off machine speed.
  ASSERT_FALSE(emit_latency_ms.empty());
  std::sort(emit_latency_ms.begin(), emit_latency_ms.end());
  const double p99 =
      emit_latency_ms[(emit_latency_ms.size() * 99) / 100 == 0
                          ? emit_latency_ms.size() - 1
                          : (emit_latency_ms.size() * 99) / 100 - 1];
  const double budget_windows =
      static_cast<double>(options.max_inflight_windows) + 2.0;
  EXPECT_LE(p99, 4.0 * budget_windows * stats.max_latency_ms + 500.0)
      << "p99 emit latency " << p99 << "ms vs max window latency "
      << stats.max_latency_ms << "ms";
}

// Sustained overload through the sharded engine with lossy async shards:
// Flush returns (tombstones release every merge slot), every global
// window is delivered in order, and the degradation counters agree with
// the per-shard shed accounting.
TEST_F(OverloadTest, ShardedSustainedOverloadNeverStalls) {
  StatusOr<Program> program = MakeTrafficProgram(
      symbols_, TrafficProgramVariant::kP, /*with_show=*/true);
  ASSERT_TRUE(program.ok());

  const size_t window_size = 400;
  const size_t num_windows = 100;
  BurstOptions burst;
  burst.shape = BurstShape::kSustained;
  burst.burst_intensity = 8.0;
  std::vector<Triple> stream = MakeTrafficBurstStream(
      *symbols_, num_windows * window_size, /*seed=*/11, burst);

  EngineConfig options;
  options.num_shards = 2;
  options.pipeline.window_size = window_size;
  options.pipeline.async = true;
  options.pipeline.num_reason_workers = 1;
  options.pipeline.max_inflight_windows = 2;
  options.pipeline.backpressure = BackpressurePolicy::kDropOldest;

  std::vector<uint64_t> sequences;
  StatusOr<std::unique_ptr<ShardedPipelineEngine>> engine =
      ShardedPipelineEngine::Create(
          &*program, options,
          [&](const TripleWindow& window, const ParallelReasonerResult&) {
            sequences.push_back(window.sequence);
          });
  ASSERT_TRUE(engine.ok()) << engine.status();
  (*engine)->PushBatch(stream);
  (*engine)->Flush();  // The stall-freedom assertion: this must return.

  ASSERT_EQ(sequences.size(), num_windows);
  for (size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], i);
  }

  const EngineStats stats = (*engine)->stats();
  EXPECT_EQ(stats.delivered_windows, num_windows);
  EXPECT_EQ(stats.delivery_errors, 0u);
  EXPECT_EQ(stats.shed_subwindows,
            stats.reasoning.dropped_windows + stats.reasoning.rejected_windows);
  // Full-speed push against 1-worker 2-deep shards must actually shed.
  EXPECT_GT(stats.shed_subwindows, 0u);
  EXPECT_GT(stats.degraded_windows, 0u);
  EXPECT_LT(stats.mean_completeness, 1.0);
  EXPECT_LE(stats.min_completeness, stats.mean_completeness);
  EXPECT_GT(stats.reasoning.shed_items, 0u);
}

// The bursty generator is deterministic and its overlay does what the
// shapes advertise: flash crowds only pace (items match the base stream),
// hot-key storms rewrite in-spike subjects onto the hot pool, sustained
// overload has no valleys.
TEST_F(OverloadTest, BurstyGeneratorShapesAreDeterministic) {
  const uint64_t seed = 99;
  const size_t items = 4000;
  BurstOptions flash;
  flash.shape = BurstShape::kFlashCrowd;
  flash.period = 1000;
  flash.burst_fraction = 0.25;
  flash.burst_intensity = 4.0;

  // Determinism: same seed and chunking → byte-identical streams.
  std::vector<Triple> a =
      MakeTrafficBurstGenerator(*symbols_, seed, flash).Generate(items);
  std::vector<Triple> b =
      MakeTrafficBurstGenerator(*symbols_, seed, flash).Generate(items);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));

  // Flash crowds are a pure pacing overlay: the items are the base stream.
  GeneratorOptions base_options;
  base_options.seed = seed;
  SyntheticStreamGenerator base(MakeTrafficSchema(*symbols_), base_options);
  const std::vector<Triple> base_items = base.GenerateWindow(items);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), base_items.begin()));

  BurstyStreamGenerator flash_generator =
      MakeTrafficBurstGenerator(*symbols_, seed, flash);
  EXPECT_TRUE(flash_generator.InBurst(0));
  EXPECT_TRUE(flash_generator.InBurst(249));
  EXPECT_FALSE(flash_generator.InBurst(250));
  EXPECT_FALSE(flash_generator.InBurst(999));
  EXPECT_TRUE(flash_generator.InBurst(1000));
  EXPECT_DOUBLE_EQ(flash_generator.IntensityAt(100), 4.0);
  EXPECT_DOUBLE_EQ(flash_generator.IntensityAt(500), 1.0);

  // Sustained: every position is in burst.
  BurstOptions sustained;
  sustained.shape = BurstShape::kSustained;
  sustained.burst_intensity = 2.5;
  BurstyStreamGenerator sustained_generator =
      MakeTrafficBurstGenerator(*symbols_, seed, sustained);
  EXPECT_TRUE(sustained_generator.InBurst(0));
  EXPECT_TRUE(sustained_generator.InBurst(123456));
  EXPECT_DOUBLE_EQ(sustained_generator.IntensityAt(42), 2.5);

  // Hot-key storm: in-spike subjects collapse onto the hot pool (values
  // offset by 1 << 20, pool size hot_subjects), valleys stay base.
  BurstOptions storm = flash;
  storm.shape = BurstShape::kHotKeyStorm;
  storm.hot_subjects = 2;
  storm.hot_fraction = 0.9;
  BurstyStreamGenerator storm_generator =
      MakeTrafficBurstGenerator(*symbols_, seed, storm);
  const std::vector<Triple> stormy = storm_generator.Generate(items);
  size_t in_burst = 0;
  size_t hot = 0;
  for (size_t i = 0; i < stormy.size(); ++i) {
    const bool is_hot = stormy[i].subject.is_integer() &&
                        stormy[i].subject.integer_value() >= (1 << 20);
    if (storm_generator.InBurst(i)) {
      ++in_burst;
      if (is_hot) {
        ++hot;
        EXPECT_LT(stormy[i].subject.integer_value(),
                  (1 << 20) + static_cast<int64_t>(storm.hot_subjects));
      }
    } else {
      // Valley items are untouched base items.
      EXPECT_FALSE(is_hot);
      EXPECT_EQ(stormy[i], base_items[i]);
    }
  }
  ASSERT_GT(in_burst, 0u);
  // ~90% of in-spike subjects are hot; 0.8 leaves generous slack.
  EXPECT_GT(static_cast<double>(hot), 0.8 * static_cast<double>(in_burst));
}

}  // namespace
}  // namespace streamasp
