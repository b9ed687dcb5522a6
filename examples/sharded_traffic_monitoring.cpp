// The traffic scenario on the sharded multi-pipeline engine, through the
// unified StreamEngine facade (num_shards >= 1): the stream is
// hash-partitioned by subject across several independent pipelines (each
// with its own windower, work queue and reasoner pool), and the
// ordered merge recombines per-shard answers so EmissionEvents still
// arrive in strict global window order — byte-identical to a single
// pipeline: subject sharding respects the traffic rules' dependencies,
// and the router broadcasts P'-duplicated predicates (car_number) to
// every shard so r7's cross-shard join survives hashing.
//
//   router (subject hash) -> N x [windower -> pool -> ordered drain]
//                         -> ordered merge -> EmissionEvents
//
// Usage: sharded_traffic_monitoring [window_size] [num_windows] [shards]

#include <cstdio>
#include <cstdlib>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace streamasp;

  const size_t window_size = argc > 1 ? std::atoi(argv[1]) : 4000;
  const size_t num_windows = argc > 2 ? std::atoi(argv[2]) : 6;
  const size_t shards = argc > 3 ? std::atoi(argv[3]) : 4;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.num_shards = shards;
  config.pipeline.window_size = window_size;
  config.pipeline.async = true;
  config.pipeline.max_inflight_windows = 4;
  // config.shard_key defaults to SubjectShardKey(); see
  // stream/shard_key.h and CommunityShardKey for alternatives.

  uint64_t total_events = 0;
  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &*program, config, [&](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) return;
        std::printf(
            "window %llu (%zu items): shard-parallel latency %.2f ms, "
            "%zu partitions, %zu answer(s)\n",
            static_cast<unsigned long long>(event.sequence),
            event.window->size(), event.result->latency_ms,
            event.result->num_partitions, event.result->answers.size());
        for (const GroundAnswer& answer : event.result->answers) {
          total_events += answer.size();
          std::printf("  events: %s\n",
                      AnswerToString(answer, *symbols).c_str());
        }
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("sharded engine: %zu shards\n", (*engine)->num_shards());

  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols),
                                     GeneratorOptions{});
  WallTimer wall;
  for (size_t i = 0; i < num_windows; ++i) {
    // The router only hashes and batches here; windowing and reasoning
    // happen on the shard threads while this loop keeps pushing.
    (*engine)->PushBatch(generator.GenerateWindow(window_size));
  }
  (*engine)->Flush();  // Drain every shard and the ordered merge.
  const double wall_ms = wall.ElapsedMillis();

  const EngineStats stats = (*engine)->stats();
  std::printf(
      "processed %llu global windows / %llu items in %.2f ms "
      "(%.0f triples/s, merge reorder peak %zu)\n",
      static_cast<unsigned long long>(stats.delivered_windows),
      static_cast<unsigned long long>(stats.reasoning.items), wall_ms,
      static_cast<double>(stats.reasoning.items) / (wall_ms / 1000.0),
      stats.max_merge_reorder_depth);
  for (size_t s = 0; s < stats.per_shard.size(); ++s) {
    std::printf(
        "  shard %zu: %llu items, %llu sub-windows, mean latency %.2f ms\n",
        s, static_cast<unsigned long long>(stats.routed_items[s]),
        static_cast<unsigned long long>(stats.per_shard[s].windows),
        stats.per_shard[s].mean_latency_ms());
  }
  std::printf("total detected events: %llu\n",
              static_cast<unsigned long long>(total_events));
  return 0;
}
