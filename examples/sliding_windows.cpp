// Demonstrates count-based sliding windows on top of the paper's tumbling
// tuple-based windows: the StreamEngine facade with window_size 3000 and
// window_slide 500 re-reasons the overlapping suffix every 500 items.
// Each emitted window carries its expired/admitted delta, which
// reuse_grounding / reuse_solving turn into delta-sized per-window work.
//
// Usage: sliding_windows

#include <cstdio>

#include "stream/generator.h"
#include "streamrule/engine.h"
#include "streamrule/traffic_workload.h"

int main() {
  using namespace streamasp;

  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kP, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  EngineConfig config;
  config.pipeline.window_size = 3000;
  config.pipeline.window_slide = 500;
  config.pipeline.reuse_solving = true;

  StatusOr<std::unique_ptr<StreamEngine>> engine = StreamEngine::Create(
      &*program, config, [](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) return;
        size_t events = 0;
        for (const GroundAnswer& answer : event.result->answers) {
          events += answer.size();
        }
        std::printf(
            "window %llu: %zu items (-%zu +%zu), %.2f ms, %zu event(s)\n",
            static_cast<unsigned long long>(event.sequence),
            event.window->size(), event.window->expired.size(),
            event.window->admitted.size(), event.result->latency_ms, events);
      });
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  std::printf("== count-based sliding window (size 3000, slide 500) ==\n");
  SyntheticStreamGenerator generator(MakeTrafficSchema(*symbols), {});
  (*engine)->PushBatch(generator.GenerateWindow(6000));
  (*engine)->Flush();

  const EngineStats stats = (*engine)->stats();
  std::printf("%llu windows, %llu reused partition solves\n",
              static_cast<unsigned long long>(stats.delivered_windows),
              static_cast<unsigned long long>(
                  stats.reasoning.incremental_solve_windows));
  return 0;
}
