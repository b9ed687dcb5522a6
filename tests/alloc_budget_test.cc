// Allocation budget of the cold reasoning path. This binary replaces the
// global operator new with a counting one, warms one Reasoner up and then
// asserts a ceiling on heap allocations per input triple over P' windows —
// a deterministic work-per-triple gate, independent of host speed.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "stream/generator.h"
#include "streamrule/reasoner.h"
#include "streamrule/traffic_workload.h"

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace streamasp {
namespace {

constexpr size_t kWindowSize = 1000;
constexpr int kWarmupWindows = 5;
constexpr int kMeasuredWindows = 50;
/// The budget. A cold path that allocates per atom and per rule needs
/// about 12 per triple on these windows.
constexpr double kMaxAllocationsPerTriple = 3.0;
/// What the reused workspaces actually leave: allocations per window (the
/// result and its answers), not per triple. Without workspace reuse the
/// same windows cost about one allocation per triple.
constexpr double kMaxWarmAllocationsPerTriple = 0.25;

TEST(AllocBudgetTest, ReusedReasonerStaysWithinBudgetOnPPrimeWindows) {
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program = MakeTrafficProgram(
      symbols, TrafficProgramVariant::kPPrime, /*with_show=*/true);
  ASSERT_TRUE(program.ok()) << program.status();
  std::vector<StreamPredicate> schema = MakeTrafficSchema(*symbols);
  schema[1].weight = 2.0;  // car_number, the duplicated predicate of P'.
  GeneratorOptions generator_options;
  generator_options.seed = 13;
  SyntheticStreamGenerator generator(schema, generator_options);
  std::vector<TripleWindow> windows;
  for (int i = 0; i < kWarmupWindows + kMeasuredWindows; ++i) {
    windows.push_back(generator.GenerateTripleWindow(kWindowSize));
  }

  const Reasoner reasoner(&*program);
  for (int i = 0; i < kWarmupWindows; ++i) {
    ASSERT_TRUE(reasoner.Process(windows[i]).ok());
  }

  size_t allocations = 0;
  size_t triples = 0;
  size_t answer_atoms = 0;
  for (int i = kWarmupWindows; i < kWarmupWindows + kMeasuredWindows; ++i) {
    const size_t before = g_allocations.load(std::memory_order_relaxed);
    StatusOr<ReasonerResult> result = reasoner.Process(windows[i]);
    allocations += g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(result.ok()) << result.status();
    triples += windows[i].items.size();
    for (const GroundAnswer& answer : result->answers) {
      answer_atoms += answer.size();
    }
  }
  ASSERT_GT(answer_atoms, 0u) << "the windows must derive events";

  const double per_triple =
      static_cast<double>(allocations) / static_cast<double>(triples);
  std::printf("cold path: %.3f heap allocations per triple over %d windows\n",
              per_triple, kMeasuredWindows);
  EXPECT_LE(per_triple, kMaxAllocationsPerTriple);
  EXPECT_LE(per_triple, kMaxWarmAllocationsPerTriple);
}

}  // namespace
}  // namespace streamasp
