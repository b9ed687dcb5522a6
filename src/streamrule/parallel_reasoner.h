#ifndef STREAMASP_STREAMRULE_PARALLEL_REASONER_H_
#define STREAMASP_STREAMRULE_PARALLEL_REASONER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "depgraph/partitioning_plan.h"
#include "streamrule/combining_handler.h"
#include "streamrule/partitioning_handler.h"
#include "streamrule/reasoner.h"
#include "util/thread_pool.h"

namespace streamasp {

/// Configuration of the parallel reasoner.
struct ParallelReasonerOptions {
  ReasonerOptions reasoner;
  CombiningOptions combining;

  /// Worker threads; 0 uses std::thread::hardware_concurrency(). 1 is
  /// the inline mode: no inner ThreadPool is spawned at all — partitions
  /// run sequentially on the calling thread. That is how reasoners hosted
  /// on a SharedReasonerPool worker stay deadlock-free (they never wait
  /// on a pool from a pool task) and how single-threaded configurations
  /// avoid paying a context switch per partition.
  size_t num_threads = 0;
};

/// The outcome of parallel reasoning over one window.
struct ParallelReasonerResult {
  std::vector<GroundAnswer> answers;

  /// Exact completeness of this window's input: the fraction of admitted
  /// items that were actually reasoned (accuracy.h CompletenessRatio).
  /// Always 1.0 from the reasoner itself; the sharded engine's merge
  /// lowers it when tombstoned (shed) sub-windows contributed to the
  /// merged global window. Exactly 1.0 when nothing was shed.
  double completeness = 1.0;

  /// End-to-end measured wall latency (partitioning + parallel reasoning +
  /// combining). On a machine with at least as many free cores as
  /// partitions this approaches critical_path_ms; on fewer cores the
  /// parallel phase is partially serialized.
  double latency_ms = 0;
  double partition_ms = 0;
  double reason_ms = 0;   ///< Wall time of the parallel phase.
  double combine_ms = 0;

  /// Hardware-independent parallel latency: partition_ms + the slowest
  /// partition's reasoner latency + combine_ms. This is the quantity the
  /// paper's 8-core testbed measures as "reasoning latency of PR"; the
  /// figure harnesses report it alongside the measured wall time (see
  /// the latency caveat in docs/benchmarks.md).
  double critical_path_ms = 0;

  size_t num_partitions = 0;
  /// Per-partition reasoner latencies (same order as partitions).
  std::vector<double> partition_latency_ms;
  /// Sum of partition sizes; exceeds the window size exactly by the
  /// duplicated items (paper §IV: "the average percentage of instances of
  /// the duplicated predicate in a window is 25%").
  size_t total_partition_items = 0;

  /// Grounding counters summed over the window's partitions, including
  /// the incremental reuse counters when reuse_grounding is enabled.
  GroundingStats grounding;

  /// Solver reuse counters summed over the window's partitions (all zero
  /// unless reuse_solving is enabled).
  SolverStats solving;

  /// Grounding / solving phase time summed over the window's partitions
  /// (CPU-ish totals, not wall time — partitions run concurrently). The
  /// benches report these so the reuse gates can compare phase cost
  /// independently of pipeline overhead.
  double ground_ms = 0;
  double solve_ms = 0;
};

/// The reasoner PR of the extended StreamRule architecture (the grey box
/// of Figure 6): partitioning handler → n parallel copies of reasoner R
/// (each over the full program but only its sub-window) → combining
/// handler.
///
/// Thread-safety: Process and its variants keep no per-call mutable state
/// (the handlers are immutable, Reasoner is thread-compatible), so
/// concurrent calls on one instance are safe — they share the inner
/// ThreadPool, and SubmitAndWaitAll gives each call batch semantics, so
/// concurrent windows interleave at task granularity rather than corrupt
/// each other. With reuse_grounding set, Process additionally serializes
/// whole windows on an internal mutex: the per-partition incremental
/// grounders are stateful, and interleaving two windows through one cache
/// would corrupt its window-to-window diff. (The async and sharded
/// engines give every running window its own ParallelReasoner slot, so
/// the mutex is uncontended there.)
///
/// Nesting constraint (see util/thread_pool.h): Process blocks on futures
/// of tasks submitted to the instance's OWN pool. Never call Process from
/// a task running on that same pool — with every pool worker blocked in
/// such a call, the partition tasks that would unblock them can never be
/// scheduled. Callers that fan out windows across threads (the async
/// engine's pool tasks, the sharded engine's shards) therefore give each
/// concurrent window its own ParallelReasoner, so every wait targets the
/// pool one level below the waiter. With num_threads == 1 there is no inner
/// pool at all (partitions run inline on the caller), which is how
/// reasoners hosted on SharedReasonerPool workers satisfy the constraint
/// trivially.
class ParallelReasoner {
 public:
  /// Dependency-guided mode: partitions follow `plan` (built by
  /// DecomposeInputDependencyGraph at design time). `program` must outlive
  /// the reasoner.
  ParallelReasoner(const Program* program, PartitioningPlan plan,
                   ParallelReasonerOptions options = {});

  /// Full PR pipeline over a triple window. With reuse_grounding set the
  /// per-partition grounding reuses the previous window's instantiation:
  /// the window's expired/admitted delta (when the windower emitted one)
  /// is partitioned alongside the items, so each partition's incremental
  /// grounder receives its own sub-stream delta. Delta splitting nests:
  /// under the sharded engine's sliding global windows the window
  /// arriving here is already one shard's routed slice (router delta
  /// punctuation), and the per-partition split applied on top keeps each
  /// grounder's delta exactly its sub-sub-stream's — both splits are
  /// per-item and pure, so they compose. The reuse counters
  /// (ReasonerResult → ParallelReasonerResult) flow identically on the
  /// single-pipeline and sharded sliding paths.
  StatusOr<ParallelReasonerResult> Process(const TripleWindow& window);

  /// PR pipeline over a window already converted to facts. Always batch
  /// grounding (no sequence/delta information at this level).
  StatusOr<ParallelReasonerResult> ProcessFacts(
      const std::vector<Atom>& facts);

  /// Reasons over externally produced partitions — how the PR_Ran_k
  /// baselines of Figures 7–10 are run (RandomPartitioner output goes
  /// here). Partitioning time is reported as 0.
  StatusOr<ParallelReasonerResult> ProcessPartitions(
      const std::vector<std::vector<Triple>>& partitions);

  /// Fact-level variant of ProcessPartitions.
  StatusOr<ParallelReasonerResult> ProcessFactPartitions(
      const std::vector<std::vector<Atom>>& partitions);

  const PartitioningHandler& partitioning_handler() const { return handler_; }

 private:
  template <typename Item>
  StatusOr<ParallelReasonerResult> RunPartitions(
      const std::vector<std::vector<Item>>& partitions);

  /// Reuse path: one sub-window (with delta) per partition, each grounded
  /// through its own IncrementalGrounder. Caller holds incremental_mutex_.
  StatusOr<ParallelReasonerResult> RunIncrementalWindows(
      const std::vector<TripleWindow>& sub_windows);

  /// Shared tail: collect per-partition outcomes, combine answers,
  /// aggregate grounding stats, compute the critical path.
  StatusOr<ParallelReasonerResult> FinishOutcomes(
      std::vector<StatusOr<ReasonerResult>> outcomes,
      ParallelReasonerResult result);

  /// Runs a partition-task batch: on the inner pool when one exists,
  /// sequentially inline otherwise — same batch semantics either way
  /// (every task runs; the first exception is rethrown after all do).
  void RunTasks(std::vector<std::function<void()>> tasks);

  const Program* program_;
  ReasonerOptions reasoner_options_;
  PartitioningHandler handler_;
  CombiningHandler combiner_;
  Reasoner reasoner_;
  /// Null in inline mode (num_threads resolves to 1).
  std::unique_ptr<ThreadPool> pool_;

  /// Per-partition incremental grounders (reuse_grounding only) and their
  /// paired persistent solvers (reuse_solving only — same routing, one
  /// engine per partition), plus the mutex that serializes whole windows
  /// through them.
  std::mutex incremental_mutex_;
  std::vector<std::unique_ptr<IncrementalGrounder>> partition_grounders_;
  std::vector<std::unique_ptr<IncrementalSolver>> partition_solvers_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_PARALLEL_REASONER_H_
