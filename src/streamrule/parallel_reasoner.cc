#include "streamrule/parallel_reasoner.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace streamasp {

namespace {

size_t ResolveThreadCount(size_t requested) {
  return requested != 0 ? requested : DefaultThreadCount();
}

/// Resolves the reuse knobs once, before any engine is built: solving
/// reuse implies grounding reuse (the solver patch is the incremental
/// grounder's delta) and lets the grounder skip per-window output
/// assembly (the solver consumes the cached store directly). Disjunctive
/// programs keep the cold solve path — their shifted rules would break
/// the solver's 1:1 store-slot mirroring (see solve/incremental_solver.h).
ReasonerOptions ResolveReuseOptions(const Program* program,
                                    ReasonerOptions options) {
  if (!options.solving.reuse_solving) return options;
  for (const Rule& rule : program->rules()) {
    if (rule.head().size() > 1) {
      STREAMASP_LOG(kWarning)
          << "reuse_solving disabled: program has disjunctive rules";
      options.solving.reuse_solving = false;
      return options;
    }
  }
  options.reuse_grounding = true;
  options.incremental.assemble_output = false;
  return options;
}

}  // namespace

ParallelReasoner::ParallelReasoner(const Program* program,
                                   PartitioningPlan plan,
                                   ParallelReasonerOptions options)
    : program_(program),
      reasoner_options_(ResolveReuseOptions(program, options.reasoner)),
      handler_(std::move(plan)),
      combiner_(options.combining),
      reasoner_(program, reasoner_options_) {
  const size_t threads = ResolveThreadCount(options.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

StatusOr<ParallelReasonerResult> ParallelReasoner::Process(
    const TripleWindow& window) {
  WallTimer total;
  WallTimer phase;
  std::vector<std::vector<Triple>> partitions =
      handler_.Partition(window.items);

  StatusOr<ParallelReasonerResult> result{InternalError("not run")};
  if (reasoner_options_.reuse_grounding) {
    // Partition the delta with the same routing as the items: the
    // per-item mapping is pure, so partition i's expired/admitted are
    // exactly the delta of partition i's sub-stream.
    std::vector<TripleWindow> sub_windows(partitions.size());
    std::vector<std::vector<Triple>> expired;
    std::vector<std::vector<Triple>> admitted;
    if (window.has_delta) {
      // Auxiliary views of items already counted via window.items: don't
      // re-count strays.
      expired = handler_.Partition(window.expired, /*count_strays=*/false);
      admitted = handler_.Partition(window.admitted, /*count_strays=*/false);
    }
    for (size_t i = 0; i < partitions.size(); ++i) {
      sub_windows[i].sequence = window.sequence;
      sub_windows[i].items = std::move(partitions[i]);
      if (window.has_delta) {
        sub_windows[i].has_delta = true;
        sub_windows[i].delta_base = window.delta_base;
        sub_windows[i].expired = std::move(expired[i]);
        sub_windows[i].admitted = std::move(admitted[i]);
      }
    }
    const double partition_ms = phase.ElapsedMillis();
    std::lock_guard<std::mutex> lock(incremental_mutex_);
    result = RunIncrementalWindows(sub_windows);
    if (!result.ok()) return result.status();
    result->partition_ms = partition_ms;
  } else {
    const double partition_ms = phase.ElapsedMillis();
    result = RunPartitions(partitions);
    if (!result.ok()) return result.status();
    result->partition_ms = partition_ms;
  }
  result->latency_ms = total.ElapsedMillis();
  return result;
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessFacts(
    const std::vector<Atom>& facts) {
  WallTimer total;
  WallTimer phase;
  const std::vector<std::vector<Atom>> partitions =
      handler_.PartitionFacts(facts);
  const double partition_ms = phase.ElapsedMillis();

  STREAMASP_ASSIGN_OR_RETURN(ParallelReasonerResult result,
                             RunPartitions(partitions));
  result.partition_ms = partition_ms;
  result.latency_ms = total.ElapsedMillis();
  return result;
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessPartitions(
    const std::vector<std::vector<Triple>>& partitions) {
  WallTimer total;
  STREAMASP_ASSIGN_OR_RETURN(ParallelReasonerResult result,
                             RunPartitions(partitions));
  result.latency_ms = total.ElapsedMillis();
  return result;
}

StatusOr<ParallelReasonerResult> ParallelReasoner::ProcessFactPartitions(
    const std::vector<std::vector<Atom>>& partitions) {
  WallTimer total;
  STREAMASP_ASSIGN_OR_RETURN(ParallelReasonerResult result,
                             RunPartitions(partitions));
  result.latency_ms = total.ElapsedMillis();
  return result;
}

template <typename Item>
StatusOr<ParallelReasonerResult> ParallelReasoner::RunPartitions(
    const std::vector<std::vector<Item>>& partitions) {
  ParallelReasonerResult result;
  result.num_partitions = partitions.size();
  for (const auto& partition : partitions) {
    result.total_partition_items += partition.size();
  }

  WallTimer phase;
  std::vector<StatusOr<ReasonerResult>> outcomes(
      partitions.size(), StatusOr<ReasonerResult>(InternalError("not run")));
  // Batch-wait rather than WaitIdle so concurrent Process calls on one
  // reasoner (or other users of a shared pool) cannot extend each other's
  // waits or steal each other's completion signal.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    tasks.push_back([this, &partitions, &outcomes, i] {
      if constexpr (std::is_same_v<Item, Triple>) {
        TripleWindow window;
        window.items = partitions[i];
        outcomes[i] = reasoner_.Process(window);
      } else {
        outcomes[i] = reasoner_.ProcessFacts(partitions[i]);
      }
    });
  }
  RunTasks(std::move(tasks));
  result.reason_ms = phase.ElapsedMillis();
  return FinishOutcomes(std::move(outcomes), std::move(result));
}

StatusOr<ParallelReasonerResult> ParallelReasoner::RunIncrementalWindows(
    const std::vector<TripleWindow>& sub_windows) {
  // One engine per partition, made on the first window that reaches it
  // (an empty plan still yields one fallback partition).
  while (partition_grounders_.size() < sub_windows.size()) {
    partition_grounders_.push_back(std::make_unique<IncrementalGrounder>(
        program_, reasoner_options_.grounding,
        reasoner_options_.incremental));
  }
  if (reasoner_options_.solving.reuse_solving) {
    while (partition_solvers_.size() < sub_windows.size()) {
      partition_solvers_.push_back(
          std::make_unique<IncrementalSolver>(reasoner_options_.solving));
    }
  }

  ParallelReasonerResult result;
  result.num_partitions = sub_windows.size();
  for (const TripleWindow& sub : sub_windows) {
    result.total_partition_items += sub.items.size();
  }

  WallTimer phase;
  std::vector<StatusOr<ReasonerResult>> outcomes(
      sub_windows.size(), StatusOr<ReasonerResult>(InternalError("not run")));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(sub_windows.size());
  for (size_t i = 0; i < sub_windows.size(); ++i) {
    tasks.push_back([this, &sub_windows, &outcomes, i] {
      IncrementalSolver* solver = reasoner_options_.solving.reuse_solving
                                      ? partition_solvers_[i].get()
                                      : nullptr;
      outcomes[i] = reasoner_.Process(sub_windows[i],
                                      partition_grounders_[i].get(), solver);
    });
  }
  RunTasks(std::move(tasks));
  result.reason_ms = phase.ElapsedMillis();
  return FinishOutcomes(std::move(outcomes), std::move(result));
}

void ParallelReasoner::RunTasks(std::vector<std::function<void()>> tasks) {
  if (pool_ != nullptr) {
    pool_->SubmitAndWaitAll(std::move(tasks));
    return;
  }
  // Inline mode: run the batch sequentially with SubmitAndWaitAll's
  // semantics — every task runs even after a failure (later tasks write
  // outcome slots the caller will read), first exception rethrown last.
  std::exception_ptr first_error;
  for (std::function<void()>& task : tasks) {
    try {
      task();
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

StatusOr<ParallelReasonerResult> ParallelReasoner::FinishOutcomes(
    std::vector<StatusOr<ReasonerResult>> outcomes,
    ParallelReasonerResult result) {
  std::vector<std::vector<GroundAnswer>> per_partition;
  per_partition.reserve(outcomes.size());
  result.partition_latency_ms.reserve(outcomes.size());
  for (StatusOr<ReasonerResult>& outcome : outcomes) {
    if (!outcome.ok()) return outcome.status();
    result.partition_latency_ms.push_back(outcome->latency_ms);
    result.grounding.Accumulate(outcome->grounding);
    result.solving.Accumulate(outcome->solving);
    result.ground_ms += outcome->ground_ms;
    result.solve_ms += outcome->solve_ms;
    per_partition.push_back(std::move(outcome->answers));
  }

  WallTimer phase;
  STREAMASP_ASSIGN_OR_RETURN(result.answers,
                             combiner_.Combine(per_partition));
  result.combine_ms = phase.ElapsedMillis();

  double slowest = 0;
  for (double ms : result.partition_latency_ms) {
    slowest = std::max(slowest, ms);
  }
  result.critical_path_ms =
      result.partition_ms + slowest + result.combine_ms;
  return result;
}

}  // namespace streamasp
