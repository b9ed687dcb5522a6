// Shared harness for the figure-reproduction benches (Figures 7-10 of the
// paper). Each bench binary prints the same series the paper plots:
// reasoning latency and accuracy as functions of the window size, for the
// whole-window reasoner R, the dependency-partitioned reasoner PR_Dep and
// the random-partitioning baselines PR_Ran_k2..k5.
//
// Latency note (the caveat in docs/benchmarks.md): the paper measured an
// 8-core machine; on boxes with fewer cores the wall time of the parallel
// phase is partially serialized, so the harness reports the
// hardware-independent critical-path latency (partition + slowest
// partition + combine) as the PR series, alongside the measured wall time.

#ifndef STREAMASP_BENCH_FIGURE_COMMON_H_
#define STREAMASP_BENCH_FIGURE_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "depgraph/decomposition.h"
#include "stream/generator.h"
#include "streamrule/accuracy.h"
#include "streamrule/parallel_reasoner.h"
#include "streamrule/random_partitioner.h"
#include "streamrule/traffic_workload.h"

namespace streamasp::bench {

/// One measured point of a figure (all values averaged over repetitions).
struct FigurePoint {
  size_t window_size = 0;
  double r_latency_ms = 0;
  double pr_dep_latency_ms = 0;        // Critical path.
  double pr_dep_wall_ms = 0;           // Measured on this machine.
  double pr_dep_accuracy = 0;
  std::vector<double> pr_ran_latency_ms;  // k = 2..5, critical path.
  std::vector<double> pr_ran_accuracy;    // k = 2..5.
  double duplication_share = 0;  // (partition items - window) / window.
};

struct FigureConfig {
  TrafficProgramVariant variant = TrafficProgramVariant::kP;
  std::vector<size_t> window_sizes = {5000,  10000, 15000, 20000,
                                      25000, 30000, 35000, 40000};
  int repetitions = 3;
  uint64_t seed = 2017;  // ICDE 2017.
  /// Weight of car_number in the stream; 5/3 against five 1.0-weight
  /// predicates puts its share at 25%, the paper's quoted duplicated-
  /// instance share for P'.
  double car_number_weight = 5.0 / 3.0;
};

inline std::vector<FigurePoint> RunFigure(const FigureConfig& config) {
  SymbolTablePtr symbols = MakeSymbolTable();
  StatusOr<Program> program =
      MakeTrafficProgram(symbols, config.variant, /*with_show=*/true);
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    std::exit(1);
  }
  StatusOr<InputDependencyGraph> graph =
      InputDependencyGraph::Build(*program);
  StatusOr<PartitioningPlan> plan = DecomposeInputDependencyGraph(*graph);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    std::exit(1);
  }

  std::vector<StreamPredicate> schema = MakeTrafficSchema(*symbols);
  for (StreamPredicate& shape : schema) {
    if (symbols->NameOf(shape.predicate) == "car_number") {
      shape.weight = config.car_number_weight;
    }
  }

  Reasoner r(&*program);
  ParallelReasoner pr(&*program, *plan);

  std::vector<FigurePoint> points;
  for (size_t window_size : config.window_sizes) {
    FigurePoint point;
    point.window_size = window_size;
    point.pr_ran_latency_ms.assign(4, 0.0);
    point.pr_ran_accuracy.assign(4, 0.0);

    for (int rep = 0; rep < config.repetitions; ++rep) {
      GeneratorOptions gen_options;
      gen_options.seed = config.seed + rep;
      SyntheticStreamGenerator generator(schema, gen_options);
      const TripleWindow window =
          generator.GenerateTripleWindow(window_size);

      StatusOr<ReasonerResult> reference = r.Process(window);
      StatusOr<ParallelReasonerResult> dep = pr.Process(window);
      if (!reference.ok() || !dep.ok()) {
        std::fprintf(stderr, "reasoning failed: %s / %s\n",
                     reference.status().ToString().c_str(),
                     dep.status().ToString().c_str());
        std::exit(1);
      }
      point.r_latency_ms += reference->latency_ms;
      point.pr_dep_latency_ms += dep->critical_path_ms;
      point.pr_dep_wall_ms += dep->latency_ms;
      point.pr_dep_accuracy +=
          MeanAccuracy(dep->answers, reference->answers);
      point.duplication_share +=
          static_cast<double>(dep->total_partition_items - window.size()) /
          static_cast<double>(window.size());

      for (size_t k = 2; k <= 5; ++k) {
        RandomPartitioner random(k, config.seed + rep * 31 + k);
        StatusOr<ParallelReasonerResult> ran =
            pr.ProcessPartitions(random.Partition(window.items));
        if (!ran.ok()) {
          std::fprintf(stderr, "random run failed: %s\n",
                       ran.status().ToString().c_str());
          std::exit(1);
        }
        point.pr_ran_latency_ms[k - 2] += ran->critical_path_ms;
        point.pr_ran_accuracy[k - 2] +=
            MeanAccuracy(ran->answers, reference->answers);
      }
    }

    const double reps = config.repetitions;
    point.r_latency_ms /= reps;
    point.pr_dep_latency_ms /= reps;
    point.pr_dep_wall_ms /= reps;
    point.pr_dep_accuracy /= reps;
    point.duplication_share /= reps;
    for (double& v : point.pr_ran_latency_ms) v /= reps;
    for (double& v : point.pr_ran_accuracy) v /= reps;
    points.push_back(point);
  }
  return points;
}

}  // namespace streamasp::bench

#endif  // STREAMASP_BENCH_FIGURE_COMMON_H_
