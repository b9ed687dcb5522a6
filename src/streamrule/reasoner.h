#ifndef STREAMASP_STREAMRULE_REASONER_H_
#define STREAMASP_STREAMRULE_REASONER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "asp/program.h"
#include "ground/grounder.h"
#include "ground/incremental_grounder.h"
#include "solve/incremental_solver.h"
#include "solve/solver.h"
#include "stream/format.h"
#include "stream/triple.h"
#include "streamrule/answer.h"
#include "util/status.h"

namespace streamasp {

/// Configuration of a reasoner instance.
struct ReasonerOptions {
  GroundingOptions grounding;
  SolverOptions solving;

  /// Apply the program's #show projection to the returned answers.
  bool project_to_shown = true;

  /// Reuse grounding across overlapping windows: the owning layer (the
  /// parallel reasoner) keeps one IncrementalGrounder per partition
  /// sub-stream and routes windows through the incremental Process
  /// overload instead of batch-grounding from scratch. Answers are
  /// unchanged (see ground/incremental_grounder.h); only the grounding
  /// work shrinks to the window delta.
  ///
  /// Solving reuse rides the same routing: with solving.reuse_solving set
  /// the owning layer pairs each partition grounder with a persistent
  /// IncrementalSolver fed by the grounder's GroundingDelta, and the
  /// grounder skips its per-window output assembly/simplification pass
  /// (the solver consumes the cached store directly). reuse_solving
  /// implies reuse_grounding; disjunctive programs keep the cold solve
  /// path (see solve/incremental_solver.h).
  bool reuse_grounding = false;

  /// Tuning for the incremental cache (used when reuse_grounding is set).
  IncrementalGroundingOptions incremental;
};

/// The outcome of reasoning over one window.
struct ReasonerResult {
  std::vector<GroundAnswer> answers;

  /// End-to-end latency in milliseconds, including RDF→ASP conversion as
  /// the paper requires, plus the breakdown.
  double latency_ms = 0;
  double convert_ms = 0;
  double ground_ms = 0;
  double solve_ms = 0;

  GroundingStats grounding;
  /// Solver reuse counters (all zero on the cold solve path).
  SolverStats solving;
};

/// The reasoner R of the StreamRule architecture (the dashed box of
/// Figure 1): data-format conversion + grounding + stable-model solving
/// over one whole input window.
///
/// The cold path (Process / ProcessFacts) prepares the program for
/// grounding once, at construction, and runs every window on a reused
/// workspace: fact buffer, grounding workspace and solve workspace,
/// cleared between windows rather than freed, so after warm-up a window
/// allocates little beyond its answers. Process() is const and safe to
/// call concurrently: each call checks a workspace out of a small
/// mutex-guarded free list (creating one when all are busy) and returns
/// it when done, so the reasoner keeps as many workspaces as it has seen
/// concurrent callers, each bounded by the largest window it has served.
/// The incremental overloads check out the same workspaces for their fact
/// and delta buffers and, without an IncrementalSolver, for the solve.
class Reasoner {
 public:
  /// `program` must outlive the reasoner. The data format processor is
  /// configured from the program's declared input predicates.
  Reasoner(const Program* program, ReasonerOptions options = {});
  ~Reasoner();

  Reasoner(const Reasoner&) = delete;
  Reasoner& operator=(const Reasoner&) = delete;

  /// Full pipeline on a triple window: convert → ground → solve.
  StatusOr<ReasonerResult> Process(const TripleWindow& window) const;

  /// Incremental variant: grounds through `grounder` (caller-owned, one
  /// per sub-stream, calls serialized by the caller), reusing the cached
  /// instantiation of the previous window. The window's expired/admitted
  /// delta (when present) is converted alongside the items and handed to
  /// the grounder as a diff hint. Passing a null grounder falls back to
  /// the batch path.
  ///
  /// `solver` optionally carries the paired persistent IncrementalSolver
  /// (same ownership and serialization contract as the grounder): when
  /// non-null, the solve phase patches it with the grounder's
  /// GroundingDelta instead of building a cold engine over the assembled
  /// output — pair it with a grounder whose assemble_output is off. Null
  /// keeps the cold Solver::Solve tail.
  StatusOr<ReasonerResult> Process(const TripleWindow& window,
                                   IncrementalGrounder* grounder,
                                   IncrementalSolver* solver = nullptr) const;

  /// Same pipeline when the caller already has ASP facts.
  StatusOr<ReasonerResult> ProcessFacts(const std::vector<Atom>& facts) const;

  /// Fact-level incremental variant; `delta` and `solver` may be null.
  StatusOr<ReasonerResult> ProcessFactsIncremental(
      uint64_t sequence, const std::vector<Atom>& facts,
      const IncrementalGrounder::FactDelta* delta,
      IncrementalGrounder* grounder,
      IncrementalSolver* solver = nullptr) const;

  const Program& program() const { return *program_; }

 private:
  /// Scratch of one caller (see the class comment).
  struct Workspace;

  /// Checks a workspace out of the free list, or makes a new one.
  std::unique_ptr<Workspace> AcquireWorkspace() const;
  void ReleaseWorkspace(std::unique_ptr<Workspace> workspace) const;

  /// The cold path on a checked-out workspace: ground + solve `facts`.
  StatusOr<ReasonerResult> ProcessColdFacts(const std::vector<Atom>& facts,
                                            Workspace* workspace) const;

  /// The incremental path on a checked-out workspace, whose solve buffers
  /// serve the cold solve tail when `solver` is null.
  StatusOr<ReasonerResult> ProcessIncrementalFacts(
      uint64_t sequence, const std::vector<Atom>& facts,
      const IncrementalGrounder::FactDelta* delta,
      IncrementalGrounder* grounder, IncrementalSolver* solver,
      Workspace* workspace) const;

  /// Shared solve + answer-extraction tail of the cold Process variants.
  Status SolveGround(const GroundProgram& ground, SolveWorkspace* workspace,
                     ReasonerResult* result) const;

  /// Warm tail: patches `solver` with the grounder's last delta and
  /// enumerates. A detectably out-of-sync mirror is repaired in place by
  /// invalidating both engines and regrounding the window once.
  Status SolveIncremental(uint64_t sequence, const std::vector<Atom>& facts,
                          IncrementalGrounder* grounder,
                          IncrementalSolver* solver,
                          ReasonerResult* result) const;

  /// Maps solver models (dense ids of `atoms`) to projected, normalized
  /// GroundAnswers in one pass per model: atoms outside the #show
  /// projection are filtered during extraction rather than copied and
  /// projected afterwards.
  void ExtractAnswers(const AtomTable& atoms,
                      const std::vector<AnswerSet>& models,
                      ReasonerResult* result) const;

  const Program* program_;
  ReasonerOptions options_;
  DataFormatProcessor format_;
  GroundingPlanPtr grounding_plan_;

  mutable std::mutex workspaces_mutex_;
  mutable std::vector<std::unique_ptr<Workspace>> idle_workspaces_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_REASONER_H_
