#include "streamrule/reasoner.h"

#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace streamasp {

struct Reasoner::Workspace {
  explicit Workspace(GroundingPlanPtr plan) : ground(std::move(plan)) {}

  std::vector<Atom> facts;
  IncrementalGrounder::FactDelta delta;  ///< Incremental path only.
  GroundingWorkspace ground;             ///< Cold path only.
  SolveWorkspace solve;
};

Reasoner::Reasoner(const Program* program, ReasonerOptions options)
    : program_(program),
      options_(options),
      grounding_plan_(PrepareGrounding(program)) {
  const Status status =
      format_.DeclareInputPredicates(program_->input_predicates());
  if (!status.ok()) {
    // Input predicates with arity > 2 cannot arrive as triples; such
    // programs can still be used via ProcessFacts.
    STREAMASP_LOG(kWarning) << "data format processor: " << status;
  }
}

Reasoner::~Reasoner() = default;

std::unique_ptr<Reasoner::Workspace> Reasoner::AcquireWorkspace() const {
  {
    std::lock_guard<std::mutex> lock(workspaces_mutex_);
    if (!idle_workspaces_.empty()) {
      std::unique_ptr<Workspace> workspace =
          std::move(idle_workspaces_.back());
      idle_workspaces_.pop_back();
      return workspace;
    }
  }
  return std::make_unique<Workspace>(grounding_plan_);
}

void Reasoner::ReleaseWorkspace(std::unique_ptr<Workspace> workspace) const {
  std::lock_guard<std::mutex> lock(workspaces_mutex_);
  idle_workspaces_.push_back(std::move(workspace));
}

StatusOr<ReasonerResult> Reasoner::Process(const TripleWindow& window) const {
  std::unique_ptr<Workspace> workspace = AcquireWorkspace();
  WallTimer total;
  WallTimer phase;
  const Status converted = format_.ToFacts(window.items, &workspace->facts);
  const double convert_ms = phase.ElapsedMillis();
  StatusOr<ReasonerResult> result =
      converted.ok() ? ProcessColdFacts(workspace->facts, workspace.get())
                     : StatusOr<ReasonerResult>(converted);
  ReleaseWorkspace(std::move(workspace));
  if (!result.ok()) return result.status();
  result->convert_ms = convert_ms;
  result->latency_ms = total.ElapsedMillis();
  return result;
}

StatusOr<ReasonerResult> Reasoner::Process(
    const TripleWindow& window, IncrementalGrounder* grounder,
    IncrementalSolver* solver) const {
  if (grounder == nullptr) return Process(window);
  std::unique_ptr<Workspace> workspace = AcquireWorkspace();
  WallTimer total;
  WallTimer phase;
  Status converted = format_.ToFacts(window.items, &workspace->facts);
  // The windower's delta (when present and not the first window) becomes
  // the grounder's diff hint; conversion of the delta counts as
  // conversion time, as the paper requires for all data transformation.
  // The hint is relative to the window named by delta_base — under load
  // shedding that may be further back than sequence-1 (folded deltas
  // net the change across the shed gap); the grounder/solver compare it
  // against their cached sequence and snapshot-diff on mismatch.
  const IncrementalGrounder::FactDelta* delta = nullptr;
  if (converted.ok() && window.has_delta &&
      window.delta_base != TripleWindow::kNoDeltaBase) {
    workspace->delta.previous_sequence = window.delta_base;
    converted = format_.ToFacts(window.expired, &workspace->delta.expired);
    if (converted.ok()) {
      converted = format_.ToFacts(window.admitted, &workspace->delta.admitted);
    }
    delta = &workspace->delta;
  }
  const double convert_ms = phase.ElapsedMillis();
  StatusOr<ReasonerResult> result =
      converted.ok()
          ? ProcessIncrementalFacts(window.sequence, workspace->facts, delta,
                                    grounder, solver, workspace.get())
          : StatusOr<ReasonerResult>(converted);
  ReleaseWorkspace(std::move(workspace));
  if (!result.ok()) return result.status();
  result->convert_ms = convert_ms;
  result->latency_ms = total.ElapsedMillis();
  return result;
}

StatusOr<ReasonerResult> Reasoner::ProcessFacts(
    const std::vector<Atom>& facts) const {
  std::unique_ptr<Workspace> workspace = AcquireWorkspace();
  StatusOr<ReasonerResult> result = ProcessColdFacts(facts, workspace.get());
  ReleaseWorkspace(std::move(workspace));
  return result;
}

StatusOr<ReasonerResult> Reasoner::ProcessFactsIncremental(
    uint64_t sequence, const std::vector<Atom>& facts,
    const IncrementalGrounder::FactDelta* delta,
    IncrementalGrounder* grounder, IncrementalSolver* solver) const {
  std::unique_ptr<Workspace> workspace = AcquireWorkspace();
  StatusOr<ReasonerResult> result = ProcessIncrementalFacts(
      sequence, facts, delta, grounder, solver, workspace.get());
  ReleaseWorkspace(std::move(workspace));
  return result;
}

StatusOr<ReasonerResult> Reasoner::ProcessColdFacts(
    const std::vector<Atom>& facts, Workspace* workspace) const {
  ReasonerResult result;
  WallTimer total;

  WallTimer phase;
  const Grounder grounder(options_.grounding);
  STREAMASP_RETURN_IF_ERROR(
      grounder.Ground(facts, &workspace->ground, &result.grounding));
  result.ground_ms = phase.ElapsedMillis();

  STREAMASP_RETURN_IF_ERROR(
      SolveGround(workspace->ground.ground(), &workspace->solve, &result));
  result.latency_ms = total.ElapsedMillis();
  return result;
}

StatusOr<ReasonerResult> Reasoner::ProcessIncrementalFacts(
    uint64_t sequence, const std::vector<Atom>& facts,
    const IncrementalGrounder::FactDelta* delta,
    IncrementalGrounder* grounder, IncrementalSolver* solver,
    Workspace* workspace) const {
  if (solver == nullptr && !grounder->assembles_output()) {
    // The cold tail would silently solve the never-assembled (stale or
    // empty) output program; fail loudly instead.
    return InvalidArgumentError(
        "grounder has assemble_output=false but no IncrementalSolver was "
        "supplied; pair the engines or enable output assembly");
  }
  ReasonerResult result;
  WallTimer total;

  WallTimer phase;
  STREAMASP_ASSIGN_OR_RETURN(
      const GroundProgram* ground,
      grounder->GroundWindow(sequence, facts, delta, &result.grounding));
  result.ground_ms = phase.ElapsedMillis();

  if (solver != nullptr) {
    STREAMASP_RETURN_IF_ERROR(
        SolveIncremental(sequence, facts, grounder, solver, &result));
  } else {
    STREAMASP_RETURN_IF_ERROR(
        SolveGround(*ground, &workspace->solve, &result));
  }
  result.latency_ms = total.ElapsedMillis();
  return result;
}

Status Reasoner::SolveGround(const GroundProgram& ground,
                             SolveWorkspace* workspace,
                             ReasonerResult* result) const {
  WallTimer phase;
  const Solver solver(options_.solving);
  STREAMASP_ASSIGN_OR_RETURN(std::vector<AnswerSet> models,
                             solver.Solve(ground, workspace));
  result->solve_ms = phase.ElapsedMillis();
  ExtractAnswers(ground.atoms(), models, result);
  return OkStatus();
}

Status Reasoner::SolveIncremental(uint64_t sequence,
                                  const std::vector<Atom>& facts,
                                  IncrementalGrounder* grounder,
                                  IncrementalSolver* solver,
                                  ReasonerResult* result) const {
  WallTimer phase;
  std::vector<AnswerSet> models;
  Status status = solver->SolveWindow(
      grounder->last_delta(), grounder->cached_rules(),
      grounder->atom_table().size(), &models, &result->solving);
  double reground_ms = 0;
  if (status.code() == StatusCode::kFailedPrecondition) {
    // The mirror lost sync with the grounder cache (a skipped or failed
    // window upstream). Repair in place: invalidate both engines and
    // reground this window — the rebuilt cache publishes a full_rebuild
    // delta the solver can always consume. Costs one full regrounding on
    // a path that normal operation never takes.
    STREAMASP_LOG(kWarning) << "window " << sequence
                            << ": incremental solver resync: " << status;
    grounder->Invalidate();
    solver->Invalidate();
    WallTimer reground;
    GroundingStats resync_grounding;
    STREAMASP_RETURN_IF_ERROR(
        grounder->GroundWindow(sequence, facts, nullptr, &resync_grounding)
            .status());
    // The repair grounding is ground-phase work on top of the window's
    // first grounding, not a replacement for its stats.
    result->grounding.Accumulate(resync_grounding);
    reground_ms = reground.ElapsedMillis();
    result->ground_ms += reground_ms;
    status = solver->SolveWindow(
        grounder->last_delta(), grounder->cached_rules(),
        grounder->atom_table().size(), &models, &result->solving);
  }
  STREAMASP_RETURN_IF_ERROR(status);
  result->solve_ms = phase.ElapsedMillis() - reground_ms;
  ExtractAnswers(grounder->atom_table(), models, result);
  return OkStatus();
}

void Reasoner::ExtractAnswers(const AtomTable& atoms,
                              const std::vector<AnswerSet>& models,
                              ReasonerResult* result) const {
  const std::vector<PredicateSignature>& shown =
      program_->shown_predicates();
  const bool project = options_.project_to_shown && !shown.empty();
  result->answers.reserve(models.size());
  for (const AnswerSet& model : models) {
    GroundAnswer answer;
    // A projected answer is usually a small slice of the model.
    if (!project) answer.reserve(model.atoms.size());
    for (GroundAtomId id : model.atoms) {
      if (project) {
        // Filter during extraction (same membership test ProjectAnswer
        // runs) on the packed signature, so only shown atoms are ever
        // rebuilt.
        const PredicateSignature signature = atoms.Signature(id);
        bool keep = false;
        for (const PredicateSignature& sig : shown) {
          if (signature == sig) {
            keep = true;
            break;
          }
        }
        if (!keep) continue;
      }
      answer.push_back(atoms.GetAtom(id));
    }
    NormalizeAnswer(&answer);
    result->answers.push_back(std::move(answer));
  }
}

}  // namespace streamasp
