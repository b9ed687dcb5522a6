#ifndef STREAMASP_GROUND_GROUNDER_H_
#define STREAMASP_GROUND_GROUNDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "asp/program.h"
#include "ground/ground_program.h"
#include "util/status.h"

namespace streamasp {

/// Tuning knobs for grounding.
struct GroundingOptions {
  /// Apply equivalence-preserving simplification: definite facts are
  /// removed from positive bodies, rules with a definitely-true
  /// negative-body atom (or a definitely-true head atom) are dropped, and
  /// negative literals on underivable atoms are erased. Stable models are
  /// preserved exactly; the solver just gets a (often dramatically)
  /// smaller program. Mirrors what Clingo's grounder does.
  ///
  /// The cold Grounder does most of this during instantiation: an
  /// instance whose head is certain (true in every answer set) is folded
  /// into a fact rather than stored, and one negating a certain atom is
  /// dropped (see Grounder). A stratified program then grounds to facts
  /// alone, which Solver::Solve answers without search. Off, every raw
  /// instance is emitted: the reference the differential tests use.
  bool simplify = true;

  /// Safety valve on the number of ground rule instantiations; grounding
  /// fails with kResourceExhausted beyond this. Programs with function
  /// symbols can otherwise diverge.
  size_t max_ground_rules = 50'000'000;
};

/// Counters describing one grounding run (also used by benchmarks).
/// Returned by value per call — Grounder and IncrementalGrounder keep no
/// shared mutable stats state, so concurrent Ground calls cannot race.
struct GroundingStats {
  size_t num_atoms = 0;          ///< Interned ground atoms.
  size_t num_rules = 0;          ///< Rules of the output program.
  /// Instances matched before simplify: stored, folded into facts,
  /// blocked or seeded (the input and program facts).
  size_t num_rules_raw = 0;
  size_t num_facts = 0;          ///< Output rules that are definite facts.
  size_t num_constraints = 0;    ///< Ground integrity constraints.

  // --- incremental reuse counters (all zero for a batch Grounder run; see
  // ground/incremental_grounder.h) ---
  size_t rules_retained = 0;   ///< Cached ground rules carried over.
  size_t rules_retracted = 0;  ///< Cached rules dropped with expired facts.
  size_t rules_new = 0;        ///< Rules instantiated from admitted facts.
  size_t incremental_windows = 0;   ///< Calls that reused the cache.
  size_t incremental_fallbacks = 0; ///< Calls that reground from scratch.

  /// Approximate bytes retained by the run's AtomTable (atom payloads,
  /// packed-argument mirror, intern index) — the grounding side of the
  /// pipeline's bytes-per-triple counter. Per-partition tables are
  /// disjoint, so Accumulate sums.
  size_t atom_table_bytes = 0;

  /// Field-wise accumulation (max-free: every counter is additive), used
  /// when aggregating per-partition stats into a per-window total.
  void Accumulate(const GroundingStats& other) {
    num_atoms += other.num_atoms;
    num_rules += other.num_rules;
    num_rules_raw += other.num_rules_raw;
    num_facts += other.num_facts;
    num_constraints += other.num_constraints;
    rules_retained += other.rules_retained;
    rules_retracted += other.rules_retracted;
    rules_new += other.rules_new;
    incremental_windows += other.incremental_windows;
    incremental_fallbacks += other.incremental_fallbacks;
    atom_table_bytes += other.atom_table_bytes;
  }
};

class GroundingPlan;

/// A program prepared for repeated grounding — validation, the predicate
/// registry, the SCC schedule and the compiled rules — built once by
/// PrepareGrounding. Immutable, so any number of workspaces (and
/// threads) share one; each IncrementalGrounder builds its own.
using GroundingPlanPtr = std::shared_ptr<const GroundingPlan>;

/// Prepares `program`, which must outlive the plan. A program that fails
/// validation still yields a plan; every Ground call on it returns the
/// validation error.
GroundingPlanPtr PrepareGrounding(const Program* program);

/// Per-caller state of the cold Grounder for one prepared program: the
/// output program (atom table + rules), the predicate extensions with
/// their join indexes, the match scratch and the simplification buffers.
/// Everything is cleared, not freed, at the start of each Ground call, so
/// a workspace reused across windows stops allocating once it has seen
/// its largest window, and retains no more than that window needed.
/// One caller at a time; callers running concurrently each keep their
/// own workspace over a shared plan.
class GroundingWorkspace {
 public:
  explicit GroundingWorkspace(GroundingPlanPtr plan);
  ~GroundingWorkspace();
  GroundingWorkspace(GroundingWorkspace&&) noexcept;
  GroundingWorkspace& operator=(GroundingWorkspace&&) noexcept;

  /// The program grounded by the last successful Ground call on this
  /// workspace, valid until the next call (unspecified after a failed
  /// one).
  const GroundProgram& ground() const;

  /// Moves the last grounded program out; the workspace stays usable.
  GroundProgram TakeGround();

 private:
  friend class Grounder;
  class Engine;
  std::unique_ptr<Engine> engine_;
};

/// Bottom-up instantiator: turns a (safe) non-ground program plus input
/// facts into an equivalent GroundProgram.
///
/// The algorithm follows Calimeri/Perri/Ricca's dependency-driven scheme
/// (the same family Clingo and DLV use):
///   1. build the predicate dependency graph (body -> head; mutual edges
///      between disjunctive head predicates),
///   2. condense it into strongly connected components, topologically
///      ordered,
///   3. instantiate each component bottom-up with semi-naive evaluation,
///      so recursive rules only re-fire on newly derived atoms,
///   4. optionally simplify (see GroundingOptions::simplify).
///
/// Negative literals whose predicate is fully evaluated (earlier
/// component) are resolved eagerly: underivable atoms delete the literal.
/// Negation within a component (unstratified programs) is left to the
/// solver, which is what makes the pipeline complete for arbitrary normal
/// programs rather than just stratified ones.
///
/// With simplify on, the grounder also tracks which atoms are *certain*:
/// input and program facts, and the single head of an instance whose
/// positive body is all certain and whose negative literals were all
/// deleted. Such instances are folded into facts instead of stored, and a
/// negative literal on a certain atom of a finished component drops its
/// whole instance (the head is not even interned). Disjunctive heads and
/// constraints never fold. The output lists one fact per certain atom in
/// ascending id order, then the residual instances, which alone go
/// through the simplifier. Every matched instance, folded or not, counts
/// toward max_ground_rules. See ARCHITECTURE.md, "Certain atoms in the
/// cold grounder".
class Grounder {
 public:
  explicit Grounder(GroundingOptions options = {}) : options_(options) {}

  /// Grounds `program` (whose rules may include facts). When `stats` is
  /// non-null it receives this call's counters — per-call snapshot
  /// semantics, so concurrent Ground calls on one Grounder never race.
  StatusOr<GroundProgram> Ground(const Program& program,
                                 GroundingStats* stats = nullptr) const;

  /// Grounds `program` extended with `input_facts` (the reasoner's window
  /// contents). The facts must be ground atoms.
  StatusOr<GroundProgram> Ground(const Program& program,
                                 const std::vector<Atom>& input_facts,
                                 GroundingStats* stats = nullptr) const;

  /// Grounds the workspace's program extended with `input_facts` into
  /// `workspace` (see GroundingWorkspace::ground()), reusing its capacity.
  /// The overloads above are exactly this call on a throwaway workspace
  /// over a fresh plan.
  Status Ground(const std::vector<Atom>& input_facts,
                GroundingWorkspace* workspace,
                GroundingStats* stats = nullptr) const;

 private:
  GroundingOptions options_;
};

}  // namespace streamasp

#endif  // STREAMASP_GROUND_GROUNDER_H_
