#include "ground/grounder.h"

#include <memory>
#include <utility>
#include <vector>

#include "ground/instantiate.h"

namespace streamasp {

namespace {

using ground_internal::CompiledRule;
using ground_internal::PredicateExtension;

}  // namespace

/// One workspace's instantiation state over a shared plan; see
/// GroundingWorkspace for the reuse contract. Policies on the shared core:
/// literals of earlier components see their whole extension, negative
/// literals over finished extensions are resolved eagerly, and — with
/// GroundingOptions::simplify — settled instances are folded into
/// per-atom certain bits instead of being stored (see Grounder). By
/// induction over the fold a certain atom is true in every answer set:
/// the certain atoms are the definitely-true atoms SimplifyGroundRules
/// would derive, so Run writes the facts it would produce directly.
class GroundingWorkspace::Engine
    : public ground_internal::InstantiationCore<GroundingWorkspace::Engine> {
 public:
  explicit Engine(GroundingPlanPtr plan) : InstantiationCore(std::move(plan)) {}

  Status Run(const std::vector<Atom>& input_facts,
             const GroundingOptions& options, GroundingStats* stats);

  GroundProgram& ground() { return ground_; }

 private:
  friend class InstantiationCore<Engine>;

  std::vector<GroundRule>& rules() { return ground_.mutable_rules(); }

  /// Sizes the per-atom bits to cover `id`.
  void Track(GroundAtomId id) {
    if (id >= derivable_.size()) {
      derivable_.resize(id + 1, false);
      certain_.resize(id + 1, false);
    }
  }

  /// Marks interned atom `id` derivable; a newly derivable atom of a
  /// registered predicate joins that predicate's extension.
  GroundAtomId AddDerived(GroundAtomId id, int pred) {
    Track(id);
    if (!derivable_[id]) {
      derivable_[id] = true;
      if (pred >= 0) extensions_[pred].atoms.push_back(id);
    }
    return id;
  }

  Range ExternalRange(const PredicateExtension& ext,
                      size_t /*position*/) const {
    return {0, ext.atoms.size()};
  }

  GroundAtomId NegativeInstance(const Atom& pattern, int pred) {
    if (plan_->pred_component[pred] < component_) {
      // The predicate's extension is final: an underivable atom can never
      // become true, so `not atom` is certainly satisfied — drop it; a
      // certain one is always true, so the instance can never fire.
      const GroundAtomId existing = atoms().LookupPacked(
          pattern.predicate(), words_.data(), pattern.arity());
      if (existing == kInvalidGroundAtom || !derivable_[existing]) {
        return kInvalidGroundAtom;
      }
      if (options_->simplify && certain_[existing]) {
        ++instances_;
        return ground_internal::kBlockedInstance;
      }
      return existing;
    }
    // Intern without marking derivable.
    const GroundAtomId id = atoms().InternPacked(
        pattern.predicate(), words_.data(), pattern.arity());
    Track(id);
    return id;
  }

  GroundAtomId HeadInstance(const Atom& pattern, int pred) {
    return AddDerived(atoms().InternPacked(pattern.predicate(), words_.data(),
                                           pattern.arity()),
                      pred);
  }

  /// Counts one instance against GroundingOptions::max_ground_rules,
  /// whether it is stored, folded or seeded.
  Status CountInstance() {
    if (instances_ >= options_->max_ground_rules) {
      return ground_internal::RuleLimitError(options_->max_ground_rules);
    }
    ++instances_;
    return OkStatus();
  }

  void MarkCertain(GroundAtomId id) {
    if (!certain_[id]) {
      certain_[id] = true;
      ++num_certain_;
    }
  }

  /// A single-head instance with no negative literal left and an all-
  /// certain positive body; only ever true under simplify.
  bool IsCertain(const GroundRule& rule) const {
    if (!options_->simplify || rule.head.size() != 1 ||
        !rule.negative_body.empty()) {
      return false;
    }
    for (GroundAtomId id : rule.positive_body) {
      if (!certain_[id]) return false;
    }
    return true;
  }

  Status EmitRule(GroundRule rule) {
    STREAMASP_RETURN_IF_ERROR(CountInstance());
    if (IsCertain(rule)) {
      MarkCertain(rule.head[0]);
    } else {
      rules().push_back(std::move(rule));
    }
    return OkStatus();
  }

  /// Seeds the fact `id` (already derived): folded into its certain bit
  /// under simplify, else stored as a fact rule.
  Status EmitFact(GroundAtomId id) {
    STREAMASP_RETURN_IF_ERROR(CountInstance());
    if (options_->simplify) {
      MarkCertain(id);
    } else {
      rules().push_back(GroundRule{{id}, {}, {}});
    }
    return OkStatus();
  }

  /// Writes one fact per certain atom, ascending, in front of the stored
  /// residual instances — the layout SimplifyGroundRules produces.
  void LayOutCertainFacts();

  void Reset();
  Status SeedFacts(const std::vector<Atom>& input_facts);
  Status InstantiateComponent(int component);

  const GroundingOptions* options_ = nullptr;
  std::vector<bool> derivable_;
  std::vector<bool> certain_;
  size_t num_certain_ = 0;
  /// Instances matched this run: stored, folded, blocked or seeded.
  size_t instances_ = 0;
};

void GroundingWorkspace::Engine::Reset() {
  atoms().Clear();
  rules().clear();
  derivable_.clear();
  certain_.clear();
  num_certain_ = 0;
  instances_ = 0;
  for (PredicateExtension& ext : extensions_) ext.Clear();
}

Status GroundingWorkspace::Engine::SeedFacts(
    const std::vector<Atom>& input_facts) {
  const Program& program = plan_->program;
  for (const Rule& rule : program.rules()) {
    if (!rule.body().empty()) continue;
    GroundRule ground;
    for (const Atom& head : rule.head()) {
      if (!head.IsGround()) {
        return InvalidArgumentError(
            "non-ground fact: " + rule.ToString(program.symbol_table()));
      }
      ground.head.push_back(AddDerived(atoms().Intern(head),
                                       plan_->PredIndexOf(head.signature())));
    }
    // A disjunctive fact is stored; a plain one folds.
    STREAMASP_RETURN_IF_ERROR(EmitRule(std::move(ground)));
  }
  for (const Atom& fact : input_facts) {
    if (!fact.IsGround()) {
      return InvalidArgumentError("non-ground input fact: " +
                                  fact.ToString(program.symbol_table()));
    }
    STREAMASP_RETURN_IF_ERROR(EmitFact(AddDerived(
        atoms().Intern(fact), plan_->PredIndexOf(fact.signature()))));
  }
  return OkStatus();
}

Status GroundingWorkspace::Engine::InstantiateComponent(int component) {
  const std::vector<const CompiledRule*>& rules =
      plan_->component_rules[component];
  if (rules.empty()) return OkStatus();

  // Same-component predicates: snapshot the current extension as the first
  // delta window (everything derived so far is "new" for this component).
  const std::vector<int>& component_preds = plan_->component_preds[component];
  for (int p : component_preds) {
    extensions_[p].delta_begin = 0;
    extensions_[p].delta_end = extensions_[p].atoms.size();
  }

  // Non-recursive rules fire exactly once: their positive bodies only read
  // fully evaluated predicates.
  for (const CompiledRule* rule : rules) {
    if (!rule->recursive) {
      STREAMASP_RETURN_IF_ERROR(EvaluateRule(rule, component, -1));
    }
  }
  // Refresh the delta to include atoms the non-recursive rules derived.
  for (int p : component_preds) {
    extensions_[p].delta_end = extensions_[p].atoms.size();
  }

  // Semi-naive fixpoint for recursive rules.
  for (;;) {
    bool any_delta = false;
    for (int p : component_preds) {
      if (extensions_[p].delta_begin < extensions_[p].delta_end) {
        any_delta = true;
        break;
      }
    }
    if (!any_delta) break;

    for (const CompiledRule* rule : rules) {
      if (!rule->recursive) continue;
      for (size_t j : rule->same_component_positions) {
        STREAMASP_RETURN_IF_ERROR(
            EvaluateRule(rule, component, static_cast<int>(j)));
      }
    }

    // Advance windows: this round's derivations become the next delta.
    for (int p : component_preds) {
      extensions_[p].delta_begin = extensions_[p].delta_end;
      extensions_[p].delta_end = extensions_[p].atoms.size();
    }
  }
  return OkStatus();
}

Status GroundingWorkspace::Engine::Run(const std::vector<Atom>& input_facts,
                                       const GroundingOptions& options,
                                       GroundingStats* stats) {
  STREAMASP_RETURN_IF_ERROR(plan_->status);
  options_ = &options;
  Reset();
  STREAMASP_RETURN_IF_ERROR(SeedFacts(input_facts));
  for (int c = 0; c < plan_->num_components; ++c) {
    STREAMASP_RETURN_IF_ERROR(InstantiateComponent(c));
  }
  // Constraints see the final extensions of every predicate.
  for (const CompiledRule* constraint : plan_->constraints) {
    STREAMASP_RETURN_IF_ERROR(
        EvaluateRule(constraint, plan_->num_components, -1));
  }

  GroundingStats run;
  if (options.simplify) {
    const bool residual = !rules().empty();
    LayOutCertainFacts();
    // Only residual instances can still simplify: certain atoms are
    // already facts, and a facts-only program is final.
    if (residual) {
      ground_internal::SimplifyGroundRules(atoms().size(), derivable_,
                                           &rules(), &simplify_);
    }
  }
  run.num_rules_raw = instances_;
  CountOutput(&run);
  run.atom_table_bytes = atoms().ApproxBytes();
  if (stats != nullptr) *stats = run;
  return OkStatus();
}

void GroundingWorkspace::Engine::LayOutCertainFacts() {
  if (num_certain_ == 0) return;
  std::vector<GroundRule>& out = rules();
  const size_t residual = out.size();
  out.resize(num_certain_ + residual);
  for (size_t i = residual; i-- > 0;) {
    out[num_certain_ + i] = std::move(out[i]);
  }
  size_t next = 0;
  for (GroundAtomId a = 0; next < num_certain_; ++a) {
    if (certain_[a]) out[next++] = GroundRule{{a}, {}, {}};
  }
}

GroundingWorkspace::GroundingWorkspace(GroundingPlanPtr plan)
    : engine_(std::make_unique<Engine>(std::move(plan))) {}
GroundingWorkspace::~GroundingWorkspace() = default;
GroundingWorkspace::GroundingWorkspace(GroundingWorkspace&&) noexcept =
    default;
GroundingWorkspace& GroundingWorkspace::operator=(
    GroundingWorkspace&&) noexcept = default;

const GroundProgram& GroundingWorkspace::ground() const {
  return engine_->ground();
}

GroundProgram GroundingWorkspace::TakeGround() {
  return std::move(engine_->ground());
}

StatusOr<GroundProgram> Grounder::Ground(const Program& program,
                                         GroundingStats* stats) const {
  return Ground(program, {}, stats);
}

StatusOr<GroundProgram> Grounder::Ground(const Program& program,
                                         const std::vector<Atom>& input_facts,
                                         GroundingStats* stats) const {
  GroundingWorkspace workspace(PrepareGrounding(&program));
  STREAMASP_RETURN_IF_ERROR(Ground(input_facts, &workspace, stats));
  return workspace.TakeGround();
}

Status Grounder::Ground(const std::vector<Atom>& input_facts,
                        GroundingWorkspace* workspace,
                        GroundingStats* stats) const {
  return workspace->engine_->Run(input_facts, options_, stats);
}

}  // namespace streamasp
