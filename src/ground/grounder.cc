#include "ground/grounder.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asp/literal.h"
#include "graph/components.h"
#include "graph/graph.h"
#include "ground/instantiate.h"

namespace streamasp {

namespace {

using ground_internal::Binding;
using ground_internal::CompiledRule;
using ground_internal::MatchPackedTerm;
using ground_internal::PackInstance;
using ground_internal::PositionIndex;
using ground_internal::PredicateExtension;
using ground_internal::ResolveComparisons;

}  // namespace

/// The program-dependent half of grounding, computed once per plan.
class GroundingPlan {
 public:
  explicit GroundingPlan(const Program* program);

  /// Index of a registered predicate, or -1 for one no rule mentions
  /// (input facts only): such atoms are interned and derivable but need
  /// no extension, since no rule reads them.
  int PredIndexOf(const PredicateSignature& sig) const {
    auto it = pred_index.find(sig);
    return it == pred_index.end() ? -1 : it->second;
  }

  const Program& program;
  Status status;  ///< Program::Validate's verdict.
  std::unordered_map<PredicateSignature, int, PredicateSignatureHash>
      pred_index;
  std::vector<PredicateSignature> pred_signatures;
  std::vector<int> pred_component;
  std::vector<std::vector<int>> component_preds;
  std::vector<CompiledRule> compiled;
  std::vector<std::vector<const CompiledRule*>> component_rules;
  std::vector<const CompiledRule*> constraints;
  int num_components = 0;
  uint32_t max_arity = 0;

 private:
  int Register(const PredicateSignature& sig);
  void Compile();
};

int GroundingPlan::Register(const PredicateSignature& sig) {
  auto [it, inserted] = pred_index.try_emplace(
      sig, static_cast<int>(pred_signatures.size()));
  if (inserted) {
    pred_signatures.push_back(sig);
    max_arity = std::max(max_arity, sig.arity);
  }
  return it->second;
}

GroundingPlan::GroundingPlan(const Program* program_ptr)
    : program(*program_ptr), status(program_ptr->Validate()) {
  if (!status.ok()) return;
  // Register every predicate so indexes are stable.
  for (const Rule& rule : program.rules()) {
    for (const Atom& a : rule.head()) Register(a.signature());
    for (const Literal& l : rule.body()) {
      if (l.is_atom()) Register(l.atom().signature());
    }
  }

  Digraph dependencies(static_cast<NodeId>(pred_signatures.size()));
  for (const Rule& rule : program.rules()) {
    for (const Atom& head : rule.head()) {
      const int head_pred = Register(head.signature());
      for (const Literal& l : rule.body()) {
        if (!l.is_atom()) continue;
        dependencies.AddEdge(
            static_cast<NodeId>(Register(l.atom().signature())),
            static_cast<NodeId>(head_pred));
      }
    }
    // Disjunctive head predicates must be instantiated together: a rule
    // deriving one of them can retroactively feed rules over another.
    for (size_t i = 0; i + 1 < rule.head().size(); ++i) {
      for (size_t j = i + 1; j < rule.head().size(); ++j) {
        const NodeId a =
            static_cast<NodeId>(Register(rule.head()[i].signature()));
        const NodeId b =
            static_cast<NodeId>(Register(rule.head()[j].signature()));
        dependencies.AddEdge(a, b);
        dependencies.AddEdge(b, a);
      }
    }
  }

  // Predicates that only input facts carry are left out of the graph:
  // they would be isolated nodes, which only shift every component id by
  // the same amount, so the schedule is the same with or without them.
  const ComponentAssignment components =
      StronglyConnectedComponents(dependencies);
  num_components = components.num_components;
  pred_component = components.component_of;
  component_preds.assign(num_components, {});
  for (size_t p = 0; p < pred_component.size(); ++p) {
    component_preds[pred_component[p]].push_back(static_cast<int>(p));
  }
  Compile();
}

void GroundingPlan::Compile() {
  component_rules.assign(num_components, {});
  compiled.reserve(program.rules().size());
  for (const Rule& rule : program.rules()) {
    if (rule.body().empty()) continue;  // Facts are seeded separately.
    CompiledRule cr;
    for (const Atom& head : rule.head()) {
      cr.heads.push_back(head);
      cr.head_preds.push_back(Register(head.signature()));
    }
    for (const Literal& l : rule.body()) {
      switch (l.kind()) {
        case Literal::Kind::kPositiveAtom:
          cr.positive.push_back(l.atom());
          cr.positive_preds.push_back(Register(l.atom().signature()));
          break;
        case Literal::Kind::kNegativeAtom:
          cr.negatives.push_back(l.atom());
          cr.negative_preds.push_back(Register(l.atom().signature()));
          break;
        case Literal::Kind::kComparison: {
          cr.comparisons.push_back(l);
          std::vector<SymbolId> vars;
          l.CollectVariables(&vars);
          std::sort(vars.begin(), vars.end());
          vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
          cr.comparison_vars.push_back(std::move(vars));
          break;
        }
      }
    }
    if (cr.heads.empty()) {
      // Constraints run after all components are fully instantiated.
      cr.component = num_components;
      compiled.push_back(std::move(cr));
      continue;
    }
    // All head predicates share a component (mutual edges); schedule the
    // rule there.
    cr.component = pred_component[cr.head_preds.front()];
    for (size_t i = 0; i < cr.positive.size(); ++i) {
      if (pred_component[cr.positive_preds[i]] == cr.component) {
        cr.recursive = true;
        cr.same_component_positions.push_back(i);
      }
    }
    compiled.push_back(std::move(cr));
  }
  // Pointers into compiled are stable from here on.
  for (const CompiledRule& cr : compiled) {
    if (cr.heads.empty()) {
      constraints.push_back(&cr);
    } else {
      component_rules[cr.component].push_back(&cr);
    }
  }
}

GroundingPlanPtr PrepareGrounding(const Program* program) {
  return std::make_shared<const GroundingPlan>(program);
}

/// One workspace's instantiation state over a shared plan; see
/// GroundingWorkspace for the reuse contract.
class GroundingWorkspace::Engine {
 public:
  explicit Engine(GroundingPlanPtr plan)
      : plan_(std::move(plan)),
        extensions_(plan_->pred_signatures.size()),
        words_(plan_->max_arity) {}

  Status Run(const std::vector<Atom>& input_facts,
             const GroundingOptions& options, GroundingStats* stats);

  GroundProgram& ground() { return ground_; }

 private:
  AtomTable& atoms() { return ground_.mutable_atoms(); }
  std::vector<GroundRule>& rules() { return ground_.mutable_rules(); }

  /// Marks interned atom `id` derivable; a newly derivable atom of a
  /// registered predicate joins that predicate's extension.
  GroundAtomId AddDerived(GroundAtomId id, int pred) {
    if (id >= derivable_.size()) derivable_.resize(id + 1, false);
    if (!derivable_[id]) {
      derivable_[id] = true;
      if (pred >= 0) extensions_[pred].atoms.push_back(id);
    }
    return id;
  }

  /// Interns without marking derivable (negative-body use).
  GroundAtomId InternOnly(const Atom& pattern) {
    const GroundAtomId id = atoms().InternPacked(
        pattern.predicate(), words_.data(), pattern.arity());
    if (id >= derivable_.size()) derivable_.resize(id + 1, false);
    return id;
  }

  Status EmitGroundRule(GroundRule rule) {
    if (rules().size() >= options_->max_ground_rules) {
      return ResourceExhaustedError(
          "ground rule limit exceeded (" +
          std::to_string(options_->max_ground_rules) +
          "); the program may not be finitely groundable");
    }
    rules().push_back(std::move(rule));
    return OkStatus();
  }

  void Reset();
  Status SeedFacts(const std::vector<Atom>& input_facts);
  Status InstantiateComponent(int component);
  Status EvaluateRule(const CompiledRule* rule, int current_component,
                      int delta_position);
  Status MatchFrom(const CompiledRule* rule, size_t literal_index,
                   int current_component, int delta_position);
  Status EmitInstance(const CompiledRule* rule, int current_component);

  /// Computes the visible index range of `rule`'s positive literal
  /// `position` for the current round.
  std::pair<size_t, size_t> LiteralRange(const CompiledRule& rule,
                                         size_t position,
                                         int current_component,
                                         int delta_position) const;

  GroundingPlanPtr plan_;
  const GroundingOptions* options_ = nullptr;

  GroundProgram ground_;
  std::vector<bool> derivable_;
  std::vector<PredicateExtension> extensions_;

  // Match scratch: one rule is evaluated at a time, and the recursion
  // over its body literals shares these through marks.
  Binding binding_;
  std::vector<GroundAtomId> matched_;
  std::vector<bool> comparison_done_;
  /// Comparisons resolved so far, in order; each match level unmarks its
  /// own suffix on backtracking.
  std::vector<size_t> done_trail_;
  /// Packed instance of the head or negative being emitted.
  std::vector<PackedTerm> words_;

  ground_internal::SimplifyScratch simplify_;
};

void GroundingWorkspace::Engine::Reset() {
  atoms().Clear();
  rules().clear();
  derivable_.clear();
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
    STREAMASP_RETURN_IF_ERROR(EmitGroundRule(std::move(ground)));
  }
  for (const Atom& fact : input_facts) {
    if (!fact.IsGround()) {
      return InvalidArgumentError("non-ground input fact: " +
                                  fact.ToString(program.symbol_table()));
    }
    GroundRule ground;
    ground.head.push_back(AddDerived(atoms().Intern(fact),
                                     plan_->PredIndexOf(fact.signature())));
    STREAMASP_RETURN_IF_ERROR(EmitGroundRule(std::move(ground)));
  }
  return OkStatus();
}

std::pair<size_t, size_t> GroundingWorkspace::Engine::LiteralRange(
    const CompiledRule& rule, size_t position, int current_component,
    int delta_position) const {
  const PredicateExtension& ext = extensions_[rule.positive_preds[position]];
  const bool same_component =
      plan_->pred_component[rule.positive_preds[position]] ==
          current_component &&
      current_component < plan_->num_components;
  if (!same_component) {
    return {0, ext.atoms.size()};
  }
  // Semi-naive decomposition: literals before the delta position see the
  // old window, the delta position sees only the delta, later ones see
  // old+delta. delta_position < 0 (non-recursive evaluation) sees
  // everything visible this round.
  if (delta_position < 0) {
    return {0, ext.delta_end};
  }
  if (position < static_cast<size_t>(delta_position)) {
    return {0, ext.delta_begin};
  }
  if (position == static_cast<size_t>(delta_position)) {
    return {ext.delta_begin, ext.delta_end};
  }
  return {0, ext.delta_end};
}

Status GroundingWorkspace::Engine::MatchFrom(const CompiledRule* rule,
                                             size_t literal_index,
                                             int current_component,
                                             int delta_position) {
  if (literal_index == rule->positive.size()) {
    return EmitInstance(rule, current_component);
  }

  const Atom& pattern = rule->positive[literal_index];
  const int pred = rule->positive_preds[literal_index];
  PredicateExtension& ext = extensions_[pred];
  const auto [range_begin, range_end] =
      LiteralRange(*rule, literal_index, current_component, delta_position);
  if (range_begin >= range_end) return OkStatus();

  // Pick an argument position that is ground under the current binding to
  // drive an index lookup; fall back to a scan.
  int index_position = -1;
  PackedTerm index_key;
  for (size_t p = 0; p < pattern.args().size(); ++p) {
    index_key = ground_internal::BoundWord(pattern.args()[p], binding_);
    if (index_key.has_value()) {
      index_position = static_cast<int>(p);
      break;
    }
  }

  // The candidate list: either an index bucket or the full range. Buckets
  // are keyed by the argument's packed word, read off the atom table's
  // columnar mirror — no Term hashing on the probe or build path.
  PositionIndex* index = nullptr;
  if (index_position >= 0) {
    if (ext.indexes.empty()) ext.indexes.resize(pattern.args().size());
    index = &ext.indexes[index_position];
    // Extend the index to cover the whole extension (cheap, amortized).
    while (index->indexed_until() < ext.atoms.size()) {
      index->Append(
          atoms().PackedArgs(ext.atoms[index->indexed_until()])[index_position]
              .bits());
    }
  }

  auto try_candidate = [&](size_t extension_index) -> Status {
    const GroundAtomId id = ext.atoms[extension_index];
    const PackedTerm* candidate_args = atoms().PackedArgs(id);
    const size_t mark = binding_.Mark();
    bool matches = atoms().PackedArity(id) == pattern.args().size();
    for (size_t p = 0; matches && p < pattern.args().size(); ++p) {
      matches = MatchPackedTerm(pattern.args()[p], candidate_args[p],
                                &binding_);
    }
    if (matches) {
      // Resolve comparisons/assignments that just became ground; prune on
      // failure. Assignment bindings land on the same trail and are
      // rewound with the candidate's mark.
      const size_t done_mark = done_trail_.size();
      const bool comparisons_hold = ResolveComparisons(
          *rule, &binding_, &comparison_done_, &done_trail_);
      if (comparisons_hold) {
        matched_[literal_index] = id;
        STREAMASP_RETURN_IF_ERROR(MatchFrom(rule, literal_index + 1,
                                            current_component,
                                            delta_position));
      }
      for (size_t k = done_mark; k < done_trail_.size(); ++k) {
        comparison_done_[done_trail_[k]] = false;
      }
      done_trail_.resize(done_mark);
    }
    binding_.RewindTo(mark);
    return OkStatus();
  };

  if (index != nullptr) {
    // Buckets list extension indexes in ascending order. A later literal
    // of the same predicate can lazily extend this very index while we
    // are suspended in the recursion; entries it links lie beyond
    // range_end, so the walk stops before them.
    for (uint32_t i = index->First(index_key.bits()); i != PositionIndex::kEnd;
         i = index->Next(i)) {
      if (i >= range_end) break;
      if (i < range_begin) continue;
      STREAMASP_RETURN_IF_ERROR(try_candidate(i));
    }
  } else {
    for (size_t i = range_begin; i < range_end; ++i) {
      STREAMASP_RETURN_IF_ERROR(try_candidate(i));
    }
  }
  return OkStatus();
}

Status GroundingWorkspace::Engine::EmitInstance(const CompiledRule* rule,
                                                int current_component) {
  GroundRule ground;
  ground.positive_body.assign(matched_.begin(), matched_.end());

  // Instances are packed straight from the binding and interned from the
  // words; an atom seen before costs one index probe and no Atom.
  for (size_t i = 0; i < rule->negatives.size(); ++i) {
    const Atom& pattern = rule->negatives[i];
    if (!PackInstance(pattern, binding_, words_.data())) {
      return OkStatus();  // Undefined arithmetic: skip the instance.
    }
    const int pred = rule->negative_preds[i];
    const bool fully_evaluated =
        plan_->pred_component[pred] < current_component;
    if (fully_evaluated) {
      // The predicate's extension is final: an underivable atom can never
      // become true, so `not atom` is certainly satisfied — drop it.
      const GroundAtomId existing = atoms().LookupPacked(
          pattern.predicate(), words_.data(), pattern.arity());
      if (existing == kInvalidGroundAtom || !derivable_[existing]) {
        continue;
      }
      ground.negative_body.push_back(existing);
    } else {
      ground.negative_body.push_back(InternOnly(pattern));
    }
  }

  for (size_t i = 0; i < rule->heads.size(); ++i) {
    const Atom& pattern = rule->heads[i];
    if (!PackInstance(pattern, binding_, words_.data())) {
      return OkStatus();  // Undefined arithmetic: skip the instance.
    }
    ground.head.push_back(AddDerived(
        atoms().InternPacked(pattern.predicate(), words_.data(),
                             pattern.arity()),
        rule->head_preds[i]));
  }
  return EmitGroundRule(std::move(ground));
}

Status GroundingWorkspace::Engine::EvaluateRule(const CompiledRule* rule,
                                                int current_component,
                                                int delta_position) {
  binding_.RewindTo(0);
  matched_.assign(rule->positive.size(), kInvalidGroundAtom);
  comparison_done_.assign(rule->comparisons.size(), false);
  done_trail_.clear();
  // Variable-free comparisons and seed assignments (X = 3 + 4) decide or
  // pre-bind before any literal is matched.
  if (!ResolveComparisons(*rule, &binding_, &comparison_done_,
                          &done_trail_)) {
    return OkStatus();  // The rule can never fire.
  }
  return MatchFrom(rule, 0, current_component, delta_position);
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
  run.num_rules_raw = rules().size();
  if (options.simplify) {
    if (derivable_.size() < atoms().size()) {
      derivable_.resize(atoms().size(), false);
    }
    ground_internal::SimplifyGroundRules(atoms().size(), derivable_,
                                         &rules(), &simplify_);
  }
  run.num_rules = rules().size();
  run.num_atoms = atoms().size();
  run.atom_table_bytes = atoms().ApproxBytes();
  for (const GroundRule& rule : rules()) {
    if (rule.is_fact()) ++run.num_facts;
    if (rule.is_constraint()) ++run.num_constraints;
  }
  if (stats != nullptr) *stats = run;
  return OkStatus();
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
