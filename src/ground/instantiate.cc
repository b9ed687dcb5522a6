#include "ground/instantiate.h"

#include <algorithm>
#include <memory>
#include <string>

#include "graph/components.h"
#include "graph/graph.h"

namespace streamasp {
namespace ground_internal {

bool MatchTerm(const Term& pattern, const Term& ground, Binding* binding) {
  switch (pattern.kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return pattern == ground;
    case TermKind::kArithmetic: {
      // Matching cannot invert arithmetic: the expression must already be
      // fully bound, in which case it folds to an integer and compares.
      const Term folded = SubstituteTerm(pattern, *binding);
      return folded.is_integer() && folded == ground;
    }
    case TermKind::kVariable: {
      if (const Term* bound = binding->Get(pattern.symbol())) {
        return *bound == ground;
      }
      binding->Push(pattern.symbol(), ground);
      return true;
    }
    case TermKind::kFunction: {
      if (!ground.is_function() || ground.symbol() != pattern.symbol() ||
          ground.args().size() != pattern.args().size()) {
        return false;
      }
      for (size_t i = 0; i < pattern.args().size(); ++i) {
        if (!MatchTerm(pattern.args()[i], ground.args()[i], binding)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

bool MatchPackedTerm(const Term& pattern, PackedTerm ground,
                     Binding* binding) {
  switch (pattern.kind()) {
    case TermKind::kInteger:
      // Inline packing of the pattern constant, then one word compare
      // (out-of-range integers escape to the same canonical arena id the
      // ground word would carry, so equality still holds word-wise).
      return PackedTerm::Integer(pattern.integer_value()) == ground;
    case TermKind::kSymbol:
      return PackedTerm::Symbol(pattern.symbol()) == ground;
    case TermKind::kVariable: {
      const PackedTerm bound = binding->GetPacked(pattern.symbol());
      if (bound.has_value()) return bound == ground;
      binding->Push(pattern.symbol(), ground);
      return true;
    }
    case TermKind::kArithmetic: {
      const Term folded = SubstituteTerm(pattern, *binding);
      return folded.is_integer() && PackedTerm(folded) == ground;
    }
    case TermKind::kFunction: {
      // Compound pattern: only a compound ground value can match; unpack
      // it once and fall back to the recursive matcher.
      if (!ground.is_escape()) return false;
      const Term ground_term =
          PackedTermArena::Global().TermOf(ground.escape_id());
      return MatchTerm(pattern, ground_term, binding);
    }
  }
  return false;
}

Term SubstituteTerm(const Term& term, const Binding& binding) {
  switch (term.kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return term;
    case TermKind::kVariable: {
      const Term* bound = binding.Get(term.symbol());
      return bound != nullptr ? *bound : term;
    }
    case TermKind::kFunction: {
      std::vector<Term> args;
      args.reserve(term.args().size());
      for (const Term& arg : term.args()) {
        args.push_back(SubstituteTerm(arg, binding));
      }
      return Term::Function(term.symbol(), std::move(args));
    }
    case TermKind::kArithmetic:
      // Term::Arithmetic constant-folds once both operands are ground
      // integers; otherwise the (partially substituted) expression
      // remains, signalling an undefined or still-open computation.
      return Term::Arithmetic(term.arith_op(),
                              SubstituteTerm(term.args()[0], binding),
                              SubstituteTerm(term.args()[1], binding));
  }
  return term;
}

bool ContainsUnfoldedArithmetic(const Term& term) {
  if (term.is_arithmetic()) return true;
  if (term.is_function()) {
    for (const Term& arg : term.args()) {
      if (ContainsUnfoldedArithmetic(arg)) return true;
    }
  }
  return false;
}

PackedTerm BoundWord(const Term& arg, const Binding& binding) {
  switch (arg.kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return PackedTerm(arg);
    case TermKind::kVariable:
      return binding.GetPacked(arg.symbol());
    case TermKind::kFunction:
    case TermKind::kArithmetic: {
      const Term substituted = SubstituteTerm(arg, binding);
      if (!substituted.IsGround()) return PackedTerm();
      return PackedTerm(substituted);
    }
  }
  return PackedTerm();
}

bool PackInstance(const Atom& pattern, const Binding& binding,
                  PackedTerm* words) {
  for (size_t i = 0; i < pattern.args().size(); ++i) {
    const Term& arg = pattern.args()[i];
    switch (arg.kind()) {
      case TermKind::kInteger:
      case TermKind::kSymbol:
        words[i] = PackedTerm(arg);
        break;
      case TermKind::kVariable: {
        // Safety guarantees head/negative variables are bound by the
        // positive body; an unbound one (only possible on unsafe input
        // the engines reject earlier) stays a variable, as SubstituteTerm
        // leaves it.
        const PackedTerm bound = binding.GetPacked(arg.symbol());
        if (!bound.has_value()) {
          words[i] = PackedTerm(arg);
          break;
        }
        // Compound values (escaped words) may carry undefined arithmetic.
        if (bound.is_escape() && ContainsUnfoldedArithmetic(bound.ToTerm())) {
          return false;
        }
        words[i] = bound;
        break;
      }
      case TermKind::kFunction:
      case TermKind::kArithmetic: {
        const Term substituted = SubstituteTerm(arg, binding);
        if (ContainsUnfoldedArithmetic(substituted)) return false;
        words[i] = PackedTerm(substituted);
        break;
      }
    }
  }
  return true;
}

void PositionIndex::Append(uint64_t key) {
  const uint32_t i = static_cast<uint32_t>(next_.size());
  next_.push_back(kEnd);
  if (2 * (keys_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  Slot& slot = slots_[SlotOf(key)];
  if (slot.head == kEnd) {
    slot.key = key;
    slot.head = i;
    ++keys_;
  } else {
    next_[slot.tail] = i;
  }
  slot.tail = i;
}

uint32_t PositionIndex::First(uint64_t key) const {
  if (slots_.empty()) return kEnd;
  return slots_[SlotOf(key)].head;
}

size_t PositionIndex::SlotOf(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = PackedBitsHash()(key) & mask;
  while (slots_[i].head != kEnd && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void PositionIndex::Rehash(size_t slots) {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.resize(slots);
  for (const Slot& slot : old) {
    if (slot.head != kEnd) slots_[SlotOf(slot.key)] = slot;
  }
}

void PositionIndex::Clear() {
  if (keys_ > 0) std::fill(slots_.begin(), slots_.end(), Slot{});
  keys_ = 0;
  next_.clear();
}

bool ResolveComparisons(const CompiledRule& rule, Binding* binding,
                        std::vector<bool>* comparison_done,
                        std::vector<size_t>* newly_done) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t c = 0; c < rule.comparisons.size(); ++c) {
      if ((*comparison_done)[c]) continue;
      const Literal& cmp = rule.comparisons[c];
      const Term lhs = SubstituteTerm(cmp.lhs(), *binding);
      const Term rhs = SubstituteTerm(cmp.rhs(), *binding);
      if (lhs.IsGround() && rhs.IsGround()) {
        // SubstituteTerm already folded foldable arithmetic; what remains
        // is undefined (symbolic operand, division by zero) => false.
        if (ContainsUnfoldedArithmetic(lhs) ||
            ContainsUnfoldedArithmetic(rhs)) {
          return false;
        }
        if (!EvaluateComparison(cmp.op(), lhs, rhs)) return false;
        (*comparison_done)[c] = true;
        newly_done->push_back(c);
        progress = true;
        continue;
      }
      if (cmp.op() != ComparisonOp::kEqual) continue;
      // Assignment form: a bare unbound variable against a ground value.
      const bool lhs_assignable = lhs.is_variable() && rhs.IsGround() &&
                                  !ContainsUnfoldedArithmetic(rhs);
      const bool rhs_assignable = rhs.is_variable() && lhs.IsGround() &&
                                  !ContainsUnfoldedArithmetic(lhs);
      if (lhs_assignable || rhs_assignable) {
        const Term& variable = lhs_assignable ? lhs : rhs;
        const Term& value = lhs_assignable ? rhs : lhs;
        binding->Push(variable.symbol(), value);
        (*comparison_done)[c] = true;
        newly_done->push_back(c);
        progress = true;
      }
    }
  }
  return true;
}

void SimplifyGroundRules(size_t num_atoms, const std::vector<bool>& derivable,
                         std::vector<GroundRule>* rules_io,
                         SimplifyScratch* scratch) {
  std::vector<GroundRule>& rules = *rules_io;
  std::vector<bool>& definitely_true = scratch->definitely_true;
  std::vector<bool>& removed = scratch->removed;
  definitely_true.assign(num_atoms, false);
  removed.assign(rules.size(), false);

  // Pass 0: erase negative literals over atoms that no rule can derive —
  // `not a` with underivable `a` always holds.
  for (GroundRule& rule : rules) {
    auto& neg = rule.negative_body;
    neg.erase(std::remove_if(neg.begin(), neg.end(),
                             [&](GroundAtomId id) {
                               return id >= derivable.size() || !derivable[id];
                             }),
              neg.end());
  }

  // Fixpoint: propagate definite facts through positive bodies.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t r = 0; r < rules.size(); ++r) {
      if (removed[r]) continue;
      GroundRule& rule = rules[r];

      // A definitely-true head atom satisfies the rule outright.
      bool satisfied = false;
      for (GroundAtomId h : rule.head) {
        if (definitely_true[h]) {
          satisfied = true;
          break;
        }
      }
      // So does a definitely-true negative-body atom falsifying the body.
      if (!satisfied) {
        for (GroundAtomId n : rule.negative_body) {
          if (definitely_true[n]) {
            satisfied = true;
            break;
          }
        }
      }
      if (satisfied) {
        removed[r] = true;
        changed = true;
        continue;
      }

      auto& pos = rule.positive_body;
      const size_t before = pos.size();
      pos.erase(std::remove_if(
                    pos.begin(), pos.end(),
                    [&](GroundAtomId id) { return definitely_true[id]; }),
                pos.end());
      if (pos.size() != before) changed = true;

      if (rule.is_fact() && !definitely_true[rule.head.front()]) {
        definitely_true[rule.head.front()] = true;
        removed[r] = true;  // Re-emitted once, below.
        changed = true;
      }
    }
  }

  // Output, in place: one fact per definitely-true atom (ascending), then
  // the surviving rules in order. Each definitely-true atom retired at
  // least one fact rule, so the facts fit in the removed rules' slots:
  // survivors are compacted to the back, slid down behind the facts, and
  // the facts written in front.
  size_t facts = 0;
  for (GroundAtomId a = 0; a < num_atoms; ++a) facts += definitely_true[a];
  size_t first = rules.size();
  for (size_t r = rules.size(); r-- > 0;) {
    if (!removed[r] && --first != r) rules[first] = std::move(rules[r]);
  }
  const size_t survivors = rules.size() - first;
  for (size_t i = 0; i < survivors && first != facts; ++i) {
    rules[facts + i] = std::move(rules[first + i]);
  }
  size_t next = 0;
  for (GroundAtomId a = 0; a < num_atoms; ++a) {
    if (definitely_true[a]) rules[next++] = GroundRule{{a}, {}, {}};
  }
  rules.resize(facts + survivors);
}

Status RuleLimitError(size_t max_ground_rules) {
  return ResourceExhaustedError(
      "ground rule limit exceeded (" + std::to_string(max_ground_rules) +
      "); the program may not be finitely groundable");
}

}  // namespace ground_internal

using ground_internal::CompiledRule;

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

}  // namespace streamasp
