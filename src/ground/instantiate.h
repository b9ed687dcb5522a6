#ifndef STREAMASP_GROUND_INSTANTIATE_H_
#define STREAMASP_GROUND_INSTANTIATE_H_

/// The one grounding core both instantiators run on: the program's
/// GroundingPlan (validation, predicate registry, SCC schedule, compiled
/// rules), the semi-naive matcher InstantiationCore, and the primitives
/// beneath them — variable bindings with trail-based undo, term matching,
/// comparison resolution, per-predicate extensions with lazy join indexes
/// and the equivalence-preserving ground-program simplification.
///
/// The batch Grounder (ground/grounder.cc) and the window-to-window
/// IncrementalGrounder (ground/incremental_grounder.cc) are thin clients
/// that differ in four policies only: the visible range of literals
/// outside the component under evaluation (everything vs the window's
/// admissions in round 1), eager resolution of negative literals against
/// finished extensions (batch only), folding instances whose head is
/// certain — true in every answer set — into facts instead of storing
/// them, so a stratified program grounds to facts alone (batch only, under
/// GroundingOptions::simplify), and support bookkeeping with tombstoned
/// extension entries (incremental only).

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asp/atom.h"
#include "asp/literal.h"
#include "asp/packed_term.h"
#include "asp/program.h"
#include "asp/term.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"
#include "util/status.h"

namespace streamasp {
namespace ground_internal {

/// Variable binding with trail-based undo. Rules have few variables, so a
/// linear-scanned vector beats a hash map. Each entry carries the bound
/// value twice: as a Term (for substitution) and as its packed word (so
/// the slot-wise match loop compares one 64-bit word per already-bound
/// variable instead of a deep Term comparison).
class Binding {
 public:
  struct Entry {
    SymbolId var;
    Term term;
    PackedTerm packed;
  };

  const Term* Get(SymbolId var) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->var == var) return &it->term;
    }
    return nullptr;
  }

  /// Packed value of `var`, or the none word when unbound (bound values
  /// are never none, so none doubles as the not-found sentinel).
  PackedTerm GetPacked(SymbolId var) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->var == var) return it->packed;
    }
    return PackedTerm();
  }

  void Push(SymbolId var, const Term& value) {
    entries_.push_back(Entry{var, value, PackedTerm(value)});
  }

  /// Pushes a value already in packed form (the slot-wise match path);
  /// the Term twin is materialized from the packed word.
  void Push(SymbolId var, PackedTerm value) {
    entries_.push_back(Entry{var, value.ToTerm(), value});
  }

  size_t Mark() const { return entries_.size(); }
  void RewindTo(size_t mark) { entries_.resize(mark); }

  bool IsBound(SymbolId var) const { return Get(var) != nullptr; }

 private:
  std::vector<Entry> entries_;
};

/// Unifies a (possibly variable-containing) pattern with a ground term,
/// extending `binding`. On mismatch the caller rewinds using its mark.
bool MatchTerm(const Term& pattern, const Term& ground, Binding* binding);

/// Slot-wise variant over a packed candidate argument, the grounders'
/// match-loop fast path: inline pattern kinds and already-bound variables
/// compare as single words; only compound patterns (or compound ground
/// values on the arena escape path) fall back to the recursive MatchTerm.
bool MatchPackedTerm(const Term& pattern, PackedTerm ground,
                     Binding* binding);

/// Applies `binding` to a term. Unbound variables are left in place (the
/// result is ground iff all variables are bound).
Term SubstituteTerm(const Term& term, const Binding& binding);

/// True iff the (ground) term still contains an arithmetic node, i.e. the
/// expression could not be folded to an integer: symbolic operands or
/// division/modulo by zero. Such instances are undefined and skipped,
/// matching Clingo's treatment of undefined arithmetic.
bool ContainsUnfoldedArithmetic(const Term& term);

/// The packed value of pattern argument `arg` under `binding`, or the
/// none word when it is not yet ground: constants pack inline, variables
/// read their bound word, and only compound or arithmetic arguments go
/// through SubstituteTerm. Picks the join-index key in the match loops.
PackedTerm BoundWord(const Term& arg, const Binding& binding);

/// Writes the packed instance of `pattern` under `binding` to
/// words[0 .. pattern.arity()), the grounders' emit path: the instance is
/// interned from these words, so no Atom is built for it. Returns false
/// when an argument is undefined arithmetic (the instance is skipped,
/// matching ContainsUnfoldedArithmetic on the substituted atom).
bool PackInstance(const Atom& pattern, const Binding& binding,
                  PackedTerm* words);

/// Lazily built join index over one argument position of an extension:
/// extension indexes grouped by the argument's packed 64-bit word (deep
/// Term hashing only happens once per distinct compound value, inside
/// arena interning). Buckets are intrusive lists threaded through one
/// next-link per indexed entry, headed from an open-addressing key table,
/// so building and probing allocate nothing once capacity is warm and
/// Clear() keeps every array. A bucket lists its extension indexes in
/// ascending order, and appending while a bucket is being walked only
/// links entries beyond the walker's range.
class PositionIndex {
 public:
  static constexpr uint32_t kEnd = static_cast<uint32_t>(-1);

  /// Extension prefix already indexed.
  size_t indexed_until() const { return next_.size(); }

  /// Indexes extension entry indexed_until() under `key`.
  void Append(uint64_t key);
  /// Advances past extension entry indexed_until() without indexing it
  /// (a tombstone).
  void Skip() { next_.push_back(kEnd); }

  /// First extension index of `key`'s bucket, or kEnd.
  uint32_t First(uint64_t key) const;
  /// The bucket entry after extension index `i`, or kEnd.
  uint32_t Next(uint32_t i) const { return next_[i]; }

  /// Empties the index and keeps its capacity.
  void Clear();

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t head = kEnd;  ///< kEnd marks an empty slot.
    uint32_t tail = kEnd;
  };

  size_t SlotOf(uint64_t key) const;
  void Rehash(size_t slots);

  std::vector<Slot> slots_;  ///< Power-of-two size, at most half full.
  size_t keys_ = 0;
  std::vector<uint32_t> next_;
};

/// All derived ("possible") ground atoms of one predicate, in derivation
/// order, plus semi-naive window bounds and join indexes. Entries may be
/// tombstoned (kInvalidGroundAtom) by the incremental engine when an atom
/// is retracted; scans and index buckets skip tombstones.
struct PredicateExtension {
  std::vector<GroundAtomId> atoms;
  // Semi-naive bounds, only meaningful while this predicate's component is
  // being instantiated:
  //   old   = [0, delta_begin)
  //   delta = [delta_begin, delta_end)
  size_t delta_begin = 0;
  size_t delta_end = 0;
  // Extension size at the start of the current window (incremental engine
  // only): [window_start, atoms.size()) is the window's admission delta.
  size_t window_start = 0;
  std::vector<PositionIndex> indexes;  // Sized to arity on first use.

  /// Empties the extension for the next window, keeping its capacity.
  void Clear() {
    atoms.clear();
    delta_begin = delta_end = window_start = 0;
    for (PositionIndex& index : indexes) index.Clear();
  }
};

/// A rule preprocessed for instantiation.
struct CompiledRule {
  std::vector<Atom> heads;
  std::vector<int> head_preds;
  std::vector<Atom> positive;         // Positive body atoms, body order.
  std::vector<int> positive_preds;
  std::vector<Literal> comparisons;
  std::vector<std::vector<SymbolId>> comparison_vars;
  std::vector<Atom> negatives;
  std::vector<int> negative_preds;
  int component = 0;
  bool recursive = false;
  std::vector<size_t> same_component_positions;  // Indices into `positive`.
};

/// Attempts to resolve pending comparison literals under `binding`.
/// Comparisons whose two sides become ground are evaluated (undefined
/// arithmetic counts as false); `Var = expr` assignments whose other side
/// is ground bind the variable. Loops until no progress. Indexes of newly
/// resolved comparisons are appended to *newly_done so callers can unmark
/// them on backtracking (bindings themselves are rewound via the binding
/// mark). Returns false when a comparison is violated or an assignment
/// clashes with an existing binding.
bool ResolveComparisons(const CompiledRule& rule, Binding* binding,
                        std::vector<bool>* comparison_done,
                        std::vector<size_t>* newly_done);

/// Reusable buffers of SimplifyGroundRules; a caller that simplifies
/// every window keeps one so the pass stops allocating after warm-up.
struct SimplifyScratch {
  std::vector<bool> definitely_true;
  std::vector<bool> removed;
};

/// Equivalence-preserving simplification of a ground program, in place:
/// negative literals on underivable atoms are erased, definite facts are
/// propagated out of positive bodies, and rules satisfied outright (a
/// definitely-true head or negative-body atom) are dropped. `derivable`
/// marks atoms some rule (or fact) can derive; it may over-approximate
/// (extra true bits weaken the pass but never change the stable models).
/// Stable models are preserved exactly. `num_atoms` bounds the atom ids
/// appearing in `rules`.
void SimplifyGroundRules(size_t num_atoms, const std::vector<bool>& derivable,
                         std::vector<GroundRule>* rules,
                         SimplifyScratch* scratch);

/// The error both grounders return once the instances they emitted reach
/// GroundingOptions::max_ground_rules.
Status RuleLimitError(size_t max_ground_rules);

/// NegativeInstance's outcome for a negative literal whose atom is
/// certainly true: the instance's body can never hold, so it is dropped
/// whole. Never a valid atom id.
inline constexpr GroundAtomId kBlockedInstance = kInvalidGroundAtom - 1;

}  // namespace ground_internal

/// The program-dependent half of grounding, built once per program by
/// PrepareGrounding and shared read-only by every engine over it.
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
  /// Every rule with a body, in program order. Rules without a positive
  /// body sit in the lists below like any other.
  std::vector<ground_internal::CompiledRule> compiled;
  std::vector<std::vector<const ground_internal::CompiledRule*>>
      component_rules;
  std::vector<const ground_internal::CompiledRule*> constraints;
  int num_components = 0;
  uint32_t max_arity = 0;

 private:
  int Register(const PredicateSignature& sig);
  void Compile();
};

namespace ground_internal {

/// The semi-naive matcher of both grounders. It owns what every engine
/// keeps per program — the output program (atom table and rules), one
/// extension per registered predicate, and the match scratch — and
/// evaluates one rule at a time: comparisons that need no binding are
/// resolved first, then the positive body is matched left to right, each
/// literal against the range of its extension the current round may see,
/// through a lazily extended join index when an argument is bound.
///
/// `Engine` derives from InstantiationCore<Engine> and supplies the
/// policies, dispatched statically:
///   Range ExternalRange(const PredicateExtension& ext, size_t position)
///       the visible range of positive literal `position` when its
///       predicate lies outside the component under evaluation;
///   GroundAtomId NegativeInstance(const Atom& pattern, int pred)
///       the atom of the negative literal packed in words_,
///       kInvalidGroundAtom to drop the literal from the instance, or
///       kBlockedInstance to drop the whole instance;
///   GroundAtomId HeadInstance(const Atom& pattern, int pred)
///       interns and derives the head atom packed in words_;
///   Status EmitRule(GroundRule rule)
///       stores one finished instance.
template <class Engine>
class InstantiationCore {
 public:
  using Range = std::pair<size_t, size_t>;

 protected:
  explicit InstantiationCore(GroundingPlanPtr plan)
      : plan_(std::move(plan)),
        extensions_(plan_->pred_signatures.size()),
        words_(plan_->max_arity) {}

  AtomTable& atoms() { return ground_.mutable_atoms(); }

  /// True iff registered predicate `pred` belongs to `component`; the
  /// constraint pass (component num_components) owns none.
  bool InComponent(int pred, int component) const {
    return component < plan_->num_components &&
           plan_->pred_component[pred] == component;
  }

  /// Matches `rule` as part of `component`. In-component literals follow
  /// the semi-naive split: with delta_position >= 0, that literal sees
  /// only its predicate's delta, earlier ones the old part and later ones
  /// old plus delta; delta_position -1 lets all of them see old plus
  /// delta.
  Status EvaluateRule(const CompiledRule* rule, int component,
                      int delta_position) {
    component_ = component;
    delta_position_ = delta_position;
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
    return MatchFrom(rule, 0);
  }

  /// Fills the size counters of `stats` from ground_'s rules, simplifying
  /// them first when `simplify` is set.
  void SimplifyAndCount(bool simplify, const std::vector<bool>& derivable,
                        GroundingStats* stats) {
    std::vector<GroundRule>& rules = ground_.mutable_rules();
    stats->num_rules_raw = rules.size();
    if (simplify) {
      SimplifyGroundRules(atoms().size(), derivable, &rules, &simplify_);
    }
    CountOutput(stats);
  }

  /// Fills the output-program counters of `stats` from ground_.
  void CountOutput(GroundingStats* stats) const {
    stats->num_rules = ground_.rules().size();
    stats->num_atoms = ground_.num_atoms();
    stats->num_facts = stats->num_constraints = 0;
    for (const GroundRule& rule : ground_.rules()) {
      if (rule.is_fact()) ++stats->num_facts;
      if (rule.is_constraint()) ++stats->num_constraints;
    }
  }

  GroundingPlanPtr plan_;
  GroundProgram ground_;
  std::vector<PredicateExtension> extensions_;
  /// Packed instance of the head or negative being emitted.
  std::vector<PackedTerm> words_;
  // The evaluation under way (see EvaluateRule).
  int component_ = 0;
  int delta_position_ = -1;
  SimplifyScratch simplify_;

 private:
  Range LiteralRange(const CompiledRule& rule, size_t position) const {
    const int pred = rule.positive_preds[position];
    const PredicateExtension& ext = extensions_[pred];
    if (!InComponent(pred, component_)) {
      return static_cast<const Engine&>(*this).ExternalRange(ext, position);
    }
    if (delta_position_ < 0) return {0, ext.delta_end};
    const size_t delta_position = static_cast<size_t>(delta_position_);
    if (position < delta_position) return {0, ext.delta_begin};
    if (position == delta_position) return {ext.delta_begin, ext.delta_end};
    return {0, ext.delta_end};
  }

  Status MatchFrom(const CompiledRule* rule, size_t literal_index);

  /// Instances are packed straight from the binding and interned from the
  /// words; an atom seen before costs one index probe and no Atom.
  Status EmitInstance(const CompiledRule* rule);

  // Match scratch: one rule is evaluated at a time, and the recursion over
  // its body literals shares these through marks.
  Binding binding_;
  std::vector<GroundAtomId> matched_;
  std::vector<bool> comparison_done_;
  /// Comparisons resolved so far, in order; each match level unmarks its
  /// own suffix on backtracking.
  std::vector<size_t> done_trail_;
};

// Defined outside the class body, so neither carries the implicit inline
// request of an in-class definition: GCC then keeps EmitInstance out of
// the recursive MatchFrom, whose stack frame every recursion level pays.

template <class Engine>
Status InstantiationCore<Engine>::MatchFrom(const CompiledRule* rule,
                                           size_t literal_index) {
  if (literal_index == rule->positive.size()) return EmitInstance(rule);

  const Atom& pattern = rule->positive[literal_index];
  PredicateExtension& ext = extensions_[rule->positive_preds[literal_index]];
  const auto [range_begin, range_end] = LiteralRange(*rule, literal_index);
  if (range_begin >= range_end) return OkStatus();

  // Pick an argument position that is ground under the current binding
  // to drive an index lookup; fall back to a scan.
  int index_position = -1;
  PackedTerm index_key;
  for (size_t p = 0; p < pattern.args().size(); ++p) {
    index_key = BoundWord(pattern.args()[p], binding_);
    if (index_key.has_value()) {
      index_position = static_cast<int>(p);
      break;
    }
  }

  // The candidate list: either an index bucket or the full range.
  // Buckets are keyed by the argument's packed word, read off the atom
  // table's columnar mirror — no Term hashing on the probe or build path.
  PositionIndex* index = nullptr;
  if (index_position >= 0) {
    if (ext.indexes.empty()) ext.indexes.resize(pattern.args().size());
    index = &ext.indexes[index_position];
    // Extend the index to cover the whole extension (cheap, amortized).
    while (index->indexed_until() < ext.atoms.size()) {
      const GroundAtomId id = ext.atoms[index->indexed_until()];
      if (id == kInvalidGroundAtom) {
        index->Skip();  // Tombstone.
      } else {
        index->Append(atoms().PackedArgs(id)[index_position].bits());
      }
    }
  }

  auto try_candidate = [&](size_t extension_index) -> Status {
    const GroundAtomId id = ext.atoms[extension_index];
    if (id == kInvalidGroundAtom) return OkStatus();  // Tombstone.
    const PackedTerm* candidate_args = atoms().PackedArgs(id);
    const size_t mark = binding_.Mark();
    bool matches = atoms().PackedArity(id) == pattern.args().size();
    for (size_t p = 0; matches && p < pattern.args().size(); ++p) {
      matches = MatchPackedTerm(pattern.args()[p], candidate_args[p],
                                &binding_);
    }
    if (matches) {
      // Resolve comparisons/assignments that just became ground; prune
      // on failure. Assignment bindings land on the same trail and are
      // rewound with the candidate's mark.
      const size_t done_mark = done_trail_.size();
      if (ResolveComparisons(*rule, &binding_, &comparison_done_,
                             &done_trail_)) {
        matched_[literal_index] = id;
        STREAMASP_RETURN_IF_ERROR(MatchFrom(rule, literal_index + 1));
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
    for (uint32_t i = index->First(index_key.bits());
         i != PositionIndex::kEnd; i = index->Next(i)) {
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

template <class Engine>
Status InstantiationCore<Engine>::EmitInstance(const CompiledRule* rule) {
  Engine& engine = static_cast<Engine&>(*this);
  GroundRule ground;
  ground.positive_body.assign(matched_.begin(), matched_.end());
  for (size_t i = 0; i < rule->negatives.size(); ++i) {
    if (!PackInstance(rule->negatives[i], binding_, words_.data())) {
      return OkStatus();  // Undefined arithmetic: skip the instance.
    }
    const GroundAtomId id =
        engine.NegativeInstance(rule->negatives[i], rule->negative_preds[i]);
    if (id == kBlockedInstance) return OkStatus();  // The body never holds.
    if (id != kInvalidGroundAtom) ground.negative_body.push_back(id);
  }
  for (size_t i = 0; i < rule->heads.size(); ++i) {
    if (!PackInstance(rule->heads[i], binding_, words_.data())) {
      return OkStatus();  // Undefined arithmetic: skip the instance.
    }
    ground.head.push_back(
        engine.HeadInstance(rule->heads[i], rule->head_preds[i]));
  }
  return engine.EmitRule(std::move(ground));
}

}  // namespace ground_internal
}  // namespace streamasp

#endif  // STREAMASP_GROUND_INSTANTIATE_H_
