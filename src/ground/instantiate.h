#ifndef STREAMASP_GROUND_INSTANTIATE_H_
#define STREAMASP_GROUND_INSTANTIATE_H_

/// Shared machinery of the bottom-up instantiators: variable bindings with
/// trail-based undo, term matching/substitution, comparison resolution,
/// the compiled-rule representation, per-predicate extensions with lazy
/// join indexes, and the equivalence-preserving ground-program
/// simplification. Used by both the batch Grounder (ground/grounder.cc)
/// and the window-to-window IncrementalGrounder
/// (ground/incremental_grounder.cc), which differ only in how they drive
/// these primitives (one-shot semi-naive vs delta-replay over a retained
/// extension cache).

#include <cstdint>
#include <utility>
#include <vector>

#include "asp/atom.h"
#include "asp/literal.h"
#include "asp/packed_term.h"
#include "asp/term.h"
#include "ground/ground_program.h"

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

}  // namespace ground_internal
}  // namespace streamasp

#endif  // STREAMASP_GROUND_INSTANTIATE_H_
