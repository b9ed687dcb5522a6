#ifndef STREAMASP_GROUND_GROUND_PROGRAM_H_
#define STREAMASP_GROUND_GROUND_PROGRAM_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "asp/atom.h"
#include "asp/packed_term.h"
#include "asp/symbol_table.h"

namespace streamasp {

/// Dense id of a ground atom within one grounding.
using GroundAtomId = uint32_t;

/// Sentinel for "no atom".
inline constexpr GroundAtomId kInvalidGroundAtom =
    static_cast<GroundAtomId>(-1);

/// A short list of ground atom ids with inline storage for up to kInline
/// ids; longer lists spill to one heap block. Ground rules are
/// overwhelmingly short (one head, a few body literals), so the common
/// rule owns no heap block at all: a rule vector cleared between windows
/// refills without allocating, and a rule is its 72 inline bytes where
/// three std::vectors would add three heap blocks. Exposes the subset of
/// std::vector's interface the grounders and solvers use.
class IdList {
 public:
  static constexpr uint32_t kInline = 4;

  using value_type = GroundAtomId;
  using iterator = GroundAtomId*;
  using const_iterator = const GroundAtomId*;

  IdList() {}
  IdList(std::initializer_list<GroundAtomId> ids) {
    assign(ids.begin(), ids.end());
  }
  IdList(const IdList& other) { assign(other.begin(), other.end()); }
  IdList(IdList&& other) noexcept { Steal(&other); }
  IdList& operator=(const IdList& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  IdList& operator=(IdList&& other) noexcept {
    if (this != &other) {
      Free();
      Steal(&other);
    }
    return *this;
  }
  ~IdList() { Free(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  GroundAtomId* data() { return spilled() ? heap_ : inline_; }
  const GroundAtomId* data() const { return spilled() ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  GroundAtomId& operator[](size_t i) { return data()[i]; }
  GroundAtomId operator[](size_t i) const { return data()[i]; }
  GroundAtomId front() const { return data()[0]; }

  void clear() { size_ = 0; }
  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  void push_back(GroundAtomId id) {
    if (size_ == capacity_) Grow(size_ + 1);
    data()[size_++] = id;
  }
  template <typename It>
  void assign(It first, It last) {
    const size_t n = static_cast<size_t>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<uint32_t>(n);
  }
  /// Erases [first, last), shifting the tail down; returns first.
  iterator erase(iterator first, iterator last) {
    const iterator tail_end = std::copy(last, end(), first);
    size_ = static_cast<uint32_t>(tail_end - begin());
    return first;
  }

  friend bool operator==(const IdList& a, const IdList& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const IdList& a, const IdList& b) {
    return !(a == b);
  }

 private:
  bool spilled() const { return capacity_ > kInline; }
  void Grow(size_t min_capacity);
  void Free() {
    if (spilled()) delete[] heap_;
  }
  /// Takes `other`'s contents and leaves it empty and inline.
  void Steal(IdList* other) {
    size_ = other->size_;
    capacity_ = other->capacity_;
    if (other->spilled()) {
      heap_ = other->heap_;
    } else {
      std::copy(other->inline_, other->inline_ + other->size_, inline_);
    }
    other->size_ = 0;
    other->capacity_ = kInline;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
  union {
    GroundAtomId inline_[kInline];
    GroundAtomId* heap_;
  };
};

static_assert(sizeof(IdList) == 24, "IdList must stay one vector header");

/// Bidirectional map between ground atoms and dense ids, used to give the
/// solver an integer-indexed view of the ground program.
///
/// Atoms are stored packed: per id the predicate plus one tagged 64-bit
/// word per argument in a columnar mirror, which the grounders' match
/// loops and join indexes read slot-wise. The intern index is an
/// open-addressing table of (id, hash tag) words keyed by
/// (predicate, packed argument words): a probe hashes and compares a few
/// words, never a Term tree, and interning a new atom appends to three
/// flat arrays without allocating once their capacity is warm. Atoms are
/// rebuilt from their words on demand (GetAtom). Clear() forgets every
/// atom but keeps all capacity, so a table reused across windows stops
/// allocating after the largest window it has seen.
class AtomTable {
 public:
  AtomTable() = default;

  AtomTable(const AtomTable&) = default;
  AtomTable& operator=(const AtomTable&) = default;
  AtomTable(AtomTable&&) noexcept = default;
  AtomTable& operator=(AtomTable&&) noexcept = default;

  /// Returns the id for `atom`, interning on first use.
  GroundAtomId Intern(const Atom& atom);

  /// Returns the id for predicate(args[0], ..., args[arity - 1]),
  /// interning on first use — the grounders' hot path, which packs
  /// instances straight from a binding without building an Atom.
  GroundAtomId InternPacked(SymbolId predicate, const PackedTerm* args,
                            uint32_t arity);

  /// Returns the id for `atom` or kInvalidGroundAtom if never interned.
  GroundAtomId Lookup(const Atom& atom) const;

  /// Packed-word form of Lookup.
  GroundAtomId LookupPacked(SymbolId predicate, const PackedTerm* args,
                            uint32_t arity) const;

  /// The atom for an id, rebuilt from its packed words. Requires a valid
  /// id.
  Atom GetAtom(GroundAtomId id) const;

  /// The predicate and signature of an id without rebuilding the atom.
  SymbolId Predicate(GroundAtomId id) const { return predicates_[id]; }
  PredicateSignature Signature(GroundAtomId id) const {
    return PredicateSignature{predicates_[id], PackedArity(id)};
  }

  /// The packed argument words of an id, PackedArity(id) slots. Requires
  /// a valid id; the pointer is invalidated by the next Intern.
  const PackedTerm* PackedArgs(GroundAtomId id) const {
    return packed_args_.data() + arg_offsets_[id];
  }
  uint32_t PackedArity(GroundAtomId id) const {
    return arg_offsets_[id + 1] - arg_offsets_[id];
  }

  /// Pre-sizes the table for `atoms` entries (e.g. the previous window's
  /// atom count in the incremental engines).
  void Reserve(size_t atoms);

  /// Forgets every atom (ids restart at 0) and keeps all capacity.
  void Clear();

  /// Retained bytes: the capacity of every array, index included — what
  /// the table holds between windows, not just what its atoms use.
  size_t ApproxBytes() const;

  size_t size() const { return predicates_.size(); }

 private:
  /// Index slot: 0 when empty, else (hash tag << 32) | (id + 1).
  using Slot = uint64_t;

  static uint64_t HashKey(SymbolId predicate, const PackedTerm* args,
                          uint32_t arity);
  bool Equals(GroundAtomId id, SymbolId predicate, const PackedTerm* args,
              uint32_t arity) const;
  /// Probes for the key; returns the matching id, or kInvalidGroundAtom
  /// with *slot set to the empty slot where it would be inserted.
  GroundAtomId Find(uint64_t hash, SymbolId predicate,
                    const PackedTerm* args, uint32_t arity,
                    size_t* slot) const;
  void Rehash(size_t slots);

  std::vector<Slot> index_;  ///< Power-of-two size, at most half full.
  std::vector<SymbolId> predicates_;
  /// Columnar packed mirror of every atom's arguments: atom id's slots
  /// are packed_args_[arg_offsets_[id] .. arg_offsets_[id + 1]).
  std::vector<uint32_t> arg_offsets_{0};
  std::vector<PackedTerm> packed_args_;
};

/// A variable-free rule over dense atom ids:
///
///   head[0] | ... | head[h-1]
///     :- positive_body..., not negative_body... .
///
/// head.empty() encodes an integrity constraint.
struct GroundRule {
  IdList head;
  IdList positive_body;
  IdList negative_body;

  bool is_fact() const {
    return head.size() == 1 && positive_body.empty() &&
           negative_body.empty();
  }
  bool is_constraint() const { return head.empty(); }

  friend bool operator==(const GroundRule& a, const GroundRule& b) {
    return a.head == b.head && a.positive_body == b.positive_body &&
           a.negative_body == b.negative_body;
  }
};

/// The window-to-window change of a persistent ground-rule store, as
/// published by IncrementalGrounder after every GroundWindow call and
/// consumed by IncrementalSolver to patch its search structures instead of
/// rebuilding them. Atom ids are stable across the windows a delta spans:
/// the producing grounder interns atoms into one persistent AtomTable, so
/// solver-side per-atom indices survive (only a full_rebuild resets them).
///
/// The store itself is a dense vector<GroundRule> kept compact by
/// swap-compaction; the delta therefore describes an exact replay recipe
/// rather than rule identities:
///   1. `retracted_slots` lists the killed slots in descending order —
///      the exact order the producer compacted them. A consumer mirroring
///      the store replays each step as "move the last rule into the hole
///      (if distinct), then shrink by one", which keeps its own indices
///      aligned with the producer's slot numbering.
///   2. rules [new_rules_begin, store.size()) were appended this window.
///   3. `fact_delta` is the net multiplicity change of the *window fact*
///      rules, which live outside the store (they change every window).
struct GroundingDelta {
  /// The cache was rebuilt from scratch (first window, oversized delta,
  /// compaction, prior error): slot numbering and atom ids both restart,
  /// so consumers must drop mirrored state and re-ingest the whole store.
  /// fact_delta then carries the full window multiset as additions.
  bool full_rebuild = true;

  /// The producer recovered this window by snapshot diff because the
  /// caller's delta hint could not be applied (chain gap after a
  /// kDropOldest eviction, or an inconsistent hint). The replay recipe is
  /// exact — slot numbering and atom ids are unaffected — but consumers
  /// that maintain state keyed on the *continuity* of the hint chain
  /// (e.g. IncrementalSolver's maintained fixpoint) reset it deliberately
  /// instead of relying on downstream desync detection. Always false on a
  /// full_rebuild and for hint-less callers (who diff every window by
  /// design).
  bool resynced = false;

  /// Sequence number of the window this delta produced.
  uint64_t sequence = 0;

  /// Sequence number of the cached window this delta transitions FROM
  /// (meaningful iff !full_rebuild). Lets a mirroring consumer verify
  /// the exactly-once-in-order application chain even when the rule
  /// delta happens to be empty.
  uint64_t previous_sequence = 0;

  /// Store size before retraction, for consumer-side sync validation.
  size_t store_size_before = 0;

  /// Killed store slots in descending (compaction-replay) order.
  std::vector<uint32_t> retracted_slots;

  /// First store index of this window's newly instantiated rules.
  size_t new_rules_begin = 0;

  /// Net change per window-fact atom: positive counts admit copies of the
  /// fact rule {id.}, negative counts expire them.
  std::vector<std::pair<GroundAtomId, int64_t>> fact_delta;
};

/// The output of grounding: a propositional (variable-free) program, its
/// atom table, and bookkeeping used by the solver and by tests.
class GroundProgram {
 public:
  GroundProgram() = default;

  GroundProgram(AtomTable atoms, std::vector<GroundRule> rules)
      : atoms_(std::move(atoms)), rules_(std::move(rules)) {}

  GroundProgram(const GroundProgram&) = default;
  GroundProgram& operator=(const GroundProgram&) = default;
  GroundProgram(GroundProgram&&) noexcept = default;
  GroundProgram& operator=(GroundProgram&&) noexcept = default;

  const AtomTable& atoms() const { return atoms_; }
  AtomTable& mutable_atoms() { return atoms_; }

  const std::vector<GroundRule>& rules() const { return rules_; }
  std::vector<GroundRule>& mutable_rules() { return rules_; }

  void AddRule(GroundRule rule) { rules_.push_back(std::move(rule)); }

  /// Number of interned ground atoms (ids are 0..num_atoms()-1).
  size_t num_atoms() const { return atoms_.size(); }

  /// Renders the ground program in ASP syntax, one rule per line.
  std::string ToString(const SymbolTable& symbols) const;

 private:
  AtomTable atoms_;
  std::vector<GroundRule> rules_;
};

}  // namespace streamasp

#endif  // STREAMASP_GROUND_GROUND_PROGRAM_H_
