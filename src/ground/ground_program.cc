#include "ground/ground_program.h"

#include <cassert>

namespace streamasp {

void IdList::Grow(size_t min_capacity) {
  const size_t capacity = std::max<size_t>(min_capacity, 2 * capacity_);
  GroundAtomId* block = new GroundAtomId[capacity];
  std::copy(begin(), end(), block);
  Free();
  heap_ = block;
  capacity_ = static_cast<uint32_t>(capacity);
}

namespace {

/// Packs an atom's arguments into a stack buffer (heap only beyond
/// kStackArity arguments) and hands the words to `fn`.
template <typename Fn>
auto WithPackedArgs(const Atom& atom, Fn&& fn) {
  constexpr size_t kStackArity = 8;
  PackedTerm stack[kStackArity];
  std::vector<PackedTerm> heap;
  PackedTerm* words = stack;
  if (atom.arity() > kStackArity) {
    heap.resize(atom.arity());
    words = heap.data();
  }
  for (uint32_t i = 0; i < atom.arity(); ++i) {
    words[i] = PackedTerm(atom.args()[i]);
  }
  return fn(static_cast<const PackedTerm*>(words));
}

}  // namespace

uint64_t AtomTable::HashKey(SymbolId predicate, const PackedTerm* args,
                            uint32_t arity) {
  uint64_t h = PackedBitsHash()(predicate);
  for (uint32_t i = 0; i < arity; ++i) {
    h = HashCombine(h, PackedBitsHash()(args[i].bits()));
  }
  return h;
}

bool AtomTable::Equals(GroundAtomId id, SymbolId predicate,
                       const PackedTerm* args, uint32_t arity) const {
  if (predicates_[id] != predicate || PackedArity(id) != arity) return false;
  const PackedTerm* stored = PackedArgs(id);
  for (uint32_t i = 0; i < arity; ++i) {
    if (stored[i] != args[i]) return false;
  }
  return true;
}

GroundAtomId AtomTable::Find(uint64_t hash, SymbolId predicate,
                             const PackedTerm* args, uint32_t arity,
                             size_t* slot) const {
  const size_t mask = index_.size() - 1;
  const uint64_t tag = hash >> 32;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot s = index_[i];
    if (s == 0) {
      *slot = i;
      return kInvalidGroundAtom;
    }
    const GroundAtomId id = static_cast<GroundAtomId>(s) - 1;
    if ((s >> 32) == tag && Equals(id, predicate, args, arity)) return id;
  }
}

void AtomTable::Rehash(size_t slots) {
  index_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (GroundAtomId id = 0; id < size(); ++id) {
    const uint64_t hash =
        HashKey(predicates_[id], PackedArgs(id), PackedArity(id));
    size_t i = hash & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = ((hash >> 32) << 32) | (uint64_t{id} + 1);
  }
}

GroundAtomId AtomTable::InternPacked(SymbolId predicate,
                                     const PackedTerm* args,
                                     uint32_t arity) {
  // Keep the index at most half full (grows before the insert it covers).
  if (2 * (size() + 1) > index_.size()) {
    Rehash(std::max<size_t>(16, 2 * index_.size()));
  }
  const uint64_t hash = HashKey(predicate, args, arity);
  size_t slot = 0;
  const GroundAtomId found = Find(hash, predicate, args, arity, &slot);
  if (found != kInvalidGroundAtom) return found;

  const GroundAtomId id = static_cast<GroundAtomId>(size());
  if (arg_offsets_.empty()) arg_offsets_.push_back(0);  // Moved-from table.
  predicates_.push_back(predicate);
  packed_args_.insert(packed_args_.end(), args, args + arity);
  arg_offsets_.push_back(static_cast<uint32_t>(packed_args_.size()));
  index_[slot] = ((hash >> 32) << 32) | (uint64_t{id} + 1);
  return id;
}

GroundAtomId AtomTable::LookupPacked(SymbolId predicate,
                                     const PackedTerm* args,
                                     uint32_t arity) const {
  if (size() == 0) return kInvalidGroundAtom;
  size_t slot = 0;
  return Find(HashKey(predicate, args, arity), predicate, args, arity,
              &slot);
}

GroundAtomId AtomTable::Intern(const Atom& atom) {
  return WithPackedArgs(atom, [&](const PackedTerm* words) {
    return InternPacked(atom.predicate(), words, atom.arity());
  });
}

GroundAtomId AtomTable::Lookup(const Atom& atom) const {
  return WithPackedArgs(atom, [&](const PackedTerm* words) {
    return LookupPacked(atom.predicate(), words, atom.arity());
  });
}

Atom AtomTable::GetAtom(GroundAtomId id) const {
  assert(id < size());
  const PackedTerm* words = PackedArgs(id);
  const uint32_t arity = PackedArity(id);
  if (arity <= Atom::kInlineArity) {
    Term args[Atom::kInlineArity];
    for (uint32_t i = 0; i < arity; ++i) args[i] = words[i].ToTerm();
    return Atom(predicates_[id], args, arity);
  }
  std::vector<Term> args;
  args.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) args.push_back(words[i].ToTerm());
  return Atom(predicates_[id], args);
}

void AtomTable::Reserve(size_t atoms) {
  predicates_.reserve(atoms);
  arg_offsets_.reserve(atoms + 1);
  packed_args_.reserve(atoms * 2);  // Stream predicates are arity <= 2.
  size_t slots = 16;
  while (slots < 2 * atoms) slots *= 2;
  if (slots > index_.size()) Rehash(slots);
}

void AtomTable::Clear() {
  std::fill(index_.begin(), index_.end(), 0);
  predicates_.clear();
  arg_offsets_.assign(1, 0);
  packed_args_.clear();
}

size_t AtomTable::ApproxBytes() const {
  return index_.capacity() * sizeof(Slot) +
         predicates_.capacity() * sizeof(SymbolId) +
         arg_offsets_.capacity() * sizeof(uint32_t) +
         packed_args_.capacity() * sizeof(PackedTerm);
}

std::string GroundProgram::ToString(const SymbolTable& symbols) const {
  std::string out;
  for (const GroundRule& rule : rules_) {
    for (size_t i = 0; i < rule.head.size(); ++i) {
      if (i > 0) out += " | ";
      out += atoms_.GetAtom(rule.head[i]).ToString(symbols);
    }
    const bool has_body =
        !rule.positive_body.empty() || !rule.negative_body.empty();
    if (has_body || rule.head.empty()) {
      if (!rule.head.empty()) out += " ";
      out += ":- ";
      bool first = true;
      for (GroundAtomId id : rule.positive_body) {
        if (!first) out += ", ";
        first = false;
        out += atoms_.GetAtom(id).ToString(symbols);
      }
      for (GroundAtomId id : rule.negative_body) {
        if (!first) out += ", ";
        first = false;
        out += "not " + atoms_.GetAtom(id).ToString(symbols);
      }
    }
    out += ".\n";
  }
  return out;
}

}  // namespace streamasp
