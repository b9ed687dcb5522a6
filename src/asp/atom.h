#ifndef STREAMASP_ASP_ATOM_H_
#define STREAMASP_ASP_ATOM_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "asp/symbol_table.h"
#include "asp/term.h"

namespace streamasp {

/// A predicate signature: name plus arity. Two predicates with the same
/// name but different arities are distinct, as in standard ASP systems.
struct PredicateSignature {
  SymbolId name = kInvalidSymbol;
  uint32_t arity = 0;

  friend bool operator==(const PredicateSignature& a,
                         const PredicateSignature& b) {
    return a.name == b.name && a.arity == b.arity;
  }
  friend bool operator!=(const PredicateSignature& a,
                         const PredicateSignature& b) {
    return !(a == b);
  }
  friend bool operator<(const PredicateSignature& a,
                        const PredicateSignature& b) {
    return a.name != b.name ? a.name < b.name : a.arity < b.arity;
  }

  /// Renders "name/arity".
  std::string ToString(const SymbolTable& symbols) const;
};

struct PredicateSignatureHash {
  size_t operator()(const PredicateSignature& s) const {
    return HashCombine(std::hash<uint32_t>()(s.name),
                       std::hash<uint32_t>()(s.arity));
  }
};

/// A read-only view of an atom's arguments: contiguous terms owned by
/// the atom.
class TermSpan {
 public:
  TermSpan(const Term* data, size_t size) : data_(data), size_(size) {}

  const Term* begin() const { return data_; }
  const Term* end() const { return data_ + size_; }
  const Term* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Term& operator[](size_t i) const { return data_[i]; }

  std::vector<Term> ToVector() const { return {begin(), end()}; }

  friend bool operator==(TermSpan a, TermSpan b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(TermSpan a, TermSpan b) { return !(a == b); }
  friend bool operator<(TermSpan a, TermSpan b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  const Term* data_;
  size_t size_;
};

/// An ASP atom: predicate applied to a (possibly empty) list of terms,
/// e.g. traffic_jam(X) or average_speed(newcastle, 10).
///
/// Up to kInlineArity arguments live inline, so the atoms of stream
/// predicates (arity 1 or 2) own no heap block: an answer atom costs its
/// 40 bytes, and a refilled fact buffer never allocates (Assign).
class Atom {
 public:
  static constexpr uint32_t kInlineArity = 2;

  Atom() {}

  /// Constructs predicate(args...).
  Atom(SymbolId predicate, const std::vector<Term>& args)
      : Atom(predicate, args.data(), args.size()) {}
  Atom(SymbolId predicate, std::initializer_list<Term> args)
      : Atom(predicate, args.begin(), args.size()) {}
  Atom(SymbolId predicate, const Term* args, size_t arity)
      : predicate_(predicate) {
    Init(args, arity);
  }

  Atom(const Atom& other) : predicate_(other.predicate_) {
    Init(other.args().data(), other.size_);
  }
  Atom(Atom&& other) noexcept : predicate_(other.predicate_) {
    Steal(&other);
  }
  Atom& operator=(const Atom& other) {
    if (this != &other) {
      Destroy();
      predicate_ = other.predicate_;
      Init(other.args().data(), other.size_);
    }
    return *this;
  }
  Atom& operator=(Atom&& other) noexcept {
    if (this != &other) {
      Destroy();
      predicate_ = other.predicate_;
      Steal(&other);
    }
    return *this;
  }
  ~Atom() { Destroy(); }

  /// Re-targets this atom to predicate(args...). Allocation-free for up
  /// to kInlineArity arguments — how a reused fact buffer is refilled
  /// window after window.
  void Assign(SymbolId predicate, std::initializer_list<Term> args) {
    Destroy();
    predicate_ = predicate;
    Init(args.begin(), args.size());
  }

  SymbolId predicate() const { return predicate_; }
  TermSpan args() const { return TermSpan(data(), size_); }
  uint32_t arity() const { return size_; }

  /// This atom's name/arity signature.
  PredicateSignature signature() const {
    return PredicateSignature{predicate_, arity()};
  }

  /// True iff no argument contains a variable.
  bool IsGround() const;

  /// Appends all variable ids in argument order (with duplicates).
  void CollectVariables(std::vector<SymbolId>* out) const;

  /// Renders the atom in ASP syntax, e.g. "p(a,3)" or "q" for arity 0.
  std::string ToString(const SymbolTable& symbols) const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate_ == b.predicate_ && a.args() == b.args();
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b) {
    if (a.predicate_ != b.predicate_) return a.predicate_ < b.predicate_;
    return a.args() < b.args();
  }

  size_t Hash() const;

 private:
  bool spilled() const { return size_ > kInlineArity; }
  const Term* data() const { return spilled() ? heap_ : inline_; }

  /// Copy-constructs `arity` terms into empty storage.
  void Init(const Term* args, size_t arity) {
    Term* dst = inline_;
    if (arity > kInlineArity) {
      heap_ = static_cast<Term*>(::operator new(arity * sizeof(Term)));
      dst = heap_;
    }
    for (size_t i = 0; i < arity; ++i) new (dst + i) Term(args[i]);
    size_ = static_cast<uint32_t>(arity);
  }
  /// Takes `other`'s arguments into empty storage; leaves it arity 0.
  void Steal(Atom* other) {
    size_ = other->size_;
    if (other->spilled()) {
      heap_ = other->heap_;
    } else {
      for (uint32_t i = 0; i < size_; ++i) {
        new (inline_ + i) Term(std::move(other->inline_[i]));
        other->inline_[i].~Term();
      }
    }
    other->size_ = 0;
  }
  void Destroy() {
    Term* terms = spilled() ? heap_ : inline_;
    for (uint32_t i = 0; i < size_; ++i) terms[i].~Term();
    if (spilled()) ::operator delete(heap_);
    size_ = 0;
  }

  SymbolId predicate_ = kInvalidSymbol;
  uint32_t size_ = 0;
  union {
    Term inline_[kInlineArity];
    Term* heap_;
  };
};

static_assert(sizeof(Atom) == 40, "Atom must stay 40 bytes");

struct AtomHash {
  size_t operator()(const Atom& a) const { return a.Hash(); }
};

}  // namespace streamasp

#endif  // STREAMASP_ASP_ATOM_H_
