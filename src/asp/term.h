#ifndef STREAMASP_ASP_TERM_H_
#define STREAMASP_ASP_TERM_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "asp/symbol_table.h"

namespace streamasp {

/// Kinds of ASP terms.
enum class TermKind : uint8_t {
  kInteger,     ///< 64-bit integer constant, e.g. 20.
  kSymbol,      ///< Symbolic constant, e.g. newcastle.
  kVariable,    ///< Variable, e.g. X.
  kFunction,    ///< Compound term, e.g. pos(3, 4).
  kArithmetic,  ///< Arithmetic expression, e.g. X + 1.
};

/// Binary arithmetic operators (unary minus is encoded as 0 - x).
enum class ArithOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,  ///< Integer division; division by zero is undefined.
  kMod,  ///< Remainder; modulo zero is undefined.
};

/// Returns the surface syntax of an operator ("+", "-", ...).
const char* ArithOpToString(ArithOp op);

/// An ASP term: integer, symbolic constant, variable, or compound function
/// term. Value type with deep equality and hashing, two words wide: the
/// payload and a tagged word holding the kind in its low bits and, for
/// compound terms, a pointer to a shared reference-counted argument block,
/// so copies are cheap and a term nests inline in atoms and bindings.
class Term {
 public:
  /// Creates an integer term.
  static Term Integer(int64_t value);

  /// Creates a symbolic-constant term from an interned symbol.
  static Term Symbol(SymbolId id);

  /// Creates a variable term from an interned variable name.
  static Term Variable(SymbolId id);

  /// Creates a compound term functor(args...). Requires !args.empty();
  /// a zero-arity functor should be a Symbol instead.
  static Term Function(SymbolId functor, std::vector<Term> args);

  /// Creates the arithmetic expression `lhs op rhs`. Ground integer
  /// operands are constant-folded to an integer term immediately (division
  /// and modulo by zero are left unfolded, i.e. undefined).
  static Term Arithmetic(ArithOp op, Term lhs, Term rhs);

  /// Default-constructs the integer 0 (so Term is regular).
  Term() : Term(TermKind::kInteger, 0) {}

  Term(const Term& other) : value_(other.value_), rep_(other.rep_) {
    Retain();
  }
  Term(Term&& other) noexcept : value_(other.value_), rep_(other.rep_) {
    other.value_ = 0;
    other.rep_ = static_cast<uintptr_t>(TermKind::kInteger);
  }
  Term& operator=(const Term& other) {
    Term copy(other);
    Swap(copy);
    return *this;
  }
  Term& operator=(Term&& other) noexcept {
    Term moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~Term() { Release(); }

  TermKind kind() const { return static_cast<TermKind>(rep_ & kKindMask); }
  bool is_integer() const { return kind() == TermKind::kInteger; }
  bool is_symbol() const { return kind() == TermKind::kSymbol; }
  bool is_variable() const { return kind() == TermKind::kVariable; }
  bool is_function() const { return kind() == TermKind::kFunction; }
  bool is_arithmetic() const { return kind() == TermKind::kArithmetic; }

  /// Integer payload. Requires is_integer().
  int64_t integer_value() const { return value_; }

  /// Symbol id of a constant, variable name, or functor. Requires
  /// is_symbol(), is_variable() or is_function().
  SymbolId symbol() const { return static_cast<SymbolId>(value_); }

  /// The operator of an arithmetic term. Requires is_arithmetic().
  ArithOp arith_op() const { return static_cast<ArithOp>(value_); }

  /// Arguments of a compound or arithmetic term (arithmetic terms have
  /// exactly two: lhs, rhs). Requires is_function() || is_arithmetic().
  const std::vector<Term>& args() const;

  /// True iff the term contains no variables (recursively).
  bool IsGround() const;

  /// Appends the interned ids of all variables in this term to *out
  /// (duplicates preserved, left-to-right order).
  void CollectVariables(std::vector<SymbolId>* out) const;

  /// Like CollectVariables, but skips variables nested inside arithmetic
  /// subterms: matching a pattern against a ground atom can bind X in
  /// p(X) but not in p(X + 1), so only the former count for rule safety.
  void CollectBindableVariables(std::vector<SymbolId>* out) const;

  /// Evaluates a ground arithmetic expression to an integer. Returns
  /// false (leaving *out untouched) when the term is non-ground, contains
  /// symbolic operands, divides by zero, or overflows in division edge
  /// cases. Plain integers evaluate to themselves.
  bool EvaluateArithmetic(int64_t* out) const;

  /// Renders the term using `symbols` for names, in ASP syntax.
  std::string ToString(const SymbolTable& symbols) const;

  /// Deep structural equality.
  friend bool operator==(const Term& a, const Term& b);
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

  /// Total order (by kind, then payload) used for canonical sorting of
  /// ground atoms in answer sets.
  friend bool operator<(const Term& a, const Term& b);

  /// Deep hash compatible with operator==.
  size_t Hash() const;

 private:
  /// The shared argument block of a compound term.
  struct Node;

  static constexpr uintptr_t kKindMask = 7;

  Term(TermKind kind, int64_t value)
      : value_(value), rep_(static_cast<uintptr_t>(kind)) {}
  /// A compound term owning a fresh argument block.
  Term(TermKind kind, int64_t value, std::vector<Term> args);

  Node* node() const { return reinterpret_cast<Node*>(rep_ & ~kKindMask); }
  void Retain() const;
  void Release();
  void Swap(Term& other) noexcept {
    std::swap(value_, other.value_);
    std::swap(rep_, other.rep_);
  }

  int64_t value_;  // Integer payload, SymbolId, or ArithOp by kind.
  /// Kind in the low three bits; for kFunction (n-ary) and kArithmetic
  /// (always binary) the rest is the 8-aligned Node pointer.
  uintptr_t rep_;
};

static_assert(sizeof(Term) == 16, "Term must stay two words");

struct Term::Node {
  std::atomic<uint32_t> refs{1};
  std::vector<Term> args;
};

inline const std::vector<Term>& Term::args() const { return node()->args; }

inline void Term::Retain() const {
  if (Node* n = node()) n->refs.fetch_add(1, std::memory_order_relaxed);
}

inline void Term::Release() {
  Node* n = node();
  if (n != nullptr && n->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete n;
  }
}

/// Hash functor so Term can key unordered containers.
struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

/// Combines a hash into a running seed (boost::hash_combine recipe).
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace streamasp

#endif  // STREAMASP_ASP_TERM_H_
