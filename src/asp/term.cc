#include "asp/term.h"

#include <cassert>
#include <cstdint>

namespace streamasp {

namespace {

/// lhs op rhs; false (leaving *out untouched) for division or modulo by
/// zero and the INT64_MIN / -1 edge case.
bool ApplyArithOp(ArithOp op, int64_t lhs, int64_t rhs, int64_t* out) {
  switch (op) {
    case ArithOp::kAdd:
      *out = lhs + rhs;
      return true;
    case ArithOp::kSub:
      *out = lhs - rhs;
      return true;
    case ArithOp::kMul:
      *out = lhs * rhs;
      return true;
    case ArithOp::kDiv:
      if (rhs == 0 || (lhs == INT64_MIN && rhs == -1)) return false;
      *out = lhs / rhs;
      return true;
    case ArithOp::kMod:
      if (rhs == 0 || (lhs == INT64_MIN && rhs == -1)) return false;
      *out = lhs % rhs;
      return true;
  }
  return false;
}

}  // namespace

Term Term::Integer(int64_t value) { return Term(TermKind::kInteger, value); }

Term Term::Symbol(SymbolId id) {
  return Term(TermKind::kSymbol, static_cast<int64_t>(id));
}

Term Term::Variable(SymbolId id) {
  return Term(TermKind::kVariable, static_cast<int64_t>(id));
}

Term::Term(TermKind kind, int64_t value, std::vector<Term> args)
    : Term(kind, value) {
  static_assert(alignof(Node) > kKindMask, "no room for the kind tag");
  Node* n = new Node;
  n->args = std::move(args);
  rep_ |= reinterpret_cast<uintptr_t>(n);
}

Term Term::Function(SymbolId functor, std::vector<Term> args) {
  assert(!args.empty() && "zero-arity function should be a Symbol");
  return Term(TermKind::kFunction, static_cast<int64_t>(functor),
              std::move(args));
}

Term Term::Arithmetic(ArithOp op, Term lhs, Term rhs) {
  // Fold ground integer operands without building the expression.
  int64_t l = 0;
  int64_t r = 0;
  int64_t folded = 0;
  if (lhs.EvaluateArithmetic(&l) && rhs.EvaluateArithmetic(&r) &&
      ApplyArithOp(op, l, r, &folded)) {
    return Integer(folded);
  }
  return Term(TermKind::kArithmetic, static_cast<int64_t>(op),
              std::vector<Term>{std::move(lhs), std::move(rhs)});
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "\\";
  }
  return "?";
}

bool Term::IsGround() const {
  switch (kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return true;
    case TermKind::kVariable:
      return false;
    case TermKind::kFunction:
    case TermKind::kArithmetic:
      for (const Term& arg : args()) {
        if (!arg.IsGround()) return false;
      }
      return true;
  }
  return false;
}

void Term::CollectVariables(std::vector<SymbolId>* out) const {
  switch (kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
      return;
    case TermKind::kVariable:
      out->push_back(symbol());
      return;
    case TermKind::kFunction:
    case TermKind::kArithmetic:
      for (const Term& arg : args()) {
        arg.CollectVariables(out);
      }
      return;
  }
}

void Term::CollectBindableVariables(std::vector<SymbolId>* out) const {
  switch (kind()) {
    case TermKind::kInteger:
    case TermKind::kSymbol:
    case TermKind::kArithmetic:  // Matching cannot invert arithmetic.
      return;
    case TermKind::kVariable:
      out->push_back(symbol());
      return;
    case TermKind::kFunction:
      for (const Term& arg : args()) {
        arg.CollectBindableVariables(out);
      }
      return;
  }
}

bool Term::EvaluateArithmetic(int64_t* out) const {
  switch (kind()) {
    case TermKind::kInteger:
      *out = value_;
      return true;
    case TermKind::kSymbol:
    case TermKind::kVariable:
    case TermKind::kFunction:
      return false;
    case TermKind::kArithmetic: {
      int64_t lhs = 0;
      int64_t rhs = 0;
      return args()[0].EvaluateArithmetic(&lhs) &&
             args()[1].EvaluateArithmetic(&rhs) &&
             ApplyArithOp(arith_op(), lhs, rhs, out);
    }
  }
  return false;
}

std::string Term::ToString(const SymbolTable& symbols) const {
  switch (kind()) {
    case TermKind::kInteger:
      return std::to_string(value_);
    case TermKind::kSymbol:
    case TermKind::kVariable:
      return symbols.NameOf(symbol());
    case TermKind::kFunction: {
      std::string out = symbols.NameOf(symbol());
      out += '(';
      for (size_t i = 0; i < args().size(); ++i) {
        if (i > 0) out += ',';
        out += args()[i].ToString(symbols);
      }
      out += ')';
      return out;
    }
    case TermKind::kArithmetic:
      // Fully parenthesized: precedence was resolved at parse time.
      return "(" + args()[0].ToString(symbols) + ArithOpToString(arith_op()) +
             args()[1].ToString(symbols) + ")";
  }
  return "?";
}

bool operator==(const Term& a, const Term& b) {
  if (a.rep_ == b.rep_) return a.value_ == b.value_;  // Same kind and block.
  if (a.kind() != b.kind() || a.value_ != b.value_) return false;
  if (!a.is_function() && !a.is_arithmetic()) return true;
  return a.args() == b.args();
}

bool operator<(const Term& a, const Term& b) {
  if (a.kind() != b.kind()) return a.kind() < b.kind();
  if (a.value_ != b.value_) return a.value_ < b.value_;
  if (!a.is_function() && !a.is_arithmetic()) return false;
  if (a.node() == b.node()) return false;
  return a.args() < b.args();  // Lexicographic via vector's operator<.
}

size_t Term::Hash() const {
  size_t h = HashCombine(static_cast<size_t>(kind()),
                         std::hash<int64_t>()(value_));
  if (is_function() || is_arithmetic()) {
    for (const Term& arg : args()) {
      h = HashCombine(h, arg.Hash());
    }
  }
  return h;
}

}  // namespace streamasp
