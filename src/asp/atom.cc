#include "asp/atom.h"

namespace streamasp {

std::string PredicateSignature::ToString(const SymbolTable& symbols) const {
  return symbols.NameOf(name) + "/" + std::to_string(arity);
}

bool Atom::IsGround() const {
  for (const Term& t : args()) {
    if (!t.IsGround()) return false;
  }
  return true;
}

void Atom::CollectVariables(std::vector<SymbolId>* out) const {
  for (const Term& t : args()) {
    t.CollectVariables(out);
  }
}

std::string Atom::ToString(const SymbolTable& symbols) const {
  std::string out = symbols.NameOf(predicate_);
  if (size_ > 0) {
    out += '(';
    for (size_t i = 0; i < size_; ++i) {
      if (i > 0) out += ',';
      out += args()[i].ToString(symbols);
    }
    out += ')';
  }
  return out;
}

size_t Atom::Hash() const {
  size_t h = std::hash<uint32_t>()(predicate_);
  for (const Term& t : args()) {
    h = HashCombine(h, t.Hash());
  }
  return h;
}

}  // namespace streamasp
