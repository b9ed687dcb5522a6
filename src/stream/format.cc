#include "stream/format.h"

namespace streamasp {

Status DataFormatProcessor::DeclarePredicate(SymbolId predicate,
                                             uint32_t arity) {
  if (arity < 1 || arity > 2) {
    return InvalidArgumentError(
        "RDF triples carry at most a subject and an object; predicate "
        "arity must be 1 or 2, got " +
        std::to_string(arity));
  }
  auto [it, inserted] = arity_of_.emplace(predicate, arity);
  if (!inserted && it->second != arity) {
    return InvalidArgumentError(
        "predicate re-declared with different arity (" +
        std::to_string(it->second) + " vs " + std::to_string(arity) + ")");
  }
  return OkStatus();
}

Status DataFormatProcessor::DeclareInputPredicates(
    const std::vector<PredicateSignature>& signatures) {
  for (const PredicateSignature& sig : signatures) {
    STREAMASP_RETURN_IF_ERROR(DeclarePredicate(sig.name, sig.arity));
  }
  return OkStatus();
}

Status DataFormatProcessor::FillFact(const Triple& triple, Atom* fact) const {
  auto it = arity_of_.find(triple.predicate);
  if (it == arity_of_.end()) {
    return InvalidArgumentError("undeclared stream predicate id " +
                                std::to_string(triple.predicate));
  }
  if (it->second == 1) {
    if (triple.object.has_value()) {
      return InvalidArgumentError("unary predicate received an object");
    }
    fact->Assign(triple.predicate, {triple.subject.ToTerm()});
    return OkStatus();
  }
  if (!triple.object.has_value()) {
    return InvalidArgumentError("binary predicate missing an object");
  }
  fact->Assign(triple.predicate,
               {triple.subject.ToTerm(), triple.object.ToTerm()});
  return OkStatus();
}

StatusOr<Atom> DataFormatProcessor::ToFact(const Triple& triple) const {
  Atom fact;
  STREAMASP_RETURN_IF_ERROR(FillFact(triple, &fact));
  return fact;
}

StatusOr<std::vector<Atom>> DataFormatProcessor::ToFacts(
    const std::vector<Triple>& items) const {
  std::vector<Atom> facts;
  STREAMASP_RETURN_IF_ERROR(ToFacts(items, &facts));
  return facts;
}

Status DataFormatProcessor::ToFacts(const std::vector<Triple>& items,
                                    std::vector<Atom>* facts) const {
  facts->resize(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    STREAMASP_RETURN_IF_ERROR(FillFact(items[i], &(*facts)[i]));
  }
  return OkStatus();
}

StatusOr<Triple> DataFormatProcessor::ToTriple(const Atom& atom) const {
  if (!atom.IsGround()) {
    return InvalidArgumentError("cannot stream a non-ground atom");
  }
  if (atom.arity() == 1) {
    return Triple{atom.args()[0], atom.predicate(), std::nullopt};
  }
  if (atom.arity() == 2) {
    return Triple{atom.args()[0], atom.predicate(), atom.args()[1]};
  }
  return InvalidArgumentError(
      "only arity-1/2 atoms can be rendered as triples, got arity " +
      std::to_string(atom.arity()));
}

}  // namespace streamasp
