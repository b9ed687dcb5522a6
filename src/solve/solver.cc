#include "solve/solver.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>
#include <vector>

#include "solve/propagation_core.h"

namespace streamasp {

namespace {

enum class Val : int8_t { kUnknown = 0, kTrue = 1, kFalse = 2 };

/// Normalizes `program` for the shared propagation core, appending to
/// `*rules`: disjunctive heads are shifted
/// (a|b :- B  =>  a :- B, not b.  b :- B, not a.), which is complete for
/// head-cycle-free programs; every candidate of a shifted program is
/// later checked for minimality against the original program. Returns
/// true when any rule was shifted.
bool NormalizeRules(const GroundProgram& program,
                    std::vector<PropagationCore::CoreRule>* rules) {
  rules->reserve(program.rules().size());
  bool has_disjunction = false;
  for (const GroundRule& rule : program.rules()) {
    if (rule.head.size() <= 1) {
      PropagationCore::CoreRule nr;
      nr.head = rule.head.empty()
                    ? PropagationCore::CoreRule::kNoHead
                    : static_cast<int32_t>(rule.head[0]);
      nr.pos = rule.positive_body;
      nr.neg = rule.negative_body;
      rules->push_back(std::move(nr));
    } else {
      has_disjunction = true;
      for (size_t i = 0; i < rule.head.size(); ++i) {
        PropagationCore::CoreRule nr;
        nr.head = static_cast<int32_t>(rule.head[i]);
        nr.pos = rule.positive_body;
        nr.neg = rule.negative_body;
        for (size_t j = 0; j < rule.head.size(); ++j) {
          if (j != i) nr.neg.push_back(rule.head[j]);
        }
        rules->push_back(std::move(nr));
      }
    }
  }
  return has_disjunction;
}

/// The cold solve's enumeration policy: no sign guidance, and candidate
/// models verify against the *original* program. Shifted disjunctive
/// candidates must pass the exact minimality check (IsStableModel); a
/// normal program's core holds the original rules verbatim, so its
/// optional verification (SolverOptions::verify_models) runs the core's
/// equivalent VerifyStable over its persistent scratch.
struct ColdSolveClient {
  const GroundProgram& program;
  PropagationCore& core;
  bool has_disjunction;
  bool verify_models;

  bool AcceptModel(const std::vector<GroundAtomId>& atoms) const {
    if (has_disjunction) return IsStableModel(program, atoms);
    return !verify_models || core.VerifyStable(atoms);
  }
  PropagationCore::Val FirstSign(GroundAtomId) const {
    return PropagationCore::Val::kTrue;
  }
};

/// Least model of the definite program given by `rules` (head + positive
/// body only; negative bodies must have been resolved by the caller).
/// Rules with head kNoHead are ignored. Only rules whose index satisfies
/// `enabled` participate.
std::vector<bool> LeastModel(const GroundProgram& program,
                             const std::vector<bool>& rule_enabled) {
  const size_t num_atoms = program.num_atoms();
  const auto& rules = program.rules();
  std::vector<bool> truth(num_atoms, false);
  std::vector<uint32_t> missing(rules.size(), 0);
  std::vector<std::vector<uint32_t>> pos_occ(num_atoms);
  std::deque<GroundAtomId> queue;

  for (uint32_t r = 0; r < rules.size(); ++r) {
    if (!rule_enabled[r] || rules[r].head.size() != 1) continue;
    missing[r] = static_cast<uint32_t>(rules[r].positive_body.size());
    for (GroundAtomId a : rules[r].positive_body) {
      pos_occ[a].push_back(r);
    }
    if (missing[r] == 0 && !truth[rules[r].head[0]]) {
      truth[rules[r].head[0]] = true;
      queue.push_back(rules[r].head[0]);
    }
  }
  while (!queue.empty()) {
    const GroundAtomId a = queue.front();
    queue.pop_front();
    for (uint32_t r : pos_occ[a]) {
      if (--missing[r] == 0) {
        const GroundAtomId h = rules[r].head[0];
        if (!truth[h]) {
          truth[h] = true;
          queue.push_back(h);
        }
      }
    }
  }
  return truth;
}

/// Searches for a model M' of the (disjunctive, definite) reduct that is a
/// proper subset of `model`. Atoms outside `model` are fixed false. Each
/// enabled rule is checked as soon as its last in-model atom is assigned,
/// so a violated rule cuts the branch there instead of at a full
/// assignment. Still exponential in |model| in the worst case; only
/// reached for disjunctive programs.
class ProperSubmodelSearch {
 public:
  ProperSubmodelSearch(const GroundProgram& program,
                       const std::vector<bool>& rule_enabled,
                       const std::vector<GroundAtomId>& model)
      : program_(program), rule_enabled_(rule_enabled), model_(model) {}

  bool Exists() {
    // Assignment over the atoms of `model` only (indexes into model_).
    assignment_.assign(model_.size(), Val::kUnknown);
    index_of_.assign(program_.num_atoms(), -1);
    for (size_t i = 0; i < model_.size(); ++i) {
      index_of_[model_[i]] = static_cast<int32_t>(i);
    }
    // Bucket every rule some M' could violate by the largest model index
    // among its atoms: once that atom is assigned, the rule is decided. A
    // rule with a positive body atom outside the model holds in every M'.
    rules_at_.assign(model_.size(), {});
    for (uint32_t r = 0; r < program_.rules().size(); ++r) {
      if (!rule_enabled_[r]) continue;
      const GroundRule& rule = program_.rules()[r];
      int32_t last = -1;
      bool body_in_model = true;
      for (GroundAtomId a : rule.positive_body) {
        if (index_of_[a] < 0) {
          body_in_model = false;
          break;
        }
        last = std::max(last, index_of_[a]);
      }
      if (!body_in_model) continue;
      for (GroundAtomId h : rule.head) last = std::max(last, index_of_[h]);
      // No atom in the model: the body holds and the head fails in every
      // M', so there is no submodel at all.
      if (last < 0) return false;
      rules_at_[last].push_back(r);
    }
    return Rec(0);
  }

 private:
  /// True when M' (decided on all of `rule`'s in-model atoms) makes the
  /// positive body true and every head atom false.
  bool Violated(const GroundRule& rule) const {
    for (GroundAtomId a : rule.positive_body) {
      if (assignment_[index_of_[a]] != Val::kTrue) return false;
    }
    for (GroundAtomId h : rule.head) {
      const int32_t i = index_of_[h];
      if (i >= 0 && assignment_[i] == Val::kTrue) return false;
    }
    return true;
  }

  bool Rec(size_t next) {
    if (next == model_.size()) {
      // Every rule was checked at its bucket; only properness is left.
      return std::find(assignment_.begin(), assignment_.end(),
                       Val::kFalse) != assignment_.end();
    }
    // Prefer false — we are hunting for a smaller model.
    for (Val value : {Val::kFalse, Val::kTrue}) {
      assignment_[next] = value;
      bool consistent = true;
      for (uint32_t r : rules_at_[next]) {
        if (Violated(program_.rules()[r])) {
          consistent = false;
          break;
        }
      }
      if (consistent && Rec(next + 1)) return true;
    }
    assignment_[next] = Val::kUnknown;
    return false;
  }

  const GroundProgram& program_;
  const std::vector<bool>& rule_enabled_;
  const std::vector<GroundAtomId>& model_;
  std::vector<Val> assignment_;
  std::vector<int32_t> index_of_;
  /// rules_at_[i]: rules whose largest in-model atom index is i.
  std::vector<std::vector<uint32_t>> rules_at_;
};

}  // namespace

bool AnswerSet::Contains(GroundAtomId id) const {
  return std::binary_search(atoms.begin(), atoms.end(), id);
}

bool IsStableModel(const GroundProgram& program,
                   const std::vector<GroundAtomId>& model) {
  assert(std::is_sorted(model.begin(), model.end()));
  const size_t num_atoms = program.num_atoms();
  std::vector<bool> in_model(num_atoms, false);
  for (GroundAtomId a : model) {
    if (a >= num_atoms) return false;
    in_model[a] = true;
  }

  // 1. M must satisfy every rule of the original program.
  const auto& rules = program.rules();
  std::vector<bool> rule_in_reduct(rules.size(), false);
  bool disjunctive_reduct = false;
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const GroundRule& rule = rules[r];
    bool neg_blocked = false;
    for (GroundAtomId a : rule.negative_body) {
      if (in_model[a]) {
        neg_blocked = true;
        break;
      }
    }
    bool pos_holds = true;
    for (GroundAtomId a : rule.positive_body) {
      if (!in_model[a]) {
        pos_holds = false;
        break;
      }
    }
    if (!neg_blocked) {
      rule_in_reduct[r] = true;
      if (rule.head.size() > 1) disjunctive_reduct = true;
    }
    const bool body_true = pos_holds && !neg_blocked;
    if (body_true) {
      bool head_true = false;
      for (GroundAtomId h : rule.head) {
        if (in_model[h]) {
          head_true = true;
          break;
        }
      }
      if (!head_true) return false;  // Unsatisfied rule or constraint.
    }
  }

  // 2. M must be a minimal model of the reduct.
  if (!disjunctive_reduct) {
    const std::vector<bool> least = LeastModel(program, rule_in_reduct);
    for (GroundAtomId a = 0; a < num_atoms; ++a) {
      if (least[a] != in_model[a]) return false;
    }
    return true;
  }
  ProperSubmodelSearch search(program, rule_in_reduct, model);
  return !search.Exists();
}

SolveWorkspace::SolveWorkspace() : core_(std::make_unique<PropagationCore>()) {}
SolveWorkspace::~SolveWorkspace() = default;
SolveWorkspace::SolveWorkspace(SolveWorkspace&&) noexcept = default;
SolveWorkspace& SolveWorkspace::operator=(SolveWorkspace&&) noexcept =
    default;

StatusOr<std::vector<AnswerSet>> Solver::Solve(
    const GroundProgram& program) const {
  SolveWorkspace workspace;
  return Solve(program, &workspace);
}

StatusOr<std::vector<AnswerSet>> Solver::Solve(
    const GroundProgram& program, SolveWorkspace* workspace) const {
  const std::vector<GroundRule>& rules = program.rules();
  if (std::all_of(rules.begin(), rules.end(),
                  [](const GroundRule& rule) { return rule.is_fact(); })) {
    // A facts-only program (what the grounder leaves of a stratified one)
    // has exactly one answer set, its facts: no core, no search.
    AnswerSet model;
    model.atoms.reserve(rules.size());
    for (const GroundRule& rule : rules) model.atoms.push_back(rule.head[0]);
    std::sort(model.atoms.begin(), model.atoms.end());
    model.atoms.erase(std::unique(model.atoms.begin(), model.atoms.end()),
                      model.atoms.end());
    std::vector<AnswerSet> models;
    models.push_back(std::move(model));
    return models;
  }
  PropagationCore& core = *workspace->core_;
  bool has_disjunction = false;
  core.BuildFromRules(program.num_atoms(),
                      [&](std::vector<PropagationCore::CoreRule>* rules) {
                        has_disjunction = NormalizeRules(program, rules);
                      });

  ColdSolveClient client{program, core, has_disjunction,
                         options_.verify_models};
  std::vector<AnswerSet> models;
  STREAMASP_RETURN_IF_ERROR(core.Enumerate(options_, client, &models));
  return models;
}

}  // namespace streamasp
