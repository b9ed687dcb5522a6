#include "ground/incremental_grounder.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ground/instantiate.h"

namespace streamasp {

namespace {

using ground_internal::CompiledRule;
using ground_internal::PredicateExtension;

constexpr uint32_t kNoPosition = static_cast<uint32_t>(-1);
constexpr int kUntracked = -2;  ///< atom_pred_ of an atom not yet tracked.

/// Net per-atom change between two fact multisets.
using NetDelta = std::unordered_map<Atom, int64_t, AtomHash>;

}  // namespace

/// The retained instantiation state, a client of the shared grounding core
/// (the cold Grounder's plan and semi-naive matcher). Extensions, the atom
/// table and the emitted rule store persist across GroundWindow calls, and
/// each window replays only its fact delta. Its policies on the core:
///  * literals outside the component under evaluation see the window's
///    admissions [window_start, end) as their delta in round 1 only;
///  * negative literals are never eagerly resolved against "final"
///    extensions (extensions are never final across windows) — the
///    per-window simplification pass recovers the lost pruning;
///  * emitted rules carry support/dependency bookkeeping so expired facts
///    retract their dependent instances (support counting), and retracted
///    atoms leave tombstones in their extensions.
class IncrementalGrounder::Engine
    : public ground_internal::InstantiationCore<IncrementalGrounder::Engine> {
 public:
  Engine(const Program* program, GroundingOptions options,
         IncrementalGroundingOptions incremental)
      : InstantiationCore(PrepareGrounding(program)),
        options_(options),
        inc_(incremental) {
    for (const CompiledRule& rule : plan_->compiled) {
      if (rule.positive.empty()) groundless_.push_back(&rule);
    }
  }

  Status GroundWindow(uint64_t sequence, const std::vector<Atom>& facts,
                      const FactDelta* delta, GroundingStats* stats);

  void Invalidate() { cache_valid_ = false; }
  bool cache_valid() const { return cache_valid_; }
  bool assembles_output() const { return inc_.assemble_output; }
  uint64_t cached_sequence() const { return cached_sequence_; }
  const GroundProgram& output() const { return ground_; }
  const std::vector<GroundRule>& store() const { return store_; }
  const AtomTable& atom_table() const { return ground_.atoms(); }
  const GroundingDelta& last_delta() const { return delta_; }
  const GroundingStats& call_stats() const { return call_stats_; }

 private:
  friend class InstantiationCore<Engine>;

  // --- policies on the shared core ---
  Range ExternalRange(const PredicateExtension& ext, size_t position) const {
    // An earlier component's (or an input-only) predicate: its delta is
    // this window's admissions, consumed in round 1 only.
    if (!round1_) return {0, ext.atoms.size()};
    const size_t delta_position = static_cast<size_t>(delta_position_);
    if (position < delta_position) return {0, ext.window_start};
    if (position == delta_position) return {ext.window_start, ext.atoms.size()};
    return {0, ext.atoms.size()};
  }
  GroundAtomId NegativeInstance(const Atom& pattern, int pred) {
    return InternInstance(pattern, pred);
  }
  GroundAtomId HeadInstance(const Atom& pattern, int pred) {
    const GroundAtomId id = InternInstance(pattern, pred);
    if (!derivable_[id]) Derive(id);
    return id;
  }
  Status EmitRule(GroundRule rule);

  // --- dynamic cache primitives ---
  GroundAtomId InternAtom(const Atom& atom);
  /// Interns the instance of `pattern` packed in words_ (see
  /// PackInstance); `pred` is the pattern's predicate index.
  GroundAtomId InternInstance(const Atom& pattern, int pred);
  /// Sizes the per-atom arrays to cover `id`.
  void TrackAtom(GroundAtomId id);
  void Derive(GroundAtomId id);
  GroundAtomId AddDerivedAtom(const Atom& atom);
  void RetractAtom(GroundAtomId id, std::vector<GroundAtomId>* worklist);
  /// Marks a store rule dead (kills compact away in CompactStore).
  void KillRule(uint32_t slot, std::vector<GroundAtomId>* worklist);
  /// Swap-compacts the marked dead slots out of the dense store.
  void CompactStore();
  void RemoveBodyRef(GroundAtomId atom, uint32_t slot);
  /// Builds the per-window output: scratch copy of the store + window
  /// fact rules, optionally simplified; fills the output stat counters.
  void AssembleOutput();

  // --- per-window phases ---
  Status ComputeNetDelta(const std::vector<Atom>& facts,
                         const FactDelta* delta, NetDelta* net,
                         bool* used_snapshot_diff) const;
  Status ApplyNetDelta(const NetDelta& net);
  Status CheckWindowCounts(const std::vector<Atom>& facts) const;
  Status Rebuild(const std::vector<Atom>& facts);
  Status EvaluateWindow();
  Status EvaluateComponentIncremental(
      int component, const std::vector<const CompiledRule*>& rules);

  GroundingOptions options_;
  IncrementalGroundingOptions inc_;
  /// Rules with no positive body atoms: their instances are independent of
  /// the input facts, so they fire once per rebuild and persist.
  std::vector<const CompiledRule*> groundless_;
  /// Round 1 of a component's evaluation (see ExternalRange).
  bool round1_ = false;

  // --- dynamic cache (reset by Rebuild); ground_ owns the atom table and
  // the per-window output ---
  bool cache_valid_ = false;
  uint64_t cached_sequence_ = 0;
  std::vector<bool> derivable_;
  /// Atom id -> predicate index; -1 for a predicate no rule mentions.
  std::vector<int> atom_pred_;
  std::vector<uint32_t> support_;      ///< Deriving rules + window count.
  std::vector<uint32_t> ext_pos_;      ///< Atom id -> extension position.
  std::vector<std::vector<uint32_t>> body_rules_;  ///< Atom -> rule slots.
  /// The cached instantiation, kept dense by swap-compaction after each
  /// retraction batch; the per-window output program is a scratch copy of
  /// it (plus the window's fact rules) so per-window simplification never
  /// touches the cache.
  std::vector<GroundRule> store_;
  std::vector<bool> alive_;            ///< Per store slot; all true between
                                       ///< windows (kills compact away).
  std::vector<uint32_t> dead_slots_;   ///< Kill batch awaiting compaction.
  size_t tombstoned_atoms_ = 0;
  std::unordered_map<Atom, uint32_t, AtomHash> window_counts_;
  size_t window_total_ = 0;

  /// Replay recipe of the last GroundWindow call (see ground_program.h).
  GroundingDelta delta_;

  GroundingStats call_stats_;
};

void IncrementalGrounder::Engine::TrackAtom(GroundAtomId id) {
  if (id >= atom_pred_.size()) {
    atom_pred_.resize(id + 1, kUntracked);
    derivable_.resize(id + 1, false);
    support_.resize(id + 1, 0);
    ext_pos_.resize(id + 1, kNoPosition);
    body_rules_.resize(id + 1);
  }
}

GroundAtomId IncrementalGrounder::Engine::InternAtom(const Atom& atom) {
  const GroundAtomId id = atoms().Intern(atom);
  TrackAtom(id);
  if (atom_pred_[id] == kUntracked) {
    atom_pred_[id] = plan_->PredIndexOf(atom.signature());
  }
  return id;
}

GroundAtomId IncrementalGrounder::Engine::InternInstance(const Atom& pattern,
                                                         int pred) {
  const GroundAtomId id = atoms().InternPacked(
      pattern.predicate(), words_.data(), pattern.arity());
  TrackAtom(id);
  if (atom_pred_[id] == kUntracked) atom_pred_[id] = pred;
  return id;
}

void IncrementalGrounder::Engine::Derive(GroundAtomId id) {
  assert(!derivable_[id]);
  derivable_[id] = true;
  if (atom_pred_[id] < 0) return;  // No rule reads it: no extension.
  PredicateExtension& ext = extensions_[atom_pred_[id]];
  ext_pos_[id] = static_cast<uint32_t>(ext.atoms.size());
  ext.atoms.push_back(id);
}

GroundAtomId IncrementalGrounder::Engine::AddDerivedAtom(const Atom& atom) {
  const GroundAtomId id = InternAtom(atom);
  if (!derivable_[id]) Derive(id);
  return id;
}

void IncrementalGrounder::Engine::RemoveBodyRef(GroundAtomId atom,
                                                uint32_t slot) {
  std::vector<uint32_t>& refs = body_rules_[atom];
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i] == slot) {
      refs[i] = refs.back();
      refs.pop_back();
      return;
    }
  }
}

void IncrementalGrounder::Engine::KillRule(
    uint32_t slot, std::vector<GroundAtomId>* worklist) {
  assert(alive_[slot]);
  alive_[slot] = false;
  ++call_stats_.rules_retracted;
  const GroundRule& rule = store_[slot];
  for (GroundAtomId b : rule.positive_body) RemoveBodyRef(b, slot);
  for (GroundAtomId h : rule.head) {
    assert(support_[h] > 0);
    if (--support_[h] == 0 && derivable_[h]) worklist->push_back(h);
  }
  dead_slots_.push_back(slot);
}

void IncrementalGrounder::Engine::CompactStore() {
  if (dead_slots_.empty()) return;
  // Highest slot first: the rule pulled into each hole is then always
  // alive, so body references need retargeting exactly once.
  std::sort(dead_slots_.begin(), dead_slots_.end(),
            std::greater<uint32_t>());
  // Publish the exact replay order so a mirroring consumer (the
  // incremental solver) can apply the identical swap-compaction and keep
  // its rule indices aligned with the store's slot numbering.
  delta_.retracted_slots.insert(delta_.retracted_slots.end(),
                                dead_slots_.begin(), dead_slots_.end());
  for (const uint32_t slot : dead_slots_) {
    const uint32_t last = static_cast<uint32_t>(store_.size() - 1);
    if (slot != last) {
      GroundRule moved = std::move(store_[last]);
      for (GroundAtomId b : moved.positive_body) {
        for (uint32_t& ref : body_rules_[b]) {
          if (ref == last) {
            ref = slot;
            break;
          }
        }
      }
      store_[slot] = std::move(moved);
      alive_[slot] = true;
    }
    store_.pop_back();
    alive_.pop_back();
  }
  dead_slots_.clear();
}

void IncrementalGrounder::Engine::RetractAtom(
    GroundAtomId id, std::vector<GroundAtomId>* worklist) {
  assert(derivable_[id] && support_[id] == 0);
  derivable_[id] = false;
  if (atom_pred_[id] >= 0) {
    extensions_[atom_pred_[id]].atoms[ext_pos_[id]] = kInvalidGroundAtom;
    ext_pos_[id] = kNoPosition;
  }
  // Counted for every predicate: the atom's table entry leaks either way.
  ++tombstoned_atoms_;
  // Dependent instances lose a positive-body atom that no current fact
  // can derive: remove them (their heads may cascade).
  std::vector<uint32_t> dependents = std::move(body_rules_[id]);
  body_rules_[id].clear();
  for (uint32_t slot : dependents) {
    if (alive_[slot]) KillRule(slot, worklist);
  }
}

Status IncrementalGrounder::Engine::EmitRule(GroundRule rule) {
  if (store_.size() >= options_.max_ground_rules) {
    return ground_internal::RuleLimitError(options_.max_ground_rules);
  }
  const uint32_t slot = static_cast<uint32_t>(store_.size());
  for (GroundAtomId b : rule.positive_body) body_rules_[b].push_back(slot);
  for (GroundAtomId h : rule.head) ++support_[h];
  store_.push_back(std::move(rule));
  alive_.push_back(true);
  ++call_stats_.rules_new;
  return OkStatus();
}

Status IncrementalGrounder::Engine::ComputeNetDelta(
    const std::vector<Atom>& facts, const FactDelta* delta,
    NetDelta* net, bool* used_snapshot_diff) const {
  net->clear();
  // A snapshot diff counts as a *resync* only when the caller supplied a
  // hint that could not be used (chain gap after a kDropOldest eviction,
  // or an inconsistent hint): the computed delta is still exact, but
  // downstream consumers treat their incrementally maintained solve state
  // as suspect. Hint-less callers diff every window by design — that is
  // the normal mode, not a resync.
  *used_snapshot_diff = false;
  if (delta != nullptr && delta->previous_sequence == cached_sequence_) {
    int64_t total_change = 0;
    for (const Atom& a : delta->admitted) {
      ++(*net)[a];
      ++total_change;
    }
    for (const Atom& e : delta->expired) {
      --(*net)[e];
      --total_change;
    }
    // Validate the hint against the snapshot: totals must agree and no
    // expiry may exceed the cached multiplicity. Inconsistent hints (or
    // hints relative to a window this grounder never saw) fall through to
    // the snapshot diff below.
    bool consistent =
        static_cast<int64_t>(window_total_) + total_change ==
        static_cast<int64_t>(facts.size());
    if (consistent) {
      for (const auto& [atom, change] : *net) {
        if (change >= 0) continue;
        const auto it = window_counts_.find(atom);
        const int64_t have =
            it == window_counts_.end() ? 0 : static_cast<int64_t>(it->second);
        if (have + change < 0) {
          consistent = false;
          break;
        }
      }
    }
    if (consistent) return OkStatus();
    net->clear();
  }
  *used_snapshot_diff = delta != nullptr;
  // Snapshot diff: net = multiset(facts) - multiset(cached window).
  for (const Atom& a : facts) ++(*net)[a];
  for (const auto& [atom, count] : window_counts_) {
    (*net)[atom] -= static_cast<int64_t>(count);
  }
  for (auto it = net->begin(); it != net->end();) {
    it = it->second == 0 ? net->erase(it) : std::next(it);
  }
  return OkStatus();
}

Status IncrementalGrounder::Engine::ApplyNetDelta(const NetDelta& net) {
  // Open a fresh admission window on every extension.
  for (PredicateExtension& ext : extensions_) {
    ext.window_start = ext.atoms.size();
  }

  // Retract first: expired support disappears before admitted facts (or
  // the delta replay) can re-derive anything, so an atom that loses its
  // facts and regains them via a new rule firing takes the tombstone ->
  // re-append path and lands in the admission delta.
  std::vector<GroundAtomId> worklist;
  for (const auto& [atom, change] : net) {
    if (change >= 0) continue;
    const GroundAtomId id = atoms().Lookup(atom);
    if (id == kInvalidGroundAtom) {
      return InternalError("expired fact was never interned");
    }
    const uint32_t drop = static_cast<uint32_t>(-change);
    auto it = window_counts_.find(atom);
    if (it == window_counts_.end() || it->second < drop ||
        support_[id] < drop) {
      return InternalError("fact delta inconsistent with cached window");
    }
    it->second -= drop;
    if (it->second == 0) window_counts_.erase(it);
    support_[id] -= drop;
    delta_.fact_delta.emplace_back(id, change);
    if (support_[id] == 0 && derivable_[id]) worklist.push_back(id);
  }
  while (!worklist.empty()) {
    const GroundAtomId id = worklist.back();
    worklist.pop_back();
    if (!derivable_[id] || support_[id] != 0) continue;
    RetractAtom(id, &worklist);
  }
  CompactStore();

  for (const auto& [atom, change] : net) {
    if (change <= 0) continue;
    if (!atom.IsGround()) {
      return InvalidArgumentError("non-ground input fact: " +
                                  atom.ToString(plan_->program.symbol_table()));
    }
    const GroundAtomId id = InternAtom(atom);
    window_counts_[atom] += static_cast<uint32_t>(change);
    support_[id] += static_cast<uint32_t>(change);
    delta_.fact_delta.emplace_back(id, change);
    if (!derivable_[id]) Derive(id);
  }
  return OkStatus();
}

/// Debug-only contract check: after applying the net delta, the tracked
/// window multiset must equal the facts vector exactly. Release builds
/// trust a shape-consistent hint's contents (the emitting windowers are
/// tested to uphold the invariant); the Debug and sanitizer CI legs run
/// every differential test through this full comparison.
Status IncrementalGrounder::Engine::CheckWindowCounts(
    const std::vector<Atom>& facts) const {
#ifndef NDEBUG
  std::unordered_map<Atom, uint32_t, AtomHash> expected;
  for (const Atom& fact : facts) ++expected[fact];
  if (expected != window_counts_) {
    return InternalError(
        "window delta hint disagrees with the window's facts");
  }
#else
  (void)facts;
#endif
  return OkStatus();
}

Status IncrementalGrounder::Engine::EvaluateComponentIncremental(
    int component, const std::vector<const CompiledRule*>& rules) {
  if (rules.empty()) return OkStatus();

  static const std::vector<int> kNoPreds;
  const std::vector<int>& component_preds =
      component < plan_->num_components ? plan_->component_preds[component]
                                        : kNoPreds;
  for (int p : component_preds) {
    extensions_[p].delta_begin = extensions_[p].window_start;
    extensions_[p].delta_end = extensions_[p].atoms.size();
  }

  // Round 1: every position whose predicate has a window delta (admitted
  // facts or atoms derived by earlier components this window) takes the
  // delta role once; earlier positions see old-only, later ones see
  // everything — each new combination fires at its first delta position.
  round1_ = true;
  for (const CompiledRule* rule : rules) {
    for (size_t j = 0; j < rule->positive.size(); ++j) {
      const int pred = rule->positive_preds[j];
      const PredicateExtension& ext = extensions_[pred];
      const bool has_delta = InComponent(pred, component)
                                 ? ext.delta_begin < ext.delta_end
                                 : ext.window_start < ext.atoms.size();
      if (!has_delta) continue;
      STREAMASP_RETURN_IF_ERROR(
          EvaluateRule(rule, component, static_cast<int>(j)));
    }
  }

  // Semi-naive fixpoint for in-component recursion: later rounds advance
  // only the component's own deltas (external deltas were consumed in
  // round 1 and are full-range from here on).
  round1_ = false;
  for (;;) {
    bool any_delta = false;
    for (int p : component_preds) {
      extensions_[p].delta_begin = extensions_[p].delta_end;
      extensions_[p].delta_end = extensions_[p].atoms.size();
      if (extensions_[p].delta_begin < extensions_[p].delta_end) {
        any_delta = true;
      }
    }
    if (!any_delta) break;
    for (const CompiledRule* rule : rules) {
      if (!rule->recursive) continue;
      for (size_t j : rule->same_component_positions) {
        STREAMASP_RETURN_IF_ERROR(
            EvaluateRule(rule, component, static_cast<int>(j)));
      }
    }
  }
  return OkStatus();
}

Status IncrementalGrounder::Engine::EvaluateWindow() {
  for (int c = 0; c < plan_->num_components; ++c) {
    STREAMASP_RETURN_IF_ERROR(
        EvaluateComponentIncremental(c, plan_->component_rules[c]));
  }
  return EvaluateComponentIncremental(plan_->num_components,
                                      plan_->constraints);
}

Status IncrementalGrounder::Engine::Rebuild(const std::vector<Atom>& facts) {
  // Atom interning restarts, but the previous window's population is the
  // best size estimate: reserve up front so the hot Intern loop never
  // rehashes mid-window.
  const size_t previous_atoms = ground_.num_atoms();
  ground_ = GroundProgram();
  if (previous_atoms > 0) atoms().Reserve(previous_atoms);
  derivable_.clear();
  atom_pred_.clear();
  support_.clear();
  ext_pos_.clear();
  body_rules_.clear();
  extensions_.assign(plan_->pred_signatures.size(), PredicateExtension{});
  store_.clear();
  alive_.clear();
  dead_slots_.clear();
  tombstoned_atoms_ = 0;
  window_counts_.clear();

  // Seed the program's own facts as permanently supported rules.
  const Program& program = plan_->program;
  for (const Rule& rule : program.rules()) {
    if (!rule.body().empty()) continue;
    GroundRule ground;
    for (const Atom& head : rule.head()) {
      if (!head.IsGround()) {
        return InvalidArgumentError(
            "non-ground fact: " + rule.ToString(program.symbol_table()));
      }
      ground.head.push_back(AddDerivedAtom(head));
    }
    STREAMASP_RETURN_IF_ERROR(EmitRule(std::move(ground)));
  }
  // Window facts: derivable + supported, but their fact rules live in the
  // per-window output, not the cache.
  for (const Atom& fact : facts) {
    if (!fact.IsGround()) {
      return InvalidArgumentError("non-ground input fact: " +
                                  fact.ToString(program.symbol_table()));
    }
    const GroundAtomId id = InternAtom(fact);
    ++window_counts_[fact];
    ++support_[id];
    if (!derivable_[id]) Derive(id);
  }
  // A rebuild restarts slot numbering and atom interning, so the delta's
  // fact view is the full window multiset, not a diff.
  for (const auto& [atom, count] : window_counts_) {
    delta_.fact_delta.emplace_back(atoms().Lookup(atom),
                                   static_cast<int64_t>(count));
  }

  // Fact-independent rules fire exactly once per rebuild.
  for (const CompiledRule* rule : groundless_) {
    STREAMASP_RETURN_IF_ERROR(EvaluateRule(rule, rule->component, -1));
  }

  // With empty window_start marks everything seeded above is this
  // window's delta, so the shared delta replay performs the full
  // bottom-up instantiation.
  for (PredicateExtension& ext : extensions_) ext.window_start = 0;
  return EvaluateWindow();
}

void IncrementalGrounder::Engine::AssembleOutput() {
  // Scratch copy of the cache + the window's fact rules. Simplification
  // (when enabled, as in the batch grounder) runs on the copy only: it is
  // window-specific — definite facts differ per window — so it can never
  // be folded into the cache itself.
  std::vector<GroundRule>& rules = ground_.mutable_rules();
  rules.clear();
  rules.reserve(store_.size() + window_total_);
  rules.assign(store_.begin(), store_.end());
  for (const auto& [atom, count] : window_counts_) {
    const GroundAtomId id = atoms().Lookup(atom);
    assert(id != kInvalidGroundAtom);
    for (uint32_t c = 0; c < count; ++c) {
      rules.push_back(GroundRule{{id}, {}, {}});
    }
  }
  SimplifyAndCount(options_.simplify, derivable_, &call_stats_);
}

Status IncrementalGrounder::Engine::GroundWindow(
    uint64_t sequence, const std::vector<Atom>& facts,
    const FactDelta* delta, GroundingStats* stats) {
  call_stats_ = GroundingStats{};
  STREAMASP_RETURN_IF_ERROR(plan_->status);

  const size_t store_before = store_.size();
  bool full = !cache_valid_;
  if (!full) {
    // Memory bound: retraction tombstones extension slots and leaks the
    // retracted atoms' table entries; rebuild once they dominate.
    if (static_cast<double>(tombstoned_atoms_) >
        inc_.compact_garbage_fraction * static_cast<double>(atoms().size())) {
      full = true;
    }
  }
  NetDelta net;
  bool resynced = false;
  if (!full) {
    STREAMASP_RETURN_IF_ERROR(ComputeNetDelta(facts, delta, &net, &resynced));
    size_t magnitude = 0;
    for (const auto& [atom, change] : net) {
      magnitude += static_cast<size_t>(std::llabs(change));
    }
    if (static_cast<double>(magnitude) >
        inc_.fallback_delta_fraction *
            static_cast<double>(std::max<size_t>(facts.size(), 1))) {
      full = true;
    }
  }

  delta_ = GroundingDelta{};
  delta_.full_rebuild = full;
  delta_.resynced = !full && resynced;
  delta_.sequence = sequence;
  delta_.previous_sequence = cached_sequence_;
  delta_.store_size_before = store_before;

  Status status = OkStatus();
  if (full) {
    // A rebuild discards the cache wholesale; rules_retracted stays 0 —
    // it counts only instances removed by expired-fact retraction.
    call_stats_.incremental_fallbacks = 1;
    status = Rebuild(facts);
    delta_.new_rules_begin = 0;  // The whole store is this window's.
  } else {
    call_stats_.incremental_windows = 1;
    status = ApplyNetDelta(net);
    // Retraction and compaction are done; everything EvaluateWindow
    // appends from here on is the window's new-rule tail.
    delta_.new_rules_begin = store_.size();
    if (status.ok()) status = CheckWindowCounts(facts);
    if (status.ok()) status = EvaluateWindow();
  }
  if (!status.ok()) {
    cache_valid_ = false;  // Partially applied state is unusable.
    return status;
  }
  window_total_ = facts.size();
  call_stats_.rules_retained =
      full ? 0 : store_before - call_stats_.rules_retracted;
  if (inc_.assemble_output) {
    AssembleOutput();
  } else {
    // Delta consumers solve from the store directly; report raw store
    // sizes instead of the (never built) simplified output.
    call_stats_.num_rules_raw = store_.size() + window_total_;
    call_stats_.num_rules = call_stats_.num_rules_raw;
    call_stats_.num_atoms = atoms().size();
    call_stats_.num_facts = window_total_;
  }
  cache_valid_ = true;
  cached_sequence_ = sequence;
  call_stats_.atom_table_bytes = atoms().ApproxBytes();
  if (stats != nullptr) *stats = call_stats_;
  return OkStatus();
}

IncrementalGrounder::IncrementalGrounder(
    const Program* program, GroundingOptions options,
    IncrementalGroundingOptions incremental)
    : engine_(std::make_unique<Engine>(program, options, incremental)) {}

IncrementalGrounder::~IncrementalGrounder() = default;

StatusOr<const GroundProgram*> IncrementalGrounder::GroundWindow(
    uint64_t sequence, const std::vector<Atom>& facts,
    const FactDelta* delta, GroundingStats* stats) {
  STREAMASP_RETURN_IF_ERROR(
      engine_->GroundWindow(sequence, facts, delta, stats));
  cumulative_.Accumulate(engine_->call_stats());
  return &engine_->output();
}

void IncrementalGrounder::Invalidate() { engine_->Invalidate(); }

bool IncrementalGrounder::cache_valid() const {
  return engine_->cache_valid();
}

bool IncrementalGrounder::assembles_output() const {
  return engine_->assembles_output();
}

uint64_t IncrementalGrounder::cached_sequence() const {
  return engine_->cached_sequence();
}

const std::vector<GroundRule>& IncrementalGrounder::cached_rules() const {
  return engine_->store();
}

const AtomTable& IncrementalGrounder::atom_table() const {
  return engine_->atom_table();
}

const GroundingDelta& IncrementalGrounder::last_delta() const {
  return engine_->last_delta();
}

}  // namespace streamasp
