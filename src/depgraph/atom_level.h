#ifndef STREAMASP_DEPGRAPH_ATOM_LEVEL_H_
#define STREAMASP_DEPGRAPH_ATOM_LEVEL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "asp/program.h"
#include "depgraph/partitioning_plan.h"
#include "util/status.h"

namespace streamasp {

/// Options for atom-level partitioning.
struct AtomLevelOptions {
  /// Sub-partitions per community. 1 disables splitting (the plan then
  /// degenerates to the predicate-level plan).
  int fanout = 2;
};

/// Atom-level dependency analysis — the paper's §VI future work:
/// "we have observed input dependency at the atom level ... dependencies
/// among ground atoms have an important effect on computation."
///
/// Predicate-level partitioning (Definition 2) keeps all atoms of
/// dependent predicates together. But within one community, ground atoms
/// only interact when they share join values: average_speed(5, 10) and
/// car_number(7, 50) can never fire a rule together. This module finds,
/// per predicate, a *key argument position* such that every rule's body
/// atoms agree on the variable at their key positions (the rule's
/// *anchor*). Hashing input atoms by their key argument then splits a
/// community into `fanout` buckets without separating any two atoms that
/// can jointly fire a rule.
///
/// Key-flow analysis, in brief:
///   1. For each rule, the candidate anchors are the variables occurring
///      in every body atom literal (positive and negative).
///   2. A greedy pass proposes key positions: the anchor's position in
///      each body atom and in the head.
///   3. A verification pass checks every rule: some anchor variable must
///      sit at the key position of every *keyed* body atom, and at the
///      head's key position if the head predicate is keyed. Offending
///      predicates are demoted to *unkeyed* (their atoms are replicated
///      into every bucket — always sound, like the duplicated predicates
///      of the decomposing process) and verification repeats to fixpoint.
///
/// A community is *split-enabled* when all of its input predicates end up
/// keyed; otherwise it falls back to a single bucket. The soundness
/// argument and the replication semantics are in ARCHITECTURE.md,
/// "Atom-level partitioning".
class AtomLevelPlan {
 public:
  /// Sentinel key position for unkeyed (replicated) predicates.
  static constexpr int kUnkeyed = -1;

  /// Runs the analysis on top of a predicate-level plan.
  static StatusOr<AtomLevelPlan> Build(const Program& program,
                                       PartitioningPlan community_plan,
                                       AtomLevelOptions options = {});

  /// Total number of sub-partitions across all communities.
  int num_partitions() const { return num_partitions_; }

  /// The underlying predicate-level plan.
  const PartitioningPlan& community_plan() const { return community_plan_; }

  /// True iff community `c` was split into `fanout` buckets.
  bool CommunityEnabled(int community) const;

  /// The key argument position of a predicate, or kUnkeyed.
  int KeyPositionOf(const PredicateSignature& signature) const;

  /// Sub-partition ids (into [0, num_partitions())) that must receive
  /// `atom`. Combines the community routing of the predicate-level plan
  /// with per-community hash bucketing; unkeyed predicates fan out to all
  /// buckets of their communities.
  std::vector<int> PartitionsOf(const Atom& atom) const;

  /// Human-readable description (key positions, enabled communities).
  std::string ToString(const SymbolTable& symbols) const;

 private:
  PartitioningPlan community_plan_;
  AtomLevelOptions options_;
  std::unordered_map<PredicateSignature, int, PredicateSignatureHash>
      key_position_;
  std::vector<bool> community_enabled_;   // Indexed by community.
  std::vector<int> community_base_;       // First partition id per community.
  std::vector<int> community_buckets_;    // Bucket count per community.
  int num_partitions_ = 0;
};

/// Routes a window of ground facts following an atom-level plan (the
/// atom-level analogue of Algorithm 1).
class AtomLevelPartitioningHandler {
 public:
  explicit AtomLevelPartitioningHandler(AtomLevelPlan plan)
      : plan_(std::move(plan)) {}

  std::vector<std::vector<Atom>> PartitionFacts(
      const std::vector<Atom>& window) const;

  const AtomLevelPlan& plan() const { return plan_; }

 private:
  AtomLevelPlan plan_;
};

}  // namespace streamasp

#endif  // STREAMASP_DEPGRAPH_ATOM_LEVEL_H_
