#ifndef STREAMASP_STREAMRULE_ENGINE_STATS_H_
#define STREAMASP_STREAMRULE_ENGINE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "streamrule/pipeline.h"

namespace streamasp {

/// One stats surface across every engine shape. `reasoning` aggregates
/// the pipeline-level counters (the single pipeline's stats unsharded,
/// the field-wise shard aggregate sharded); the flat fields carry the
/// delivery/router/merge view consumers actually gate on. Snapshots are
/// returned by value from StreamEngine::stats() and
/// ShardedPipelineEngine::stats(), safe from any thread.
struct EngineStats {
  /// Shape marker: 0 = unsharded, else the shard count.
  size_t num_shards = 0;

  /// Pipeline-level aggregate (see PipelineStats). Sharded: `windows`/
  /// `answers` count per-shard sub-windows before merging; unsharded
  /// they equal delivered_windows/delivered_answers.
  PipelineStats reasoning;
  /// Per-shard breakdown (empty unsharded).
  std::vector<PipelineStats> per_shard;

  /// Items routed to each shard (empty unsharded). Includes broadcast
  /// replicas of duplicated predicates, so with duplication the sum
  /// across shards exceeds the number of routed items.
  std::vector<uint64_t> routed_items;
  /// Items dropped upstream because their predicate is not a program
  /// input (sharded router filter; 0 unsharded — the windower filters
  /// silently).
  uint64_t filtered_items = 0;

  /// kResult emissions delivered to the handler: merged global windows
  /// (sharded) or reasoned windows (unsharded).
  uint64_t delivered_windows = 0;
  /// Answers those deliveries carried (post cross-shard combining).
  uint64_t delivered_answers = 0;
  /// Emission slots consumed by failures. Sharded: global windows
  /// suppressed because a shard sub-window failed (also counted in
  /// reasoning.errors), cross-shard combining failed or the handler
  /// threw. Unsharded: reasoning errors.
  uint64_t delivery_errors = 0;

  // --- sharded merge/router counters (zero unsharded) ---
  /// High-water mark of global windows holding at least one parked shard
  /// contribution while an earlier window is still incomplete.
  size_t max_merge_reorder_depth = 0;
  /// Sliding global windows: delta punctuations delivered to shards
  /// (boundary x contributing shard pairs).
  uint64_t delta_punctuations = 0;
  /// Sliding global windows: boundary x shard pairs where a shard with
  /// pending deltas was skipped because its slice of the global window
  /// was empty; the folded deltas ride its next punctuation.
  uint64_t skipped_empty_slices = 0;
  /// Shard sub-windows shed (tombstoned) instead of reasoned; also
  /// reflected item-wise in reasoning.shed_items.
  uint64_t shed_subwindows = 0;

  // --- graceful-degradation view over delivered windows ---
  /// Delivered windows with completeness < 1 (sharded; unsharded windows
  /// are all-or-nothing, so always 0 — whole shed windows count under
  /// shed_windows()).
  uint64_t degraded_windows = 0;
  double mean_completeness = 1.0;
  double min_completeness = 1.0;

  /// Whole windows lost to load shedding: pipeline tombstones unsharded,
  /// 0 sharded (sub-window sheds degrade completeness instead — see
  /// shed_subwindows).
  uint64_t shed_windows() const {
    return num_shards == 0 ? reasoning.shed_windows() : 0;
  }

  /// Stream-level completeness (items reasoned / items admitted), the
  /// quantity the burst-overload bench gates: identical formula for both
  /// shapes because `reasoning` sums items/shed_items across shards.
  double completeness() const { return reasoning.completeness(); }

  /// Emitted windows that were accounted for — delivered, errored, or
  /// tombstoned. An emitted window outside this count means an ordered
  /// consumer stalled (the bench gates pin it to the expected total).
  uint64_t accounted_windows() const {
    return num_shards == 0
               ? delivered_windows + delivery_errors + shed_windows()
               : delivered_windows + delivery_errors;
  }

  /// Largest per-shard routed-item count (reasoning.items unsharded) —
  /// the bench's router-skew indicator.
  uint64_t max_shard_items() const {
    if (routed_items.empty()) return reasoning.items;
    uint64_t max_items = 0;
    for (uint64_t routed : routed_items) {
      if (routed > max_items) max_items = routed;
    }
    return max_items;
  }

  /// Retained data-plane bytes per triple of the largest window (see
  /// PipelineStats::bytes_per_triple; sharded aggregates include the
  /// router's retained global window).
  double bytes_per_triple() const { return reasoning.bytes_per_triple(); }
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_ENGINE_STATS_H_
