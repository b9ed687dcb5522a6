#ifndef STREAMASP_STREAMRULE_ENGINE_CONFIG_H_
#define STREAMASP_STREAMRULE_ENGINE_CONFIG_H_

#include <cstddef>

#include "stream/shard_key.h"
#include "streamrule/pipeline.h"

namespace streamasp {

/// One validated configuration for every engine shape. The StreamEngine
/// facade picks the run-time from it:
///   * num_shards == 0 — a single StreamRulePipeline; pipeline.async
///     selects the synchronous oracle loop or the staged async engine.
///   * num_shards >= 1 — the ShardedPipelineEngine with that many shard
///     pipelines (1 is a legitimate degenerate sharded engine: router +
///     merge around one shard — distinct from num_shards == 0, which has
///     neither).
/// ShardedPipelineEngine::Create takes the same type and requires
/// num_shards >= 1. shard_key is ignored when num_shards is 0.
struct EngineConfig {
  /// 0 = unsharded single pipeline; >= 1 = sharded engine with that many
  /// independent shard pipelines. Each shard owns a full
  /// StreamRulePipeline (windower + reasoner machinery); the engine adds
  /// no threads: the router windows every shard on the caller thread and
  /// the merge runs on whichever thread completes a global window.
  size_t num_shards = 0;

  /// Partition key (sharded only; see stream/shard_key.h). null uses
  /// SubjectShardKey(). Answers are shard-count-invariant only when the
  /// key respects the program's input dependencies — subject keys for
  /// subject-local programs, CommunityShardKey(plan) for
  /// community-partitioned ones. The router helps the key out with the
  /// paper's duplication device: items of a *duplicated* predicate (one
  /// whose ground atoms several dependency communities need,
  /// PartitioningPlan::DuplicatedPredicates) are broadcast to every
  /// shard, so rules that join a duplicated predicate against facts
  /// living on another shard do not silently lose the join. The key
  /// still decides the item's *owning* shard, which is the copy global
  /// window accounting and the merged window count — replicas are pure
  /// reasoning context.
  ShardKeyExtractor shard_key;

  /// The per-pipeline configuration every shape shares: window geometry,
  /// reuse flags, async staging, backpressure, admission filter, reasoner
  /// options.
  ///
  /// Under sharding window_size and window_slide are interpreted
  /// globally: a window boundary falls after every window_size-th (then
  /// every window_slide-th) routed item *across all shards*, and each
  /// shard reasons its slice of that global window. window_slide in
  /// (0, window_size) selects *sliding global windows*: the router
  /// retains the global window's contents and, at each boundary,
  /// punctuates every shard holding a non-empty slice with its routed
  /// split of the global expired/admitted delta
  /// (StreamRulePipeline::CloseWindow(WindowDelta)). Routing is per-item
  /// and pure, so the per-shard deltas compose back to exactly the global
  /// delta (duplicated-predicate items appear in every shard's delta —
  /// admitted and expired alike — matching their broadcast) and the
  /// merged answers stay byte-identical to the unsharded sliding oracle.
  /// reuse_grounding / reuse_solving therefore keep their full delta-sized
  /// per-window cost under sharding. With tumbling global windows (slide 0
  /// or == window_size) the sub-windows share no content, so the caches
  /// fall back every window — correct but not faster.
  ///
  /// Load shedding works under sharding too: lossy backpressure
  /// (kDropOldest / kReject — async shards only, sync pipelines have no
  /// work queue to shed from) and pipeline.admission_filter, sliding
  /// global windows included. A shed sub-window surfaces as a tombstone in
  /// the shard's ordered emission stream, so the merge releases its slot
  /// instead of stalling; the merged window is delivered with
  /// completeness < 1. Synchronously shed sliding sub-windows fold their
  /// delta into the shard's next emission
  /// (StreamQueryProcessor::FoldShedDelta), mirroring the router's
  /// skipped-empty-slice folding, so incremental reuse stays exact across
  /// the gap.
  ///
  /// Thread-count fields left at 0 are budgeted across shards (hardware
  /// threads / num_shards each) rather than per pipeline.
  PipelineOptions pipeline;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_ENGINE_CONFIG_H_
