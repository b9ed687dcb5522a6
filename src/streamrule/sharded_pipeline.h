#ifndef STREAMASP_STREAMRULE_SHARDED_PIPELINE_H_
#define STREAMASP_STREAMRULE_SHARDED_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "stream/shard_key.h"
#include "stream/window_store.h"
#include "streamrule/engine_config.h"
#include "streamrule/engine_stats.h"
#include "streamrule/pipeline.h"

namespace streamasp {

/// Horizontal scale-out of the staged engine: hash-partitions the input
/// stream across `num_shards` independent StreamRulePipeline instances and
/// globally merges their emissions back into strict window-sequence order.
/// The engine owns no threads; only its shards' reasoner pools run.
///
///   caller thread:  filter ─► shard key ─► router (global window count,
///        │          records each global window's items)
///        │ shard pipeline Push / CloseWindow, called directly
///        ▼
///   shard pipelines: windower ─► pool tasks ─► ordered drain   × num_shards
///        │ each delivery parks its contribution in the reorder map
///        ▼
///   merge baton:    whichever delivering thread finds no active merger
///                   ─► combine shard answers ─► handler, in global order
///
/// Window semantics: the router counts surviving items and punctuates
/// every shard after each window_size-th item, so global window g is the
/// same set of items the unsharded pipeline would put in its window g —
/// merely split by shard key into per-shard sub-windows that are windowed
/// and reasoned concurrently. Under sliding global windows
/// (window_slide < window_size) the router additionally retains the
/// global window's contents and each punctuation carries the shard's
/// split of the global expired/admitted delta, so the shard windowers
/// emit delta-carrying sliding sub-windows and the incremental
/// grounding/solving caches stay warm across overlapping global windows
/// (shards whose slice is empty are skipped; their deltas fold into the
/// next punctuation). The merge combines the sub-window answers with the
/// paper's combining-handler semantics (one pick per shard, unioned;
/// CombiningHandler), which makes the delivered answers
/// *shard-count-invariant and byte-identical to the synchronous oracle*
/// whenever the shard key respects the program's input dependencies.
/// This is the paper's input-dependency partitioning lifted from intra-
/// window parallelism to pipeline-level scale-out — including its
/// duplication device: items of predicates the plan marks as duplicated
/// (needed by rules in more than one dependency community, e.g.
/// car_number in the connected P' variant) are broadcast to every shard
/// as reasoning context, because a hash key alone cannot co-locate them
/// with every rule that joins against them. Each such item still has one
/// *owning* shard (its hash); replicas never count toward global window
/// boundaries, the merged window's items, or completeness.
///
/// Ordering guarantee: the handler runs once per global window, in
/// strictly increasing global sequence order, one delivery at a time, on
/// whichever thread completes the next global window (a shard's pool
/// worker, or the caller thread for synchronous shards or a shard
/// shedding inside Push) — the drain-baton pattern of
/// StreamRulePipeline. Reasoning failures consume their slot (the window
/// is skipped and counted, never reordered or stalled on), and so do shed
/// sub-windows: a shard that sheds a sub-window emits a tombstone in its
/// ordered stream, the merge counts it as that shard's contribution, and
/// the global window is delivered with the surviving shards' answers and
/// completeness < 1 — overload degrades answers, it never stalls or
/// reorders the merge.
///
/// With pipeline.async == false the shards reason one after another on
/// the caller thread, like the unsharded synchronous oracle.
///
/// Thread-safety: Push/PushBatch/Flush single caller thread at a time;
/// stats()/accessors any thread. The handler must not re-enter the
/// engine. No lock is held while the router calls into a shard, because
/// a synchronous shard delivers (and so re-enters the merge) on the same
/// thread.
///
/// The merged TripleWindow holds the global window's items in stream
/// arrival order, as the unsharded pipeline does (only the owning shard's
/// copy of a duplicated-predicate item counts).
class ShardedPipelineEngine {
 public:
  using ResultCallback = StreamRulePipeline::ResultCallback;

  /// Builds num_shards pipelines over `program` (one design-time analysis
  /// each; `program` must outlive the engine), delivering every merged
  /// global window as one ordered EmissionEvent: kResult for a combined
  /// window (completeness < 1 when shed shard contributions degraded it —
  /// a fully shed window still delivers kResult with zero answers),
  /// kError when a shard sub-window failed or cross-shard combining did
  /// (the slot is consumed, never stalled on). The engine itself emits no
  /// kShed events: shard-level tombstones are absorbed into the merged
  /// window's completeness. Fails on a null program/handler or options
  /// the shared validator rejects (zero shards, lossy backpressure on
  /// synchronous shard pipelines — see streamrule/validate.h).
  static StatusOr<std::unique_ptr<ShardedPipelineEngine>> Create(
      const Program* program, EngineConfig options,
      EmissionHandler handler);

  /// Result-callback adapter over the handler surface: kError events are
  /// logged + counted only (delivery_errors), exactly the pre-handler
  /// behavior.
  static StatusOr<std::unique_ptr<ShardedPipelineEngine>> Create(
      const Program* program, EngineConfig options,
      ResultCallback callback);

  /// Drains every admitted global window (without flushing a partial
  /// one): each shard's destructor drains its punctuated sub-windows.
  ~ShardedPipelineEngine();

  ShardedPipelineEngine(const ShardedPipelineEngine&) = delete;
  ShardedPipelineEngine& operator=(const ShardedPipelineEngine&) = delete;

  /// Routes one raw stream item. May block when a shard's work queue is
  /// saturated (lossless backpressure all the way to the caller).
  void Push(const Triple& triple);

  /// Routes a batch.
  void PushBatch(const std::vector<Triple>& triples);

  /// Closes the trailing partial global window (if any), then blocks
  /// until every admitted global window has been reasoned on all shards,
  /// merged, and delivered. The engine remains usable afterwards.
  void Flush();

  /// Thread-safe snapshot across all shards plus router/merge counters.
  EngineStats stats() const;

  size_t num_shards() const { return shards_.size(); }

  /// Introspection into one shard's pipeline (plan, decomposition info…).
  const StreamRulePipeline& shard(size_t index) const {
    return *shards_[index];
  }

 private:
  /// One shard's reasoned sub-window, or its tombstone (shed == true,
  /// `result` untouched).
  struct Contribution {
    size_t shard = 0;
    bool shed = false;
    StatusOr<ParallelReasonerResult> result{InternalError("not run")};
  };

  /// A global window from its boundary to its delivery: what the router
  /// recorded, and the shard contributions parked so far.
  struct GlobalWindow {
    std::vector<Triple> items;  ///< Owned items, stream arrival order.
    std::vector<size_t> owned;  ///< Items of `items` each shard owns.
    uint32_t expected = 0;      ///< Shards punctuated for this window.
    std::vector<Contribution> contributions;
  };

  ShardedPipelineEngine(const Program* program,
                        EngineConfig options,
                        EmissionHandler handler);

  Status StartShards();
  bool sliding() const { return slide_ < window_size_; }
  /// Routes one pre-filtered item (caller thread).
  void Route(const Triple& triple);
  /// Cuts the current global window: assigns the next global sequence,
  /// records its items and expected contributors, then punctuates every
  /// shard holding a slice of it (sliding: each close carries the shard's
  /// accumulated expired/admitted delta).
  void CloseGlobalWindow();
  /// Shard emissions funnel here (result, error and tombstone alike):
  /// parks the contribution, then delivers every complete in-order global
  /// window unless another thread already holds the merge baton.
  void Contribute(Contribution contribution);
  /// Combines and delivers one complete global window. Called and returns
  /// with `lock` (on merge_mutex_) held; releases it around the handler.
  void DeliverMerged(uint64_t global_sequence, GlobalWindow& window,
                     std::unique_lock<std::mutex>& lock);

  const Program* program_;
  EngineConfig options_;
  EmissionHandler handler_;
  CombiningHandler merge_combiner_;

  std::unordered_set<SymbolId> selected_;  ///< Router's input filter.
  /// Predicates the shards' partitioning plan duplicates across
  /// communities; the router broadcasts their items to every shard.
  std::unordered_set<SymbolId> duplicated_;
  size_t window_size_ = 1;                 ///< Global window length.
  size_t slide_ = 1;  ///< Global slide; == window_size_ for tumbling.

  // --- router state (caller thread only) ---
  /// Per shard: items (replicas included) of the current global window —
  /// routed since the last boundary when tumbling, retained when sliding.
  /// A shard with a non-zero count is punctuated at the boundary.
  std::vector<size_t> slice_count_;
  /// Per shard: owned items of the current global window.
  std::vector<size_t> owned_;
  /// Tumbling: owned items routed since the last boundary, in order.
  std::vector<Triple> window_items_;
  uint64_t next_global_sequence_ = 0;

  // --- sliding router state (untouched when tumbling). The retained
  // global window is a columnar WindowStore whose shard column holds the
  // owning shard, tagged kBroadcastBit for a broadcast item; eviction in
  // global arrival order keeps every per-shard expired list a prefix of
  // that shard's retained sub-stream. ---
  WindowStore global_window_{WindowStore::Options{/*with_shards=*/true}};
  std::vector<std::vector<Triple>> pending_expired_;   ///< Per shard.
  std::vector<std::vector<Triple>> pending_admitted_;  ///< Per shard.
  size_t arrivals_since_emit_ = 0;
  bool emitted_once_ = false;

  // --- router counters (written by the caller thread only; relaxed
  // atomics so stats() can read them from anywhere without putting a
  // lock on the per-item routing hot path) ---
  std::vector<std::atomic<uint64_t>> routed_items_;
  std::atomic<uint64_t> filtered_items_{0};
  std::atomic<uint64_t> delta_punctuations_{0};
  std::atomic<uint64_t> skipped_empty_slices_{0};
  /// Peak bytes of the router's retained global WindowStore, published on
  /// the caller-thread sliding push path (stats() must not touch
  /// global_window_ itself — it races the router).
  std::atomic<size_t> router_window_bytes_{0};

  std::vector<std::unique_ptr<StreamRulePipeline>> shards_;

  // --- merge state (guarded by merge_mutex_) ---
  mutable std::mutex merge_mutex_;
  /// Per shard: FIFO of the global sequences it was punctuated for. The
  /// router appends before punctuating; the shard's emissions pop (they
  /// arrive in local window order).
  std::vector<std::deque<uint64_t>> global_sequence_of_;
  /// Assigned, undelivered global windows by sequence.
  std::map<uint64_t, GlobalWindow> windows_;
  bool merging_ = false;  ///< Merge baton: a thread is delivering.
  size_t parked_windows_ = 0;  ///< Windows in windows_ with contributions.
  uint64_t assigned_windows_ = 0;   ///< Global sequences handed out.
  uint64_t delivered_windows_ = 0;  ///< Handler slots consumed (ok + err).
  uint64_t merged_windows_ = 0;
  uint64_t merged_answers_ = 0;
  uint64_t merge_errors_ = 0;
  uint64_t shed_subwindows_ = 0;
  uint64_t degraded_windows_ = 0;
  double completeness_sum_ = 0;  ///< Over delivered merged windows.
  double min_completeness_ = 1.0;
  size_t max_merge_reorder_depth_ = 0;
};

/// A dependency-graph-derived shard key: routes every item to the
/// community its predicate belongs to under `plan` (see
/// DecomposeInputDependencyGraph), so whole dependency communities shard
/// together. A duplicated predicate's items hash to their first
/// community (their owner); the router's broadcast places the replica
/// copies on every other shard, so cross-community rules keep their
/// joins. Predicates unknown to the plan map to community 0, mirroring
/// PartitioningHandler.
ShardKeyExtractor CommunityShardKey(const PartitioningPlan& plan);

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_SHARDED_PIPELINE_H_
