#ifndef STREAMASP_STREAMRULE_PIPELINE_H_
#define STREAMASP_STREAMRULE_PIPELINE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "depgraph/decomposition.h"
#include "stream/query_processor.h"
#include "streamrule/accuracy.h"
#include "streamrule/emission.h"
#include "streamrule/parallel_reasoner.h"
#include "util/bounded_queue.h"
#include "util/status.h"

namespace streamasp {

/// Configuration for the end-to-end pipeline.
struct PipelineOptions {
  /// Tuple-based window size handed to the reasoning layer.
  size_t window_size = 10000;

  /// Sliding windows: emit a window every `window_slide` surviving items
  /// once the first window_size items have arrived, re-processing the
  /// overlapping suffix (CQELS/C-SPARQL semantics). 0 or == window_size
  /// keeps tumbling windows. Sliding windows carry expired/admitted
  /// deltas, which reuse_grounding consumes. In the sharded engine the
  /// slide is global: the router punctuates every shard with its routed
  /// split of the global delta at each boundary (see
  /// external_delta_punctuation).
  size_t window_slide = 0;

  /// Internal (set by the sharded engine, leave false elsewhere): window
  /// boundaries and eviction are driven externally through
  /// CloseWindow(WindowDelta) instead of by this pipeline's windower —
  /// the query processor only retains survivors between punctuations and
  /// window_size/window_slide stop mattering. The emitted windows carry
  /// the injected deltas, so reuse_grounding/reuse_solving see the same
  /// incremental shape as internally slid windows.
  bool external_delta_punctuation = false;

  /// Reuse grounding across overlapping windows: each reasoner slot
  /// keeps a per-partition IncrementalGrounder that retracts the rule
  /// instances of expired facts and grounds only what admitted facts
  /// enable, falling back to full re-grounding on oversized deltas (see
  /// ground/incremental_grounder.h). Answers are unchanged; the
  /// reuse counters land in PipelineStats. Shorthand for
  /// reasoner.reasoner.reuse_grounding — Create ORs the two.
  bool reuse_grounding = false;

  /// Reuse solving across overlapping windows: each reasoner slot
  /// pairs its per-partition incremental grounders with persistent
  /// IncrementalSolvers that patch the previous window's search
  /// structures with the grounder's rule delta (and warm-start the
  /// search from the previous model) instead of rebuilding the solver
  /// per window; the grounder's per-window output assembly and
  /// simplification pass is skipped too (see solve/incremental_solver.h).
  /// Implies reuse_grounding. Answers are unchanged; the solver reuse
  /// counters land in PipelineStats. Shorthand for
  /// reasoner.reasoner.solving.reuse_solving — Create ORs the two.
  bool reuse_solving = false;

  /// Run whole-window reasoning (R) instead of dependency-partitioned
  /// parallel reasoning (PR). Mostly for baselines.
  bool disable_partitioning = false;

  /// Run the staged asynchronous engine: ingest/windowing on the caller
  /// thread, reasoning as tasks on a SharedReasonerPool with several
  /// windows in flight, answers delivered in sequence order by whichever
  /// thread holds the drain baton. false keeps the fully synchronous
  /// one-window-at-a-time loop (the differential-testing oracle for the
  /// async path).
  bool async = false;

  /// Capacity of the window work queue between the windower and the
  /// reasoning tasks (async only). Together with the lane's inflight cap
  /// this bounds how many windows are in flight at once. Must be >= 1.
  size_t max_inflight_windows = 4;

  /// Reasoning threads a standalone async pipeline owns: the size of its
  /// private SharedReasonerPool. 0 picks min(max_inflight_windows,
  /// hardware_concurrency). Ignored when shared_pool/shared_queue is set
  /// — pipelines on an injected pool own no threads of their own.
  size_t num_reason_workers = 0;

  /// Process-wide shared reasoning executor (async only). Null gives the
  /// pipeline a private pool of num_reason_workers threads; either way
  /// every admitted window becomes one unit-cost task on the pipeline's
  /// DRR lane, and ordered delivery is collaborative — whichever task (or
  /// shedding caller) completes next drains the reorder buffer. On an
  /// injected pool an unset reasoner.num_threads collapses to inline mode
  /// (1); on a private pool it splits hardware_concurrency across the
  /// pool threads. The emission contract is the same for both: one
  /// thread at a time, strictly increasing sequence order, byte-identical
  /// output under kBlock. The pool must outlive the pipeline (holding the
  /// shared_ptr here guarantees it).
  std::shared_ptr<SharedReasonerPool> shared_pool;

  /// DRR weight of this pipeline's lane on shared_pool (>= 1): the share
  /// of dispatch slots it receives while contending with other lanes.
  size_t pool_weight = 1;

  /// Cap on this pipeline's concurrently reasoning windows on its pool
  /// (shared or private). 0 picks min(max_inflight_windows, pool
  /// threads). Also sizes the pipeline's reasoner-slot set — the cap
  /// guarantees a free slot for every running task.
  size_t pool_max_inflight = 0;

  /// Per-session window quota, enforced at the ingest boundary like the
  /// admission filter (async only): when > 0, a window closing while
  /// this many windows are already admitted-but-undelivered is shed as a
  /// rejection (counted, tombstoned, delta folded) instead of queued.
  /// Unlike kReject backpressure this bounds queued + reasoning windows
  /// together, which is the per-tenant quota the session server exposes.
  size_t max_queued_windows = 0;

  /// Internal (set by the sharded engine, leave null elsewhere): a
  /// pre-built pool lane shared by all shard pipelines of one engine, so
  /// the tenant's weight and inflight cap apply engine-wide rather than
  /// per shard. Overrides shared_pool's lane creation; each pipeline
  /// still sizes its own reasoner slots to the lane's cap.
  std::shared_ptr<SharedReasonerPool::Queue> shared_queue;

  /// What Push does when the work queue is full (async only). kBlock is
  /// lossless and keeps async output identical to sync; kDropOldest /
  /// kReject shed load under overload — every shed window is counted in
  /// PipelineStats AND surfaces as a tombstone on the ShedCallback, in
  /// strict sequence order, so ordered consumers (the sharded engine's
  /// merge) release the sequence's slot instead of waiting forever.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  /// Caller-controlled admission control (deterministic load shedding):
  /// when set, every window the windower closes is offered to this
  /// predicate on the caller thread; returning false sheds the window
  /// exactly like a kReject refusal — counted as rejected, delta folded
  /// into the next emission, tombstone delivered — independent of the
  /// backpressure policy, and in sync mode too (where the queue-based
  /// policies never engage). The overload test suite uses it to drive
  /// reproducible shed patterns; a production caller can use it as an
  /// upstream load-shedding hook (e.g. shed when a latency SLO is
  /// already blown). Must be pure/thread-safe if the same options object
  /// is shared across shard pipelines.
  std::function<bool(const TripleWindow&)> admission_filter;

  InputDependencyOptions dependency;
  DecompositionOptions decomposition;
  ParallelReasonerOptions reasoner;
};

/// Rolling statistics over every window the pipeline processed. Snapshots
/// are returned by value from StreamRulePipeline::stats(), which is safe
/// to call from any thread while the async engine runs.
struct PipelineStats {
  uint64_t windows = 0;  ///< Windows reasoned successfully.
  uint64_t items = 0;    ///< Items in those windows.
  uint64_t answers = 0;
  double total_latency_ms = 0;  ///< Sum of per-window reasoning latency.
  double max_latency_ms = 0;
  double total_critical_path_ms = 0;
  uint64_t errors = 0;

  // --- async engine counters (zero in sync mode, except that the
  // admission filter counts under rejected_windows in both modes) ---
  uint64_t enqueued_windows = 0;  ///< Windows admitted to the work queue.
  uint64_t dropped_windows = 0;   ///< Evicted by kDropOldest backpressure.
  uint64_t rejected_windows = 0;  ///< Refused by kReject backpressure or
                                  ///< the admission filter.
  size_t max_queue_depth = 0;     ///< Work-queue high-water mark.
  size_t max_reorder_depth = 0;   ///< Reorder-buffer high-water mark.

  // --- graceful-degradation accounting (streamrule/accuracy.h) ---
  uint64_t shed_items = 0;  ///< Items in shed (dropped/rejected) windows.

  // --- grounding reuse counters (zero without reuse_grounding), summed
  // over every partition of every reasoned window ---
  uint64_t incremental_windows = 0;   ///< Partition groundings that reused.
  uint64_t grounding_fallbacks = 0;   ///< Full re-groundings (first window,
                                      ///< oversized delta, compaction).
  uint64_t grounding_rules_retained = 0;
  uint64_t grounding_rules_retracted = 0;
  uint64_t grounding_rules_new = 0;

  // --- solver reuse counters (zero without reuse_solving), summed over
  // every partition of every reasoned window ---
  uint64_t incremental_solve_windows = 0;  ///< Partition solves that patched
                                           ///< the persistent engine.
  uint64_t solve_rebuilds = 0;      ///< Full solver re-ingests (first window,
                                    ///< grounder fallback).
  uint64_t solver_rules_retained = 0;
  uint64_t solver_rules_retracted = 0;
  uint64_t solver_rules_new = 0;
  uint64_t warm_start_hits = 0;     ///< Partition solves guided by the
                                    ///< previous window's model.
  uint64_t atoms_touched = 0;       ///< Atom assignments recomputed (the
                                    ///< touched cone on maintained windows,
                                    ///< the full atom count elsewhere).
  uint64_t assignments_reused = 0;  ///< Assignments carried over verbatim
                                    ///< from the maintained fixpoint.
  uint64_t fixpoint_maintained_windows = 0;  ///< Partition solves answered
                                    ///< by committing the delta patch into
                                    ///< the maintained model alone.

  // --- phase-time totals summed over every partition of every reasoned
  // window (CPU-ish; partitions run concurrently), for the bench gates ---
  double total_ground_ms = 0;
  double total_solve_ms = 0;

  // --- compact-data-plane footprint (high-water marks, not totals):
  // how many bytes the packed plane retains per triple it holds ---
  size_t window_store_bytes = 0;  ///< Peak windower/query retained bytes,
                                  ///< sampled on the caller thread at each
                                  ///< window close.
  size_t atom_table_bytes = 0;    ///< Peak per-window AtomTable bytes
                                  ///< (summed over partitions).
  uint64_t max_window_items = 0;  ///< Largest reasoned window.

  double mean_latency_ms() const {
    return windows == 0 ? 0.0 : total_latency_ms / static_cast<double>(windows);
  }

  /// Windows lost to load shedding (evicted + refused), i.e. the number
  /// of tombstones the pipeline emitted.
  uint64_t shed_windows() const { return dropped_windows + rejected_windows; }

  /// Exact stream-level completeness under load shedding: items reasoned
  /// over items admitted by the windower (accuracy.h CompletenessRatio).
  /// Exactly 1.0 when nothing was shed. Windows lost to reasoning
  /// *errors* are tracked separately (errors) and not counted here.
  double completeness() const {
    return CompletenessRatio(items, items + shed_items);
  }

  /// Retained data-plane bytes (window store + grounding atom table, both
  /// at peak) per triple of the largest window — the machine-independent
  /// memory-compactness gate benched by tools/check_bench_regression.py.
  double bytes_per_triple() const {
    return max_window_items == 0
               ? 0.0
               : static_cast<double>(window_store_bytes + atom_table_bytes) /
                     static_cast<double>(max_window_items);
  }
};

/// The full extended-StreamRule loop behind one call: design-time input
/// dependency analysis, then stream in → filter → window → partition →
/// parallel reasoning → combined answers out. This is the one-stop API the
/// examples hand-assemble from parts; it owns the query processor and the
/// reasoner(s) and reports rolling statistics.
///
///   auto pipeline = StreamRulePipeline::Create(&program, options,
///       [](const TripleWindow& w, const ParallelReasonerResult& r) { ... });
///   pipeline->Push(triple);   // repeatedly
///   pipeline->Flush();        // end of stream
///
/// With options.async set, the run-time is a staged engine:
///
///   caller thread:  ingest → filter → windower ─┐
///                                               ▼
///                        BoundedQueue<TripleWindow> (backpressure)
///                                               ▼
///   pool workers:   one task per window on this pipeline's DRR lane of
///                   a SharedReasonerPool (private unless injected), each
///                   reasoning on a checked-out ParallelReasoner slot
///                                               ▼
///   drain baton:    reorder buffer keyed by window sequence → handler
///                   strictly in window order, run by whichever pool
///                   worker or shedding caller holds the baton
///
/// The handler is always invoked from exactly one thread at a time and
/// strictly in window-sequence order, even when windows complete out of
/// order. With the lossless kBlock policy the observable output is
/// byte-identical to async=false.
///
/// Thread-safety contract:
///   * Push / PushBatch / CloseWindow / Flush must be called from one
///     thread at a time (they share the windower's mutable state). That
///     thread need not be the one that created the pipeline.
///   * stats() and the simple accessors are safe from any thread, at any
///     time, including while the async engine is mid-window.
///   * The result (and error) callback runs on the caller thread in sync
///     mode; in async mode it runs on whichever thread holds the drain
///     baton — a pool worker, or a caller shedding a window inside Push —
///     never on two threads at once, always in strictly increasing
///     sequence order.
///   * Callbacks must not call back into Push/Flush on the same pipeline
///     (Flush would wait for the very delivery that is calling it).
class StreamRulePipeline {
 public:
  /// Legacy adapter surface. The primary emission surface is the single
  /// ordered EmissionHandler (streamrule/emission.h); the callback trio
  /// below is kept so existing call sites migrate mechanically — the trio
  /// Create wraps them in one handler internally.
  ///
  /// Called once per processed window with the window and its result. The
  /// window is owned by the delivering thread and discarded right after
  /// the callback returns, so the callback is handed a mutable reference
  /// and may steal the window's contents (lambdas taking
  /// `const TripleWindow&` bind as usual).
  using ResultCallback = std::function<void(
      TripleWindow&, const ParallelReasonerResult&)>;

  /// Called when reasoning over a window fails. Delivered from the same
  /// thread and in the same strict sequence order as ResultCallback, so a
  /// consumer that tracks window sequences (e.g. the sharded engine's
  /// ordered merge) sees exactly one delivery — success or error — per
  /// *reasoned* window. Under the lossless kBlock policy every admitted
  /// window is reasoned; a shed window delivers neither callback but
  /// surfaces as a tombstone on the ShedCallback instead, keeping the
  /// one-delivery-per-emitted-window invariant across all three channels.
  /// Installing it also makes sync mode convert reasoning exceptions into
  /// error deliveries (matching async mode) instead of letting them
  /// propagate out of Push, so the one-delivery-per-reasoned-window
  /// guarantee holds in both modes. Optional; without it errors are only
  /// logged and counted in PipelineStats::errors.
  using ErrorCallback = std::function<void(TripleWindow&, const Status&)>;

  /// Tombstone channel: called once per shed window with the unreasoned
  /// window (items intact — the consumer can count the loss; the delta of
  /// a synchronously shed window has already been folded back into the
  /// windower, see StreamQueryProcessor::FoldShedDelta). Delivered from
  /// the same thread and interleaved in the same strict sequence order as
  /// Result/Error callbacks, so an ordered consumer sees exactly one
  /// delivery — result, error, or tombstone — for every window the
  /// windower emitted, and can release per-sequence bookkeeping (the
  /// sharded engine's merge slot) instead of stalling on a gap. Optional;
  /// without it shed windows are still counted in PipelineStats and their
  /// tombstones silently discarded in order.
  using ShedCallback = std::function<void(TripleWindow&)>;

  /// Runs design-time analysis on `program` (which must outlive the
  /// pipeline) and wires the run-time components, delivering every
  /// emitted window — result, error, or shed tombstone — as one ordered
  /// EmissionEvent. With a handler the error channel is always present:
  /// sync-mode reasoning exceptions are converted into kError events
  /// instead of propagating out of Push, exactly as if an ErrorCallback
  /// were installed. Fails when the program is invalid, declares no
  /// usable input predicates, or the options are inconsistent
  /// (streamrule/validate.h).
  static StatusOr<std::unique_ptr<StreamRulePipeline>> Create(
      const Program* program, PipelineOptions options,
      EmissionHandler handler);

  /// Callback-trio adapter over the handler surface, preserving the trio
  /// semantics bit for bit: a null error_callback keeps sync-mode
  /// exceptions propagating out of Push, and null error/shed callbacks
  /// silently discard their events.
  static StatusOr<std::unique_ptr<StreamRulePipeline>> Create(
      const Program* program, PipelineOptions options,
      ResultCallback callback, ErrorCallback error_callback = nullptr,
      ShedCallback shed_callback = nullptr);

  /// Drains every admitted window (without flushing a partial one), then
  /// stops the private pool's threads (if any).
  ~StreamRulePipeline();

  StreamRulePipeline(const StreamRulePipeline&) = delete;
  StreamRulePipeline& operator=(const StreamRulePipeline&) = delete;

  /// Feeds one raw stream item. In async mode this may block (kBlock
  /// backpressure) or shed a window (kDropOldest/kReject) when
  /// max_inflight_windows is reached.
  void Push(const Triple& triple);

  /// Feeds a batch.
  void PushBatch(const std::vector<Triple>& triples);

  /// Closes the current window right now, regardless of how full it is,
  /// and admits it to the engine exactly as a count-triggered close would
  /// (a no-op when nothing is pending). Unlike Flush this never waits for
  /// reasoning: it is the punctuation hook external windowers — e.g. the
  /// sharded engine's router, which aligns per-shard sub-windows on global
  /// window boundaries — use to drive boundaries themselves. Same thread
  /// discipline as Push.
  void CloseWindow();

  /// Delta-carrying punctuation (requires
  /// PipelineOptions::external_delta_punctuation): evicts delta.expired
  /// from the retained buffer, then admits the remaining contents as one
  /// sliding window whose TripleWindow delta is exactly `delta` — how the
  /// sharded engine's router extends sliding global windows (and with
  /// them the grounding/solving reuse stack) to every shard. Same thread
  /// discipline and non-waiting semantics as CloseWindow().
  void CloseWindow(WindowDelta delta);

  /// Emits the trailing partial window and, in async mode, blocks until
  /// every in-flight window has been reasoned and its callback delivered.
  /// The pipeline remains usable afterwards.
  void Flush();

  /// Thread-safe snapshot of the rolling statistics.
  PipelineStats stats() const;

  const PartitioningPlan& plan() const { return plan_; }
  const DecompositionInfo& decomposition_info() const { return info_; }

  /// Threads of the pipeline's private reasoner pool (0 in sync mode, and
  /// 0 on an injected pool — such pipelines own no reasoning threads; see
  /// pool_queue() for their execution lane).
  size_t num_reason_workers() const {
    return private_pool_ == nullptr ? 0 : private_pool_->num_threads();
  }

  /// The pipeline's lane on its reasoner pool (null in sync mode).
  /// Exposes the lane's weight, inflight cap and task counters for tests
  /// and the session server's stats surface.
  const std::shared_ptr<SharedReasonerPool::Queue>& pool_queue() const {
    return pool_queue_;
  }

 private:
  /// A reasoned (or shed) window parked in the reorder buffer until every
  /// lower-sequence window has been delivered. Shed windows ride the same
  /// buffer so tombstones interleave with results in sequence order.
  struct CompletedWindow {
    TripleWindow window;
    StatusOr<ParallelReasonerResult> result{InternalError("not run")};
    bool shed = false;  ///< Tombstone: deliver via ShedCallback.
  };

  /// Shared Create body: normalizes + validates options, runs design-time
  /// analysis, constructs. `has_error_channel` is false only for the trio
  /// adapter without an ErrorCallback (sync exceptions then propagate).
  static StatusOr<std::unique_ptr<StreamRulePipeline>> CreateInternal(
      const Program* program, PipelineOptions options,
      EmissionHandler handler, bool has_error_channel);

  StreamRulePipeline(const Program* program, PipelineOptions options,
                     PartitioningPlan plan, DecompositionInfo info,
                     EmissionHandler handler, bool has_error_channel);

  /// Builds the private pool when none is injected, then the DRR lane
  /// (or adopts options_.shared_queue) and the reasoner slots.
  void StartAsyncEngine();
  /// One admitted window's unit of work on the shared pool: TryPop a
  /// window from the work queue (a miss means an eviction consumed it —
  /// benign surplus), reason it on a checked-out slot, park the outcome
  /// in the reorder buffer, then collaborate on ordered delivery.
  void PoolTask();
  /// Ordered delivery: whoever calls first (a finishing pool
  /// task, a shedding caller) takes the drain baton and delivers every
  /// deliverable window in sequence order; concurrent callers see the
  /// baton held and return — the holder's re-check after each delivery
  /// observes their insertions, so nothing is stranded.
  void DrainCompleted();
  /// Stage boundary: windower output → work queue (applies backpressure).
  void EnqueueWindow(TripleWindow window);
  /// The synchronous oracle path: reason + emit on the caller thread.
  void ProcessWindowSync(TripleWindow& window);
  /// Records stats and invokes the callback for one reasoned window (the
  /// callback may gut `window`, which the caller is about to discard).
  void DeliverResult(TripleWindow& window,
                     const StatusOr<ParallelReasonerResult>& result);
  /// Accounts for one shed window and routes its tombstone into the
  /// emission stream (directly in sync mode; via the reorder buffer in
  /// async mode). `evicted` distinguishes asynchronous kDropOldest
  /// evictions (counted dropped, delta NOT folded — the gap is
  /// mid-stream) from synchronous refusals (kReject / admission filter:
  /// counted rejected, delta folded into the next emission).
  void ShedWindow(TripleWindow window, bool evicted);
  /// Invokes the shed callback (if any) for one tombstone.
  void DeliverShed(TripleWindow& window);
  /// True when the smallest completed sequence has no smaller sequence
  /// still in flight. Requires emit_mutex_.
  bool CanEmitLocked() const;

  const Program* program_;
  PipelineOptions options_;
  PartitioningPlan plan_;
  DecompositionInfo info_;
  EmissionHandler handler_;
  /// False only via the trio adapter with no ErrorCallback: sync-mode
  /// reasoning exceptions then propagate out of Push instead of being
  /// converted into kError emissions.
  bool has_error_channel_ = true;
  std::unique_ptr<StreamQueryProcessor> query_;

  /// Sync mode's single reasoner (null in async mode).
  std::unique_ptr<ParallelReasoner> sync_reasoner_;

  mutable std::mutex stats_mutex_;
  PipelineStats stats_;

  // --- async engine state (untouched in sync mode) ---
  std::unique_ptr<BoundedQueue<TripleWindow>> work_queue_;
  /// The pool a standalone pipeline owns (null when one is injected).
  /// Declared before the lane and the slots so it outlives both; the
  /// destructor drains the lane before the pool joins its threads.
  std::unique_ptr<SharedReasonerPool> private_pool_;
  /// This pipeline's DRR lane (created on the private or injected pool,
  /// or adopted from options_.shared_queue in the sharded engine).
  std::shared_ptr<SharedReasonerPool::Queue> pool_queue_;
  /// Checked-in reasoner slots. Sized to the lane's inflight cap: at most
  /// that many of the lane's tasks run concurrently (engine-wide when the
  /// lane is shared across shard pipelines, so this pipeline's share is
  /// never larger), hence checkout always finds a free slot.
  std::mutex slots_mutex_;
  std::vector<std::unique_ptr<ParallelReasoner>> free_slots_;
  /// Drain baton (guarded by emit_mutex_): true while some thread is
  /// inside DrainCompleted's delivery loop.
  bool draining_ = false;

  std::mutex emit_mutex_;
  std::condition_variable drained_cv_;  ///< Wakes Flush waiters.
  std::map<uint64_t, CompletedWindow> completed_;  ///< Reorder buffer.
  std::set<uint64_t> inflight_;  ///< Admitted, not yet reasoned.
  size_t delivering_ = 0;  ///< Windows mid-callback under the baton.
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_PIPELINE_H_
