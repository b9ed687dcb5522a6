#include "streamrule/sharded_pipeline.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <string>
#include <utility>

#include "streamrule/accuracy.h"
#include "streamrule/validate.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace streamasp {

StatusOr<std::unique_ptr<ShardedPipelineEngine>> ShardedPipelineEngine::Create(
    const Program* program, EngineConfig options,
    EmissionHandler handler) {
  if (program == nullptr) {
    return InvalidArgumentError("program must not be null");
  }
  if (handler == nullptr) {
    return InvalidArgumentError("emission handler must not be null");
  }
  // Lossy backpressure policies (kDropOldest/kReject) and the admission
  // filter are fully supported, sliding global windows included: a shed
  // sub-window surfaces as a tombstone in the shard's emission stream,
  // which releases its merge slot and lowers the merged window's
  // completeness instead of stalling the ordered merge (see
  // DeliverMerged). The cross-cutting option rules live in the shared
  // validator.
  STREAMASP_RETURN_IF_ERROR(ValidateShardedPipelineOptions(options));
  if (options.shard_key == nullptr) options.shard_key = SubjectShardKey();
  std::unique_ptr<ShardedPipelineEngine> engine(new ShardedPipelineEngine(
      program, std::move(options), std::move(handler)));
  STREAMASP_RETURN_IF_ERROR(engine->StartShards());
  return engine;
}

StatusOr<std::unique_ptr<ShardedPipelineEngine>> ShardedPipelineEngine::Create(
    const Program* program, EngineConfig options,
    ResultCallback callback) {
  if (callback == nullptr) {
    return InvalidArgumentError("result callback must not be null");
  }
  EmissionHandler handler =
      [callback = std::move(callback)](EmissionEvent& event) {
        if (event.kind == EmissionEvent::Kind::kResult) {
          callback(*event.window, *event.result);
        }
      };
  return Create(program, std::move(options), std::move(handler));
}

ShardedPipelineEngine::ShardedPipelineEngine(const Program* program,
                                             EngineConfig options,
                                             EmissionHandler handler)
    : program_(program),
      options_(std::move(options)),
      handler_(std::move(handler)),
      merge_combiner_(options_.pipeline.reasoner.combining),
      routed_items_(options_.num_shards) {
  const size_t n = options_.num_shards;
  slice_count_.assign(n, 0);
  owned_.assign(n, 0);
  pending_expired_.resize(n);
  pending_admitted_.resize(n);
  global_sequence_of_.resize(n);
}

Status ShardedPipelineEngine::StartShards() {
  const size_t n = options_.num_shards;
  for (const PredicateSignature& sig : program_->input_predicates()) {
    selected_.insert(sig.name);
  }

  // The router owns the global window boundaries: each shard's windower
  // gets a size it can never reach between punctuations (at most
  // window_size_ items cross all shards per global window), so every
  // sub-window close comes from CloseWindow(). Sliding global windows
  // instead put the shard windowers in external-delta mode: they retain
  // routed survivors and every boundary arrives as a delta-carrying
  // CloseWindow(WindowDelta) from the router.
  PipelineOptions inner = options_.pipeline;
  window_size_ = std::max<size_t>(1, inner.window_size);
  slide_ = inner.window_slide == 0
               ? window_size_
               : std::min(inner.window_slide, window_size_);
  if (window_size_ < SIZE_MAX) inner.window_size = window_size_ + 1;
  inner.window_slide = 0;
  inner.external_delta_punctuation = sliding();

  // Budget thread counts left at "pick for me" across the shards, so N
  // shards do not each claim the whole machine.
  if (inner.async && inner.shared_pool != nullptr &&
      inner.shared_queue == nullptr) {
    // Shared-pool mode: build ONE engine-wide DRR lane here and hand it
    // to every shard pipeline, so the tenant's weight and inflight cap
    // govern the whole engine rather than multiplying by num_shards.
    // Each shard still sizes its own reasoner slots to the lane's cap
    // (its concurrent tasks are a subset of the lane's). No per-shard
    // thread budgeting: pipelines on an injected pool own no threads, and
    // reasoner.num_threads left at 0 resolves to inline mode inside the
    // pipeline.
    size_t cap = inner.pool_max_inflight;
    if (cap == 0) {
      cap = std::min<size_t>(inner.max_inflight_windows,
                             inner.shared_pool->num_threads());
    }
    inner.shared_queue = inner.shared_pool->CreateQueue(
        inner.pool_weight, std::max<size_t>(cap, 1));
  } else if (inner.async) {
    if (inner.num_reason_workers == 0) {
      inner.num_reason_workers = std::max<size_t>(
          1, std::min(inner.max_inflight_windows, DefaultThreadCount() / n));
    }
    if (inner.reasoner.num_threads == 0) {
      inner.reasoner.num_threads = std::max<size_t>(
          1, DefaultThreadCount() / (n * inner.num_reason_workers));
    }
  } else if (inner.reasoner.num_threads == 0) {
    inner.reasoner.num_threads =
        std::max<size_t>(1, DefaultThreadCount() / n);
  }

  shards_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    StatusOr<std::unique_ptr<StreamRulePipeline>> shard =
        StreamRulePipeline::Create(
            program_, inner,
            EmissionHandler([this, s](EmissionEvent& event) {
              Contribution contribution;
              contribution.shard = s;
              switch (event.kind) {
                case EmissionEvent::Kind::kResult:
                  contribution.result = *event.result;
                  break;
                case EmissionEvent::Kind::kError:
                  contribution.result = event.status;
                  break;
                case EmissionEvent::Kind::kShed:
                  contribution.shed = true;
                  break;
              }
              Contribute(std::move(contribution));
            }));
    STREAMASP_RETURN_IF_ERROR(shard.status());
    shards_.push_back(std::move(*shard));
  }

  // The paper's duplication device, lifted to the router: a predicate
  // whose ground atoms several dependency communities need cannot be
  // co-located with all of its consumers by any single-shard hash, so
  // its items are broadcast to every shard (Route); only the owning
  // shard's copy enters the recorded global window. Every shard analyzes
  // the same program, so shard 0's plan speaks for all. With one shard
  // there is nobody to broadcast to; keep the hot path untouched.
  if (n > 1) {
    for (const PredicateSignature& sig :
         shards_[0]->plan().DuplicatedPredicates()) {
      duplicated_.insert(sig.name);
    }
  }
  return OkStatus();
}

ShardedPipelineEngine::~ShardedPipelineEngine() {
  // Each shard drains the sub-windows it was punctuated for; the last
  // contribution of every assigned global window delivers it under the
  // merge baton. A partial global window was never assigned a sequence,
  // so the merge expects nothing from it. The merge never touches
  // shards_, so shards still draining race nothing here.
  shards_.clear();
}

void ShardedPipelineEngine::Push(const Triple& triple) {
  if (selected_.count(triple.predicate) == 0) {
    filtered_items_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Route(triple);
}

void ShardedPipelineEngine::PushBatch(const std::vector<Triple>& triples) {
  for (const Triple& triple : triples) Push(triple);
}

// Tag on the retained global WindowStore's shard column for broadcast
// (duplicated-predicate) items: eviction must reach every shard's expired
// delta, not only the owner's.
constexpr uint32_t kBroadcastBit = 1u << 31;

void ShardedPipelineEngine::Route(const Triple& triple) {
  const size_t n = shards_.size();
  const size_t shard = static_cast<size_t>(options_.shard_key(triple) % n);
  // Duplicated predicates are broadcast: every shard gets a copy, but
  // only the owning shard's copy is global window content — replicas are
  // reasoning context. Under sliding global windows each copy is also
  // admitted to its shard's pending delta.
  const bool broadcast =
      !duplicated_.empty() && duplicated_.count(triple.predicate) > 0;
  const auto send = [this, &triple](size_t s) {
    shards_[s]->Push(triple);
    routed_items_[s].fetch_add(1, std::memory_order_relaxed);
    ++slice_count_[s];
    if (sliding()) pending_admitted_[s].push_back(triple);
  };
  if (broadcast) {
    for (size_t s = 0; s < n; ++s) send(s);
  } else {
    send(shard);
  }
  ++owned_[shard];
  if (!sliding()) {
    window_items_.push_back(triple);
    if (window_items_.size() >= window_size_) CloseGlobalWindow();
    return;
  }

  // Sliding global windows: retain the item and evict the globally
  // oldest item once the window overflows — the eviction lands in the
  // expired delta of every shard holding a copy, which is what keeps
  // every per-shard delta exactly the routed split of the global one.
  global_window_.Append(triple, static_cast<uint32_t>(shard) |
                                    (broadcast ? kBroadcastBit : 0));
  if (global_window_.size() > window_size_) {
    const uint32_t tag = global_window_.ShardAt(0);
    const size_t owner = tag & ~kBroadcastBit;
    const Triple oldest = global_window_.Front();
    const auto expire = [this, &oldest](size_t s) {
      pending_expired_[s].push_back(oldest);
      --slice_count_[s];
    };
    if ((tag & kBroadcastBit) != 0) {
      for (size_t s = 0; s < n; ++s) expire(s);
    } else {
      expire(owner);
    }
    --owned_[owner];
    global_window_.PopFront();
  }
  ++arrivals_since_emit_;
  if (global_window_.bytes() >
      router_window_bytes_.load(std::memory_order_relaxed)) {
    router_window_bytes_.store(global_window_.bytes(),
                               std::memory_order_relaxed);
  }
  // Same cadence as the unsharded sliding windower: first boundary when
  // the global window first fills, then every slide_ survivors.
  if ((!emitted_once_ && global_window_.size() == window_size_) ||
      (emitted_once_ && arrivals_since_emit_ >= slide_)) {
    CloseGlobalWindow();
  }
}

void ShardedPipelineEngine::CloseGlobalWindow() {
  const uint64_t sequence = next_global_sequence_++;
  GlobalWindow window;
  window.owned = owned_;
  if (sliding()) {
    global_window_.CopyTo(&window.items);
  } else {
    window.items = std::move(window_items_);
    window_items_.clear();
    window_items_.reserve(window.items.size());
  }
  // Record the merge's expectations and the shard→global sequence
  // mapping BEFORE any shard is punctuated: a shard may deliver its
  // sub-window before this function returns (a synchronous shard does so
  // inside CloseWindow, on this thread — which is why the lock is not
  // held across the calls below). A boundary only fires with a non-empty
  // global window, so at least one shard contributes.
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (slice_count_[s] == 0) continue;
      ++window.expected;
      global_sequence_of_[s].push_back(sequence);
    }
    windows_.emplace(sequence, std::move(window));
    ++assigned_windows_;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!sliding()) {
      if (slice_count_[s] > 0) shards_[s]->CloseWindow();
      slice_count_[s] = 0;
      owned_[s] = 0;
      continue;
    }
    if (slice_count_[s] == 0) {
      // Nothing of this shard survives in the global window: skip the
      // punctuation (an empty sub-window would distort the merge) and
      // let its pending deltas fold into its next contributing boundary
      // — deltas compose, so the folded delta is still exact.
      if (!pending_expired_[s].empty() || !pending_admitted_[s].empty()) {
        skipped_empty_slices_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    WindowDelta delta;
    delta.expired = std::move(pending_expired_[s]);
    delta.admitted = std::move(pending_admitted_[s]);
    pending_expired_[s].clear();
    pending_admitted_[s].clear();
    shards_[s]->CloseWindow(std::move(delta));
    delta_punctuations_.fetch_add(1, std::memory_order_relaxed);
  }
  arrivals_since_emit_ = 0;
  emitted_once_ = true;
}

void ShardedPipelineEngine::Flush() {
  if (sliding()) {
    // Mirror the unsharded sliding windower's Flush: emit the retained
    // buffer as a final window when anything arrived since the last
    // boundary (or nothing was ever emitted).
    if (!global_window_.empty() &&
        (!emitted_once_ || arrivals_since_emit_ > 0)) {
      CloseGlobalWindow();
    }
  } else if (!window_items_.empty()) {
    CloseGlobalWindow();
  }
  // Each shard's Flush returns once its last emission callback has
  // returned. Every contribution is parked inside such a callback, and
  // the baton holder re-checks for complete windows under merge_mutex_
  // before it lets go, so once every shard has drained, every assigned
  // global window has been delivered.
  for (std::unique_ptr<StreamRulePipeline>& shard : shards_) shard->Flush();
  std::lock_guard<std::mutex> lock(merge_mutex_);
  assert(delivered_windows_ == assigned_windows_);
}

void ShardedPipelineEngine::Contribute(Contribution contribution) {
  std::unique_lock<std::mutex> lock(merge_mutex_);
  // Shard pipelines emit result, error and tombstone alike in strict
  // local window order, so the front of the FIFO is this sub-window's
  // global sequence.
  std::deque<uint64_t>& sequences = global_sequence_of_[contribution.shard];
  GlobalWindow& window = windows_.at(sequences.front());
  sequences.pop_front();
  if (window.contributions.empty()) {
    max_merge_reorder_depth_ =
        std::max(max_merge_reorder_depth_, ++parked_windows_);
  }
  window.contributions.push_back(std::move(contribution));
  if (merging_) {
    // Another thread holds the merge baton. It re-checks the oldest
    // window under this mutex after each delivery and before releasing
    // the baton, so what we parked is delivered without us.
    return;
  }
  merging_ = true;
  while (!windows_.empty()) {
    // Sequences are assigned and delivered in order, so the map's first
    // entry is the next global window due.
    auto first = windows_.begin();
    if (first->second.contributions.size() < first->second.expected) break;
    const uint64_t sequence = first->first;
    GlobalWindow complete = std::move(first->second);
    windows_.erase(first);
    --parked_windows_;
    DeliverMerged(sequence, complete, lock);
  }
  merging_ = false;
}

void ShardedPipelineEngine::DeliverMerged(
    uint64_t global_sequence, GlobalWindow& window,
    std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::vector<Contribution>& contributions = window.contributions;
  std::sort(contributions.begin(), contributions.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.shard < b.shard;
            });

  TripleWindow merged;
  merged.sequence = global_sequence;
  merged.items = std::move(window.items);
  // Shed (tombstoned) sub-windows keep their items in the merged window —
  // it is the full global window the oracle would have reasoned, so sizes
  // stay comparable — but contribute no answers: the degradation shows up
  // as completeness < 1, weighted by the items each shard owns (broadcast
  // replicas count once, at their owner).
  size_t reasoned_items = 0;
  size_t shed_contributions = 0;
  Status failure = OkStatus();
  for (const Contribution& contribution : contributions) {
    if (contribution.shed) {
      ++shed_contributions;
      continue;
    }
    reasoned_items += window.owned[contribution.shard];
    if (failure.ok() && !contribution.result.ok()) {
      failure = contribution.result.status();
    }
  }
  const double completeness =
      CompletenessRatio(reasoned_items, merged.items.size());

  // A throwing handler must not unwind the delivering thread (a shard's
  // pool worker, or the caller); its slot counts as an error.
  const auto emit = [this, global_sequence](EmissionEvent& event) {
    try {
      handler_(event);
      return true;
    } catch (const std::exception& e) {
      STREAMASP_LOG(kError) << "global window " << global_sequence
                            << ": emission handler threw: " << e.what();
    } catch (...) {
      STREAMASP_LOG(kError) << "global window " << global_sequence
                            << ": emission handler threw";
    }
    return false;
  };
  bool delivered = false;
  uint64_t answers = 0;
  if (failure.ok()) {
    WallTimer combine_timer;
    std::vector<std::vector<GroundAnswer>> per_shard;
    per_shard.reserve(contributions.size());
    for (Contribution& contribution : contributions) {
      if (contribution.shed) continue;
      per_shard.push_back(std::move(contribution.result->answers));
    }
    // A fully shed global window combines nothing: deliver zero answer
    // sets (completeness says why) rather than Combine's vacuous empty
    // union.
    StatusOr<std::vector<GroundAnswer>> combined =
        per_shard.empty() ? std::vector<GroundAnswer>{}
                          : merge_combiner_.Combine(per_shard);
    if (!combined.ok()) {
      failure = combined.status();
    } else {
      // Cross-shard view of the per-shard measurements: the shards ran
      // concurrently, so wall-clock-like quantities take the max while
      // work-like quantities sum.
      ParallelReasonerResult result;
      result.answers = std::move(*combined);
      result.completeness = completeness;
      for (const Contribution& contribution : contributions) {
        if (contribution.shed) continue;
        const ParallelReasonerResult& r = *contribution.result;
        result.latency_ms = std::max(result.latency_ms, r.latency_ms);
        result.partition_ms += r.partition_ms;
        result.reason_ms = std::max(result.reason_ms, r.reason_ms);
        result.combine_ms += r.combine_ms;
        result.critical_path_ms =
            std::max(result.critical_path_ms, r.critical_path_ms);
        result.num_partitions += r.num_partitions;
        result.partition_latency_ms.insert(result.partition_latency_ms.end(),
                                           r.partition_latency_ms.begin(),
                                           r.partition_latency_ms.end());
        result.total_partition_items += r.total_partition_items;
      }
      result.combine_ms += combine_timer.ElapsedMillis();
      answers = result.answers.size();
      EmissionEvent event;
      event.sequence = global_sequence;
      event.window = &merged;
      event.result = &result;
      event.completeness = completeness;
      delivered = emit(event);
    }
  }
  if (!failure.ok()) {
    STREAMASP_LOG(kError) << "global window " << global_sequence << ": "
                          << failure;
    // Errors consume their slot in the emission stream too: handler-based
    // consumers (the session server) see why the window is missing; the
    // legacy result-callback adapter drops the event, matching the old
    // log-and-count behavior. Counted as delivery_errors either way.
    EmissionEvent event;
    event.kind = EmissionEvent::Kind::kError;
    event.sequence = global_sequence;
    event.window = &merged;
    event.status = failure;
    event.completeness = 0.0;
    emit(event);
  }

  lock.lock();
  ++delivered_windows_;
  shed_subwindows_ += shed_contributions;
  if (delivered) {
    ++merged_windows_;
    merged_answers_ += answers;
    completeness_sum_ += completeness;
    min_completeness_ = std::min(min_completeness_, completeness);
    if (completeness < 1.0) ++degraded_windows_;
  } else {
    ++merge_errors_;
  }
}

EngineStats ShardedPipelineEngine::stats() const {
  EngineStats out;
  out.num_shards = shards_.size();
  out.per_shard.reserve(shards_.size());
  for (const std::unique_ptr<StreamRulePipeline>& shard : shards_) {
    const PipelineStats stats = shard->stats();
    out.reasoning.windows += stats.windows;
    out.reasoning.items += stats.items;
    out.reasoning.answers += stats.answers;
    out.reasoning.total_latency_ms += stats.total_latency_ms;
    out.reasoning.max_latency_ms =
        std::max(out.reasoning.max_latency_ms, stats.max_latency_ms);
    out.reasoning.total_critical_path_ms += stats.total_critical_path_ms;
    out.reasoning.errors += stats.errors;
    out.reasoning.enqueued_windows += stats.enqueued_windows;
    out.reasoning.dropped_windows += stats.dropped_windows;
    out.reasoning.rejected_windows += stats.rejected_windows;
    out.reasoning.shed_items += stats.shed_items;
    out.reasoning.max_queue_depth =
        std::max(out.reasoning.max_queue_depth, stats.max_queue_depth);
    out.reasoning.max_reorder_depth =
        std::max(out.reasoning.max_reorder_depth, stats.max_reorder_depth);
    out.reasoning.incremental_windows += stats.incremental_windows;
    out.reasoning.grounding_fallbacks += stats.grounding_fallbacks;
    out.reasoning.grounding_rules_retained += stats.grounding_rules_retained;
    out.reasoning.grounding_rules_retracted +=
        stats.grounding_rules_retracted;
    out.reasoning.grounding_rules_new += stats.grounding_rules_new;
    out.reasoning.incremental_solve_windows +=
        stats.incremental_solve_windows;
    out.reasoning.solve_rebuilds += stats.solve_rebuilds;
    out.reasoning.solver_rules_retained += stats.solver_rules_retained;
    out.reasoning.solver_rules_retracted += stats.solver_rules_retracted;
    out.reasoning.solver_rules_new += stats.solver_rules_new;
    out.reasoning.warm_start_hits += stats.warm_start_hits;
    out.reasoning.atoms_touched += stats.atoms_touched;
    out.reasoning.assignments_reused += stats.assignments_reused;
    out.reasoning.fixpoint_maintained_windows +=
        stats.fixpoint_maintained_windows;
    out.reasoning.total_ground_ms += stats.total_ground_ms;
    out.reasoning.total_solve_ms += stats.total_solve_ms;
    // Data-plane footprint: shard peaks coexist (they retain disjoint
    // splits of the same global window), so bytes sum; the per-shard
    // window-item peaks likewise sum to ~the global window size, which
    // keeps reasoning.bytes_per_triple() a per-global-triple figure.
    out.reasoning.window_store_bytes += stats.window_store_bytes;
    out.reasoning.atom_table_bytes += stats.atom_table_bytes;
    out.reasoning.max_window_items += stats.max_window_items;
    out.per_shard.push_back(stats);
  }
  out.reasoning.window_store_bytes +=
      router_window_bytes_.load(std::memory_order_relaxed);
  out.routed_items.reserve(routed_items_.size());
  for (const std::atomic<uint64_t>& routed : routed_items_) {
    out.routed_items.push_back(routed.load(std::memory_order_relaxed));
  }
  out.filtered_items = filtered_items_.load(std::memory_order_relaxed);
  out.delta_punctuations =
      delta_punctuations_.load(std::memory_order_relaxed);
  out.skipped_empty_slices =
      skipped_empty_slices_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    out.delivered_windows = merged_windows_;
    out.delivered_answers = merged_answers_;
    out.delivery_errors = merge_errors_;
    out.shed_subwindows = shed_subwindows_;
    out.degraded_windows = degraded_windows_;
    out.mean_completeness =
        merged_windows_ == 0 ? 1.0 : completeness_sum_ / merged_windows_;
    out.min_completeness = min_completeness_;
    out.max_merge_reorder_depth = max_merge_reorder_depth_;
  }
  return out;
}

ShardKeyExtractor CommunityShardKey(const PartitioningPlan& plan) {
  return [plan](const Triple& triple) -> uint64_t {
    const PredicateSignature signature{
        triple.predicate, triple.object.has_value() ? 2u : 1u};
    const std::vector<int>& communities = plan.CommunitiesOf(signature);
    return communities.empty() ? 0
                               : static_cast<uint64_t>(communities.front());
  };
}

}  // namespace streamasp
