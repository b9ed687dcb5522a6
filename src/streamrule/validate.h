#ifndef STREAMASP_STREAMRULE_VALIDATE_H_
#define STREAMASP_STREAMRULE_VALIDATE_H_

#include "util/status.h"

namespace streamasp {

struct EngineConfig;
struct PipelineOptions;

/// Expands option shorthands in place so every engine surface agrees on
/// what a config means before validating or running it: reuse_grounding
/// ORs into reasoner.reasoner.reuse_grounding and reuse_solving into
/// reasoner.reasoner.solving.reuse_solving. (reuse_solving implies
/// reuse_grounding, but that implication is resolved per reasoner —
/// ResolveReuseOptions in parallel_reasoner.cc — because it is gated on
/// the program being non-disjunctive.) Idempotent; called by every
/// Create before ValidatePipelineOptions.
void NormalizePipelineOptions(PipelineOptions* options);

/// Create-time option validation shared by StreamRulePipeline,
/// ShardedPipelineEngine and the StreamEngine facade — the cross-cutting
/// rules live here exactly once, with uniform messages:
///   * async mode needs max_inflight_windows >= 1;
///   * window_slide must not exceed window_size;
///   * sharded only: lossy backpressure (kDropOldest/kReject) requires
///     async shard pipelines — sync mode has no work queue to shed from
///     (use pipeline.admission_filter for synchronous shedding).
/// `sharded` selects that last rule; an unsharded sync pipeline with a
/// lossy policy is allowed (the policy simply never engages).
Status ValidatePipelineOptions(const PipelineOptions& options,
                               bool sharded = false);

/// Sharded-engine validation of an EngineConfig: num_shards >= 1, then
/// the pipeline rules above with the sharded cross-cutting rules enabled.
Status ValidateShardedPipelineOptions(const EngineConfig& options);

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_VALIDATE_H_
