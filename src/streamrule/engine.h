#ifndef STREAMASP_STREAMRULE_ENGINE_H_
#define STREAMASP_STREAMRULE_ENGINE_H_

#include <memory>
#include <vector>

#include "streamrule/emission.h"
#include "streamrule/engine_config.h"
#include "streamrule/engine_stats.h"
#include "streamrule/pipeline.h"
#include "streamrule/sharded_pipeline.h"

namespace streamasp {

/// The one engine surface: a facade over StreamRulePipeline (sync or
/// async) and ShardedPipelineEngine that picks the run-time shape from a
/// single validated EngineConfig and delivers one ordered EmissionEvent
/// stream either way. The server, the examples and both benches drive
/// this; the underlying engines stay public for tests and for consumers
/// that need punctuation-level control (the facade adds no behavior, so
/// output through it is byte-identical to driving the engines directly).
///
/// Thread-safety mirrors the engines: Push/PushBatch/Flush from one
/// thread at a time, stats() from anywhere, the handler must not
/// re-enter the engine.
class StreamEngine {
 public:
  /// Builds the engine `config` describes over `program` (which must
  /// outlive the engine). Fails on null program/handler or options the
  /// shared validator rejects (streamrule/validate.h).
  static StatusOr<std::unique_ptr<StreamEngine>> Create(
      const Program* program, EngineConfig config, EmissionHandler handler);

  /// Feeds one raw stream item. May block (lossless backpressure) or
  /// shed (lossy policies / admission filter) exactly as the underlying
  /// engine would.
  void Push(const Triple& triple);

  /// Feeds a batch.
  void PushBatch(const std::vector<Triple>& triples);

  /// Emits the trailing partial window (if any) and blocks until every
  /// admitted window has been reasoned, merged, and delivered. The
  /// engine remains usable afterwards.
  void Flush();

  /// Thread-safe unified snapshot.
  EngineStats stats() const;

  /// 0 when unsharded.
  size_t num_shards() const;

  /// Private reasoner-pool threads across the engine (0 for the
  /// synchronous oracle shape and for pipelines on an injected pool).
  size_t num_reason_workers() const;

  /// The underlying engine, for introspection (plan, decomposition info,
  /// punctuation-level control). Exactly one is non-null.
  StreamRulePipeline* pipeline() { return pipeline_.get(); }
  const StreamRulePipeline* pipeline() const { return pipeline_.get(); }
  ShardedPipelineEngine* sharded() { return sharded_.get(); }
  const ShardedPipelineEngine* sharded() const { return sharded_.get(); }

 private:
  StreamEngine() = default;

  std::unique_ptr<StreamRulePipeline> pipeline_;
  std::unique_ptr<ShardedPipelineEngine> sharded_;
};

}  // namespace streamasp

#endif  // STREAMASP_STREAMRULE_ENGINE_H_
