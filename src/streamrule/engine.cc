#include "streamrule/engine.h"

#include <utility>

namespace streamasp {

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    const Program* program, EngineConfig config, EmissionHandler handler) {
  std::unique_ptr<StreamEngine> engine(new StreamEngine());
  if (config.num_shards == 0) {
    STREAMASP_ASSIGN_OR_RETURN(
        engine->pipeline_,
        StreamRulePipeline::Create(program, std::move(config.pipeline),
                                   std::move(handler)));
    return engine;
  }
  STREAMASP_ASSIGN_OR_RETURN(
      engine->sharded_,
      ShardedPipelineEngine::Create(program, std::move(config),
                                    std::move(handler)));
  return engine;
}

void StreamEngine::Push(const Triple& triple) {
  if (pipeline_ != nullptr) {
    pipeline_->Push(triple);
  } else {
    sharded_->Push(triple);
  }
}

void StreamEngine::PushBatch(const std::vector<Triple>& triples) {
  if (pipeline_ != nullptr) {
    pipeline_->PushBatch(triples);
  } else {
    sharded_->PushBatch(triples);
  }
}

void StreamEngine::Flush() {
  if (pipeline_ != nullptr) {
    pipeline_->Flush();
  } else {
    sharded_->Flush();
  }
}

size_t StreamEngine::num_shards() const {
  return sharded_ == nullptr ? 0 : sharded_->num_shards();
}

size_t StreamEngine::num_reason_workers() const {
  if (pipeline_ != nullptr) return pipeline_->num_reason_workers();
  size_t workers = 0;
  for (size_t s = 0; s < sharded_->num_shards(); ++s) {
    workers += sharded_->shard(s).num_reason_workers();
  }
  return workers;
}

EngineStats StreamEngine::stats() const {
  if (sharded_ != nullptr) return sharded_->stats();
  EngineStats out;
  out.reasoning = pipeline_->stats();
  out.delivered_windows = out.reasoning.windows;
  out.delivered_answers = out.reasoning.answers;
  out.delivery_errors = out.reasoning.errors;
  return out;
}

}  // namespace streamasp
