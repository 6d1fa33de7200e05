#include "core/topk.h"

#include <cassert>

namespace surf {

TopKFinder::TopKFinder(StatisticFn estimate, RegionSolutionSpace space,
                       TopKConfig config)
    : estimate_(std::move(estimate)),
      space_(std::move(space)),
      config_(config) {
  assert(estimate_ != nullptr);
  assert(config_.k > 0);
}

TopKResult TopKFinder::Find() const {
  // The threshold-free fitness J = log(ŷ) − c·Σ log l_i is the Eq. 4 log
  // objective at y_R = 0 (diff = ŷ − 0 = ŷ, undefined where ŷ ≤ 0), so
  // the threshold objective's batched path scores the swarm.
  ObjectiveConfig obj_config;
  obj_config.threshold = 0.0;
  obj_config.direction = ThresholdDirection::kAbove;
  obj_config.c = config_.c;
  obj_config.use_log = true;
  const RegionObjective objective(estimate_, batch_estimate_, obj_config);
  const GlowwormSwarmOptimizer gso(config_.gso);

  GsoResult swarm;
  {
    TraceSpan search_span(trace_, "search", TraceStage::kSearch);
    swarm = gso.Optimize(objective.AsBatchFitnessFn(), space_, kde_, cancel_,
                         progress_, trace_);
    search_span.Attr("iterations",
                     static_cast<uint64_t>(swarm.iterations_run));
  }
  TraceSpan extraction_span(trace_, "extraction", TraceStage::kExtraction);

  // Valid particles carry the statistic their final fitness came from.
  std::vector<ScoredRegion> candidates;
  for (size_t i = 0; i < swarm.particles.size(); ++i) {
    if (!swarm.valid[i]) continue;
    ScoredRegion cand;
    cand.region = swarm.particles[i];
    cand.fitness = swarm.fitness[i];
    cand.statistic = swarm.statistic[i];
    candidates.push_back(std::move(cand));
  }

  TopKResult result;
  result.regions = SelectDistinctRegions(std::move(candidates),
                                         config_.nms_max_iou, config_.k);
  result.iterations = swarm.iterations_run;
  result.objective_evaluations = swarm.objective_evaluations;
  result.cancelled = swarm.cancelled;
  extraction_span.Attr("regions",
                       static_cast<uint64_t>(result.regions.size()));
  return result;
}

}  // namespace surf
