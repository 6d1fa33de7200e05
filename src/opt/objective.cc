#include "opt/objective.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace surf {

bool SatisfiesThreshold(double y, double threshold,
                        ThresholdDirection direction) {
  if (std::isnan(y)) return false;
  return direction == ThresholdDirection::kAbove ? y > threshold
                                                 : y < threshold;
}

RegionObjective::RegionObjective(StatisticFn statistic,
                                 ObjectiveConfig config)
    : statistic_(std::move(statistic)), config_(config) {
  assert(statistic_ != nullptr);
}

RegionObjective::RegionObjective(StatisticFn statistic,
                                 BatchStatisticFn batch_statistic,
                                 ObjectiveConfig config)
    : statistic_(std::move(statistic)),
      batch_statistic_(std::move(batch_statistic)),
      config_(config) {
  assert(statistic_ != nullptr);
}

namespace {

/// Per-thread statistic buffer for the batched path: grows to the largest
/// batch the thread has scored and is then reused, so a swarm iteration
/// allocates nothing.
double* StatisticScratch(size_t rows) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < rows) scratch.resize(rows);
  return scratch.data();
}

}  // namespace

template <typename HalfLength>
FitnessValue RegionObjective::FromStatistic(size_t dims, HalfLength half,
                                            double y) const {
  FitnessValue out;
  out.statistic = y;
  if (std::isnan(y) || !std::isfinite(y)) return out;

  const double diff = config_.direction == ThresholdDirection::kBelow
                          ? config_.threshold - y
                          : y - config_.threshold;

  if (config_.use_log) {
    // Eq. 4: undefined (invalid) outside the constraint.
    if (diff <= 0.0) return out;
    double size_penalty = 0.0;
    for (size_t i = 0; i < dims; ++i) {
      const double l = half(i);
      if (l <= 0.0) return out;
      size_penalty += std::log(l);
    }
    out.value = std::log(diff) - config_.c * size_penalty;
    out.valid = true;
    return out;
  }

  // Eq. 2: defined everywhere (Fig. 7 bottom row shows the negative
  // plateau), but still undefined for degenerate sizes.
  double volume_pow = 1.0;
  for (size_t i = 0; i < dims; ++i) {
    const double l = half(i);
    if (l <= 0.0) return out;
    volume_pow *= std::pow(l, config_.c);
  }
  out.value = diff / volume_pow;
  out.valid = true;
  return out;
}

FitnessValue RegionObjective::Evaluate(const Region& region) const {
  if (region.Degenerate()) return FitnessValue{};
  return FromStatistic(
      region.dims(), [&](size_t k) { return region.half_length(k); },
      statistic_(region));
}

void RegionObjective::EvaluateMany(const RegionColumns& regions,
                                   FitnessValue* out) const {
  auto score = [&](size_t r, double y) {
    return FromStatistic(
        regions.dims, [&](size_t k) { return regions.half_length(r, k); }, y);
  };
  // Degenerate rows never probe the statistic (same short-circuit as
  // Evaluate).
  bool any_degenerate = false;
  for (size_t r = 0; r < regions.rows; ++r) {
    if (regions.Degenerate(r)) {
      out[r] = FitnessValue{};
      any_degenerate = true;
    }
  }
  if (batch_statistic_ == nullptr) {
    Region region;
    for (size_t r = 0; r < regions.rows; ++r) {
      if (any_degenerate && regions.Degenerate(r)) continue;
      regions.CopyRow(r, &region);
      out[r] = score(r, statistic_(region));
    }
    return;
  }
  if (!any_degenerate) {
    // The common case: the view goes to the statistic as is.
    double* stats = StatisticScratch(regions.rows);
    batch_statistic_(regions, stats);
    for (size_t r = 0; r < regions.rows; ++r) out[r] = score(r, stats[r]);
    return;
  }
  std::vector<size_t> live;
  for (size_t r = 0; r < regions.rows; ++r) {
    if (!regions.Degenerate(r)) live.push_back(r);
  }
  RegionColumnStore packed(regions.dims, live.size());
  for (size_t k = 0; k < 2 * regions.dims; ++k) {
    for (size_t q = 0; q < live.size(); ++q) {
      packed.col(k)[q] = regions.cols[k][live[q]];
    }
  }
  double* stats = StatisticScratch(live.size());
  batch_statistic_(packed.View(live.size()), stats);
  for (size_t q = 0; q < live.size(); ++q) {
    out[live[q]] = score(live[q], stats[q]);
  }
}

std::vector<FitnessValue> RegionObjective::EvaluateMany(
    const std::vector<Region>& regions) const {
  std::vector<FitnessValue> out(regions.size());
  if (regions.empty()) return out;
  const RegionColumnStore packed = RegionColumnStore::Pack(regions);
  EvaluateMany(packed.View(regions.size()), out.data());
  return out;
}

FitnessFn RegionObjective::AsFitnessFn() const {
  return [this](const Region& region) { return Evaluate(region); };
}

BatchFitnessFn RegionObjective::AsBatchFitnessFn() const {
  return [this](const RegionColumns& regions, FitnessValue* out) {
    EvaluateMany(regions, out);
  };
}

BatchFitnessFn ToBatchFitness(FitnessFn fitness) {
  assert(fitness != nullptr);
  return [fitness = std::move(fitness)](const RegionColumns& regions,
                                        FitnessValue* out) {
    Region region;
    for (size_t r = 0; r < regions.rows; ++r) {
      regions.CopyRow(r, &region);
      out[r] = fitness(region);
    }
  };
}

std::vector<double> EvaluateStatistics(const std::vector<Region>& regions,
                                       const StatisticFn& scalar,
                                       const BatchStatisticFn& batch) {
  std::vector<double> out(regions.size());
  if (regions.empty()) return out;
  if (batch != nullptr) {
    const RegionColumnStore packed = RegionColumnStore::Pack(regions);
    batch(packed.View(regions.size()), out.data());
    return out;
  }
  for (size_t r = 0; r < regions.size(); ++r) out[r] = scalar(regions[r]);
  return out;
}

}  // namespace surf
