#include "opt/pso.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace surf {

PsoResult ParticleSwarmOptimizer::Optimize(const FitnessFn& fitness,
                                           const RegionSolutionSpace& space,
                                           CancelToken cancel) const {
  assert(fitness != nullptr);
  return Optimize(ToBatchFitness(fitness), space, std::move(cancel));
}

PsoResult ParticleSwarmOptimizer::Optimize(const BatchFitnessFn& fitness,
                                           const RegionSolutionSpace& space,
                                           CancelToken cancel) const {
  assert(fitness != nullptr);
  const size_t L = std::max<size_t>(2, params_.num_particles);
  const size_t flat_d = space.flat_dims();
  const double vmax = params_.max_velocity_frac * space.FlatDiagonal();

  Rng rng(params_.seed);
  std::vector<std::vector<double>> pos(L), vel(L), pbest(L);
  std::vector<double> pbest_fit(L, -std::numeric_limits<double>::infinity());
  std::vector<bool> pbest_valid(L, false);

  PsoResult result;
  double gbest_fit = -std::numeric_limits<double>::infinity();
  std::vector<double> gbest;

  for (size_t i = 0; i < L; ++i) {
    pos[i] = space.Sample(&rng).ToFlat();
    vel[i].assign(flat_d, 0.0);
    pbest[i] = pos[i];
  }

  const size_t d = space.dims();
  RegionColumnStore swarm(d, L);
  std::vector<FitnessValue> evals(L);
  for (size_t t = 0; t < params_.max_iterations; ++t) {
    if (cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    // Clamp every particle into the space, then score the whole swarm in
    // one call over its columns.
    for (size_t i = 0; i < L; ++i) {
      for (size_t k = 0; k < d; ++k) {
        pos[i][k] = std::clamp(pos[i][k], space.bounds.lo(k),
                               space.bounds.hi(k));
        pos[i][d + k] = std::clamp(pos[i][d + k], space.min_half_length,
                                   space.max_half_length);
      }
      for (size_t k = 0; k < flat_d; ++k) swarm.col(k)[i] = pos[i][k];
    }
    fitness(swarm.View(L), evals.data());
    result.objective_evaluations += L;
    for (size_t i = 0; i < L; ++i) {
      const FitnessValue& fv = evals[i];
      if (fv.valid && fv.value > pbest_fit[i]) {
        pbest_fit[i] = fv.value;
        pbest[i] = pos[i];
        pbest_valid[i] = true;
        if (fv.value > gbest_fit) {
          gbest_fit = fv.value;
          gbest = pos[i];
          result.found_valid = true;
        }
      }
    }
    if (gbest.empty()) {
      // No valid particle yet: re-seed a fraction of the swarm.
      for (size_t i = 0; i < L / 4; ++i) {
        pos[rng.UniformInt(L)] = space.Sample(&rng).ToFlat();
      }
      result.iterations_run = t + 1;
      continue;
    }
    for (size_t i = 0; i < L; ++i) {
      for (size_t k = 0; k < flat_d; ++k) {
        const double r1 = rng.Uniform(), r2 = rng.Uniform();
        vel[i][k] = params_.inertia * vel[i][k] +
                    params_.cognitive * r1 * (pbest[i][k] - pos[i][k]) +
                    params_.social * r2 * (gbest[k] - pos[i][k]);
        vel[i][k] = std::clamp(vel[i][k], -vmax, vmax);
        pos[i][k] += vel[i][k];
      }
    }
    result.iterations_run = t + 1;
  }

  if (result.found_valid) {
    result.best = Region::FromFlat(gbest);
    result.best_fitness = gbest_fit;
  }
  return result;
}

}  // namespace surf
