#include "opt/gso.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

namespace surf {

GsoParams GsoParams::PaperScaled(size_t data_dims) {
  GsoParams params;
  const size_t d = std::max<size_t>(1, data_dims);
  params.num_glowworms = 50 * d;
  // r0 = (1 − (1/2)^{1/L})^{1/d} — the paper's §V-G radius, derived from
  // the expected edge length needed to cover a 1/L fraction of unit
  // volume (Hastie et al. Eq. 2.24). The result is already a fraction of
  // the (unit) domain, so it maps onto initial_radius_frac.
  const double L = static_cast<double>(params.num_glowworms);
  params.initial_radius_frac = std::pow(
      1.0 - std::pow(0.5, 1.0 / L), 1.0 / static_cast<double>(d));
  params.sensor_radius_frac =
      std::min(1.0, 1.5 * params.initial_radius_frac);
  return params;
}

double GsoResult::ValidFraction() const {
  if (valid.empty()) return 0.0;
  size_t n = 0;
  for (bool v : valid) n += v ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(valid.size());
}

GsoResult GlowwormSwarmOptimizer::Optimize(const FitnessFn& fitness,
                                           const RegionSolutionSpace& space,
                                           const Kde* kde, CancelToken cancel,
                                           SearchProgress* progress,
                                           TraceContext* trace) const {
  assert(fitness != nullptr);
  return Optimize(ToBatchFitness(fitness), space, kde, std::move(cancel),
                  progress, trace);
}

namespace {

/// Adjacent doubles of a finite non-negative x by stepping its bit
/// pattern (no libm call): x's successor, and for x > 0 its predecessor.
double NextUp(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  ++bits;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

double NextDown(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  --bits;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

/// The largest double whose correctly rounded sqrt is <= r. sqrt is
/// monotone, so sqrt(s) <= r exactly when s <= SquaredRadiusBound(r): the
/// neighbour test keeps the reference `FlatDistance(...) <= radius`
/// semantics without a sqrt per pair. r·r lands within a step or two.
double SquaredRadiusBound(double r) {
  if (!(r >= 0.0)) return r < 0.0 ? -1.0 : r;  // negative or NaN
  if (!std::isfinite(r)) return r;
  double t = r * r;  // +0 for r = ±0
  while (t > 0.0 && std::sqrt(t) > r) t = NextDown(t);
  while (std::isfinite(t) && std::sqrt(NextUp(t)) <= r) t = NextUp(t);
  return t;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", seconds);
  return buf;
}

}  // namespace

GsoResult GlowwormSwarmOptimizer::Optimize(const BatchFitnessFn& fitness,
                                           const RegionSolutionSpace& space,
                                           const Kde* kde, CancelToken cancel,
                                           SearchProgress* progress,
                                           TraceContext* trace) const {
  assert(fitness != nullptr);
  const size_t L = std::max<size_t>(2, params_.num_glowworms);
  const size_t d = space.dims();
  const size_t width = 2 * d;  // flat [x, l] coordinates per particle
  const double diagonal = space.FlatDiagonal();
  const double r0 = params_.initial_radius_frac * diagonal;
  const double rs = std::max(r0, params_.sensor_radius_frac * diagonal);
  const double step = params_.step_frac * diagonal;
  const double conv_tol = params_.convergence_tol_frac * diagonal;
  const std::vector<double>& lo = space.bounds.lo();
  const std::vector<double>& hi = space.bounds.hi();

  // The whole swarm lives in flat columns allocated here, once: `pos`
  // holds column k of particle i at pos.col(k)[i] (RegionFeatures order),
  // `next` the positions proposed by the current move phase, and `batch`
  // the gathered rows of the particles re-scored this iteration.
  RegionColumnStore pos(d, L), next(d, L), batch(d, L);
  std::vector<double> luciferin(L, params_.initial_luciferin);
  std::vector<double> radius(L, r0);
  std::vector<double> fit(L, 0.0);
  std::vector<double> stat(L, std::numeric_limits<double>::quiet_NaN());
  std::vector<uint8_t> valid(L, 0);
  // `moved`: the position changed since the particle was last scored
  // (every particle starts unscored). `proposed`: the move phase wrote a
  // candidate position into `next`.
  std::vector<uint8_t> moved(L, 1), proposed(L, 0);
  std::vector<double> dist2(L);
  std::vector<uint32_t> neighbors(L), rows(L);
  std::vector<double> weights;
  weights.reserve(L);
  std::vector<FitnessValue> evals(L);
  std::vector<double> flat(width);
  Region scratch{std::vector<double>(d), std::vector<double>(d)};

  auto set_row = [](RegionColumnStore* store, size_t i, const double* v) {
    for (size_t k = 0; k < store->dims() * 2; ++k) store->col(k)[i] = v[k];
  };
  // Reference FlatDistance between row i of `a` and row j of `b`: the
  // same per-dimension (dc² + dl²) summation order, then sqrt.
  auto flat_distance = [d](const RegionColumnStore& a, size_t i,
                           const RegionColumnStore& b, size_t j) {
    double s = 0.0;
    for (size_t k = 0; k < d; ++k) {
      const double dc = a.col(k)[i] - b.col(k)[j];
      const double dl = a.col(d + k)[i] - b.col(d + k)[j];
      s += dc * dc + dl * dl;
    }
    return std::sqrt(s);
  };

  Rng rng(params_.seed);
  for (size_t i = 0; i < L; ++i) {
    space.SampleFlat(&rng, flat.data());
    set_row(&pos, i, flat.data());
  }

  // KDE-seeded initialization: move a fraction of the particle centers
  // onto (jittered) data locations so the swarm starts with members in
  // populated space. Half-lengths keep their uniform draw.
  if (kde != nullptr && params_.kde_seeded_fraction > 0.0 &&
      kde->dims() == d) {
    const size_t seeded = std::min(
        L, static_cast<size_t>(params_.kde_seeded_fraction *
                               static_cast<double>(L)));
    for (size_t i = 0; i < seeded; ++i) {
      const std::vector<double> p = kde->DrawPoint(&rng);
      for (size_t j = 0; j < d; ++j) {
        // Seeded particles start with near-maximal boxes: a large box
        // anchored on data captures the surrounding mass, giving an
        // immediately-valid vantage point the swarm can shrink from.
        // Smaller-length seeding leaves most high-dimensional seeds too
        // small to catch their neighbourhood's statistic.
        pos.col(j)[i] = std::clamp(p[j], lo[j], hi[j]);
        pos.col(d + j)[i] = std::clamp(
            rng.Uniform(0.9 * space.max_half_length, space.max_half_length),
            space.min_half_length, space.max_half_length);
      }
    }
  }

  // Cached KDE region mass per particle, refreshed after each move. Only
  // maintained when Eq. 8 guidance is on — the per-particle RegionMass
  // integral dominates iteration cost otherwise.
  const bool kde_guided = kde != nullptr && params_.kde_mass_guidance;
  std::vector<double> kde_mass(L, 1.0);
  auto refresh_mass = [&](size_t i) {
    if (!kde_guided) return;
    pos.View(L).CopyRow(i, &scratch);
    kde_mass[i] = std::max(1e-12, kde->RegionMass(scratch));
  };
  for (size_t i = 0; i < L; ++i) refresh_mass(i);

  // Scores the particles whose position changed since they were last
  // scored. Prediction is per row, so an unmoved particle's fitness bits
  // cannot change; a full swarm goes to `fitness` without a gather.
  auto score_moved = [&]() -> size_t {
    size_t m = 0;
    for (size_t i = 0; i < L; ++i) {
      rows[m] = static_cast<uint32_t>(i);
      m += moved[i];
    }
    if (m == 0) return 0;
    if (m == L) {
      fitness(pos.View(L), evals.data());
    } else {
      for (size_t k = 0; k < width; ++k) {
        const double* src = pos.col(k);
        double* dst = batch.col(k);
        for (size_t q = 0; q < m; ++q) dst[q] = src[rows[q]];
      }
      fitness(batch.View(m), evals.data());
    }
    for (size_t q = 0; q < m; ++q) {
      const size_t i = rows[q];
      fit[i] = evals[q].value;
      valid[i] = evals[q].valid ? 1 : 0;
      stat[i] = evals[q].statistic;
      moved[i] = 0;
    }
    return m;
  };

  GsoResult result;
  // Reserved so iterations do not grow the history; capped because
  // max_iterations comes from requests and a swarm may stop early.
  const size_t history_reserve =
      std::min<size_t>(params_.max_iterations, 1024);
  result.history.mean_fitness.reserve(history_reserve);
  result.history.mean_movement.reserve(history_reserve);
  result.history.valid_fraction.reserve(history_reserve);
  size_t quiet_iters = 0;
  if (progress != nullptr) {
    progress->max_iterations.store(params_.max_iterations,
                                   std::memory_order_relaxed);
  }

  // One trace span per block of iterations (not per iteration — a long
  // swarm would flood the trace). Stage kNone: the finder's "search"
  // span already accounts this time in the stage histograms. Phase
  // clocks are read only when a trace is attached.
  using Clock = std::chrono::steady_clock;
  constexpr size_t kItersPerSpan = 10;
  int32_t iters_span = -1;
  size_t iters_span_start = 0;
  double predict_s = 0.0, neighbours_s = 0.0, move_s = 0.0;
  uint64_t rows_scored = 0;
  Clock::time_point phase_start;
  auto lap = [&](double* acc) {
    if (trace == nullptr) return;
    const Clock::time_point now = Clock::now();
    *acc += std::chrono::duration<double>(now - phase_start).count();
    phase_start = now;
  };
  auto close_iters_span = [&](size_t next_t) {
    if (iters_span < 0) return;
    trace->AddAttr(iters_span, "iterations",
                   std::to_string(iters_span_start) + ".." +
                       std::to_string(next_t == 0 ? 0 : next_t - 1));
    trace->AddAttr(iters_span, "predict_s", FormatSeconds(predict_s));
    trace->AddAttr(iters_span, "neighbours_s", FormatSeconds(neighbours_s));
    trace->AddAttr(iters_span, "move_s", FormatSeconds(move_s));
    trace->AddAttr(iters_span, "rows_scored", std::to_string(rows_scored));
    trace->EndSpan(iters_span);
    iters_span = -1;
    predict_s = neighbours_s = move_s = 0.0;
    rows_scored = 0;
  };

  for (size_t t = 0; t < params_.max_iterations; ++t) {
    if (cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    if (trace != nullptr) {
      if (t % kItersPerSpan == 0) {
        close_iters_span(t);
        iters_span = trace->BeginSpan("gso_iterations", TraceStage::kNone);
        iters_span_start = t;
      }
      phase_start = Clock::now();
    }
    // Phase 1 — luciferin update (Eq. 6). Invalid particles decay only:
    // γ·Ĵ is withheld where the objective is undefined, so glowworms in
    // the white (constraint-violating) areas lose attraction.
    //
    // Deviation from the raw Eq. 6: the reinforcement is the particle's
    // margin over the iteration's *worst valid* fitness rather than Ĵ
    // itself. Raw Ĵ breaks down when the objective is negative (e.g. the
    // size-rewarding c < 0 regime): invalid particles, which only decay
    // from their initial luciferin, would then outshine valid ones and
    // attract the swarm into undefined space. The shift is scale-free and
    // preserves the within-iteration ordering Eq. 7 depends on.
    rows_scored += score_moved();
    result.objective_evaluations += L;
    lap(&predict_s);
    double fitness_sum = 0.0;
    size_t valid_count = 0;
    double worst_valid = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < L; ++i) {
      if (valid[i]) {
        worst_valid = std::min(worst_valid, fit[i]);
        fitness_sum += fit[i];
        ++valid_count;
      }
    }
    for (size_t i = 0; i < L; ++i) {
      luciferin[i] = (1.0 - params_.luciferin_decay) * luciferin[i];
      if (valid[i]) {
        // Margin over the worst valid particle, plus a small validity
        // bonus so even the dimmest valid particle eventually outshines
        // the decaying invalid ones.
        luciferin[i] +=
            params_.luciferin_gain * (fit[i] - worst_valid + 0.1);
      }
      luciferin[i] = std::max(0.0, luciferin[i]);
    }
    result.history.mean_fitness.push_back(
        valid_count > 0 ? fitness_sum / static_cast<double>(valid_count)
                        : 0.0);
    result.history.valid_fraction.push_back(
        static_cast<double>(valid_count) / static_cast<double>(L));
    lap(&move_s);

    // Phase 2 — probabilistic movement toward brighter neighbours. Moves
    // read the iteration's start positions and write into `next`.
    double movement_sum = 0.0;
    for (size_t i = 0; i < L; ++i) {
      // Squared flat distance from particle i to every particle in one
      // blocked pass over the columns (same per-pair summation order as
      // FlatDistance), then a branch-free compaction of the brighter
      // particles inside the radius (never i itself).
      std::fill(dist2.begin(), dist2.end(), 0.0);
      for (size_t k = 0; k < d; ++k) {
        const double* c = pos.col(k);
        const double* l = pos.col(d + k);
        const double ci = c[i];
        const double li = l[i];
        for (size_t j = 0; j < L; ++j) {
          const double dc = ci - c[j];
          const double dl = li - l[j];
          dist2[j] += dc * dc + dl * dl;
        }
      }
      const double bound = SquaredRadiusBound(radius[i]);
      const double own = luciferin[i];
      size_t n = 0;
      for (size_t j = 0; j < L; ++j) {
        neighbors[n] = static_cast<uint32_t>(j);
        n += static_cast<size_t>(luciferin[j] > own) &
             static_cast<size_t>(dist2[j] <= bound);
      }
      weights.clear();
      for (size_t q = 0; q < n; ++q) {
        const size_t j = neighbors[q];
        double w = luciferin[j] - own;  // Eq. 7 numerator
        if (kde_guided) w *= kde_mass[j];  // Eq. 8 re-weighting
        weights.push_back(w);
      }

      // Adaptive neighborhood radius.
      const double nd = static_cast<double>(params_.desired_neighbors) -
                        static_cast<double>(n);
      radius[i] = std::clamp(radius[i] + params_.radius_beta * nd * r0,
                             0.05 * r0, rs);
      lap(&neighbours_s);

      if (n == 0) {
        // Isolated particle: stays put (paper behaviour), unless the
        // exploration extension re-seeds stuck invalid particles.
        if (!valid[i] && params_.exploration_restart_prob > 0.0 &&
            rng.Bernoulli(params_.exploration_restart_prob)) {
          space.SampleFlat(&rng, flat.data());
          set_row(&next, i, flat.data());
          proposed[i] = 1;
          movement_sum += flat_distance(pos, i, next, i);
        }
        lap(&move_s);
        continue;
      }
      const size_t pick = rng.Categorical(weights);  // n: all weights zero
      const size_t target = pick < n ? neighbors[pick] : i;
      // Move a fixed step along the flat-space direction to the target
      // (FlatDistance(self, target) is the root of its pass entry).
      const double dist = target != i ? std::sqrt(dist2[target]) : 0.0;
      if (!(dist <= 1e-12)) {
        const double scale = std::min(1.0, step / dist);
        for (size_t k = 0; k < d; ++k) {
          const double* c = pos.col(k);
          const double* l = pos.col(d + k);
          next.col(k)[i] =
              std::clamp(c[i] + scale * (c[target] - c[i]), lo[k], hi[k]);
          next.col(d + k)[i] =
              std::clamp(l[i] + scale * (l[target] - l[i]),
                         space.min_half_length, space.max_half_length);
        }
        proposed[i] = 1;
        movement_sum += flat_distance(pos, i, next, i);
      }
      lap(&move_s);
    }
    // Commit: a proposal counts as a move only if some coordinate changed
    // (a clamped step can land where it started).
    for (size_t i = 0; i < L; ++i) {
      if (!proposed[i]) continue;
      proposed[i] = 0;
      bool changed = false;
      for (size_t k = 0; k < width; ++k) {
        changed |= next.col(k)[i] != pos.col(k)[i];
      }
      if (!changed) continue;
      for (size_t k = 0; k < width; ++k) pos.col(k)[i] = next.col(k)[i];
      moved[i] = 1;
      refresh_mass(i);
    }
    lap(&move_s);

    const double mean_movement = movement_sum / static_cast<double>(L);
    result.history.mean_movement.push_back(mean_movement);
    result.iterations_run = t + 1;
    if (progress != nullptr) {
      progress->iterations.store(result.iterations_run,
                                 std::memory_order_relaxed);
      progress->valid_particles.store(valid_count, std::memory_order_relaxed);
    }

    if (params_.convergence_tol_frac > 0.0 && t > 0) {
      if (mean_movement < conv_tol) {
        if (++quiet_iters >= params_.convergence_window) {
          result.converged = true;
          break;
        }
      } else {
        quiet_iters = 0;
      }
    }
  }

  close_iters_span(result.iterations_run);

  // Final refresh so reported values match final positions: only the
  // particles the last iteration moved need it.
  score_moved();
  result.objective_evaluations += L;

  result.particles.reserve(L);
  for (size_t i = 0; i < L; ++i) {
    Region particle;
    pos.View(L).CopyRow(i, &particle);
    result.particles.push_back(std::move(particle));
  }
  result.fitness = std::move(fit);
  result.valid.assign(valid.begin(), valid.end());
  result.statistic = std::move(stat);
  result.luciferin = std::move(luciferin);
  return result;
}

}  // namespace surf
