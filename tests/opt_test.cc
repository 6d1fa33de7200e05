// Tests for the optimization module: the Eq. 2/4 objectives, the region
// solution space, GSO (multimodal capture, invalid-particle isolation,
// KDE guidance), PSO, the Naive baseline, and distinct-region extraction.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>

#include "ml/kde.h"
#include "opt/gso.h"
#include "opt/naive_search.h"
#include "opt/objective.h"
#include "opt/pso.h"
#include "opt/solution_space.h"
#include "opt/test_functions.h"

// Global allocation counter backing the GSO allocation test. Counting
// relaxed-atomically keeps the override harmless for the rest of the
// binary.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The replacement pair allocates with malloc and releases with free; GCC
// cannot see that the two replacements match and warns at inlined call
// sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace surf {
namespace {

RegionSolutionSpace UnitSpace(size_t d) {
  RegionSolutionSpace space;
  space.bounds = Bounds::Unit(d);
  space.min_half_length = 0.01;
  space.max_half_length = 0.5;
  return space;
}

// -------------------------------------------------------------- Objective

TEST(ObjectiveTest, SatisfiesThresholdDirections) {
  EXPECT_TRUE(SatisfiesThreshold(5.0, 3.0, ThresholdDirection::kAbove));
  EXPECT_FALSE(SatisfiesThreshold(2.0, 3.0, ThresholdDirection::kAbove));
  EXPECT_TRUE(SatisfiesThreshold(2.0, 3.0, ThresholdDirection::kBelow));
  EXPECT_FALSE(SatisfiesThreshold(5.0, 3.0, ThresholdDirection::kBelow));
  EXPECT_FALSE(
      SatisfiesThreshold(std::nan(""), 3.0, ThresholdDirection::kAbove));
}

TEST(ObjectiveTest, LogObjectiveInvalidOutsideConstraint) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj([](const Region&) { return 5.0; }, config);
  // f = 5 < 10: log(5-10) undefined -> invalid (the Fig. 7 white area).
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {0.1})).valid);
}

TEST(ObjectiveTest, LogObjectiveValueMatchesFormula) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  config.c = 4.0;
  const RegionObjective obj([](const Region&) { return 110.0; }, config);
  const Region region({0.5, 0.5}, {0.2, 0.1});
  const FitnessValue fv = obj.Evaluate(region);
  ASSERT_TRUE(fv.valid);
  // J = log(100) - 4*(log(0.2)+log(0.1)).
  EXPECT_NEAR(fv.value,
              std::log(100.0) - 4.0 * (std::log(0.2) + std::log(0.1)),
              1e-12);
}

TEST(ObjectiveTest, BelowDirectionFlipsDifference) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kBelow;
  const RegionObjective obj([](const Region&) { return 4.0; }, config);
  const FitnessValue fv = obj.Evaluate(Region({0.5}, {0.25}));
  ASSERT_TRUE(fv.valid);
  EXPECT_NEAR(fv.value, std::log(6.0) - config.c * std::log(0.25), 1e-12);
  // Above the threshold it is invalid.
  const RegionObjective obj2([](const Region&) { return 14.0; }, config);
  EXPECT_FALSE(obj2.Evaluate(Region({0.5}, {0.25})).valid);
}

TEST(ObjectiveTest, SmallerRegionsScoreHigherUnderLog) {
  ObjectiveConfig config;
  config.threshold = 0.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj([](const Region&) { return 10.0; }, config);
  const double small = obj.Evaluate(Region({0.5}, {0.05})).value;
  const double large = obj.Evaluate(Region({0.5}, {0.4})).value;
  EXPECT_GT(small, large);
}

TEST(ObjectiveTest, CRegularizerStrengthensSizePenalty) {
  ObjectiveConfig weak;
  weak.threshold = 0.0;
  weak.c = 1.0;
  ObjectiveConfig strong = weak;
  strong.c = 4.0;
  const StatisticFn f = [](const Region&) { return 10.0; };
  const Region big({0.5}, {0.4});
  // log(0.4) < 0, so larger c *rewards* small boxes more relative to big
  // ones: compare the gap between small and big boxes under both c.
  const Region small({0.5}, {0.05});
  const double gap_weak = RegionObjective(f, weak).Evaluate(small).value -
                          RegionObjective(f, weak).Evaluate(big).value;
  const double gap_strong =
      RegionObjective(f, strong).Evaluate(small).value -
      RegionObjective(f, strong).Evaluate(big).value;
  EXPECT_GT(gap_strong, gap_weak);
}

TEST(ObjectiveTest, RatioObjectiveDefinedOutsideConstraint) {
  ObjectiveConfig config;
  config.threshold = 10.0;
  config.direction = ThresholdDirection::kAbove;
  config.use_log = false;
  const RegionObjective obj([](const Region&) { return 5.0; }, config);
  const FitnessValue fv = obj.Evaluate(Region({0.5}, {0.1}));
  // Eq. 2 stays defined (negative value) where Eq. 4 would be undefined.
  ASSERT_TRUE(fv.valid);
  EXPECT_LT(fv.value, 0.0);
}

TEST(ObjectiveTest, RatioObjectiveValueMatchesFormula) {
  ObjectiveConfig config;
  config.threshold = 2.0;
  config.direction = ThresholdDirection::kAbove;
  config.c = 2.0;
  config.use_log = false;
  const RegionObjective obj([](const Region&) { return 6.0; }, config);
  const FitnessValue fv = obj.Evaluate(Region({0.5}, {0.5}));
  ASSERT_TRUE(fv.valid);
  EXPECT_NEAR(fv.value, 4.0 / std::pow(0.5, 2.0), 1e-12);
}

TEST(ObjectiveTest, NanStatisticIsInvalid) {
  ObjectiveConfig config;
  const RegionObjective obj(
      [](const Region&) { return std::nan(""); }, config);
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {0.1})).valid);
}

TEST(ObjectiveTest, DegenerateRegionIsInvalid) {
  ObjectiveConfig config;
  config.threshold = 0.0;
  const RegionObjective obj([](const Region&) { return 10.0; }, config);
  EXPECT_FALSE(obj.Evaluate(Region({0.5}, {-0.1})).valid);
}

// --------------------------------------------------------- SolutionSpace

TEST(SolutionSpaceTest, SampleStaysInside) {
  const RegionSolutionSpace space = UnitSpace(3);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Region r = space.Sample(&rng);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GE(r.center(j), 0.0);
      EXPECT_LE(r.center(j), 1.0);
      EXPECT_GE(r.half_length(j), space.min_half_length);
      EXPECT_LE(r.half_length(j), space.max_half_length);
    }
  }
}

TEST(SolutionSpaceTest, ForBoundsScalesByExtent) {
  const Bounds bounds({0.0, 0.0}, {10.0, 2.0});
  const RegionSolutionSpace space =
      RegionSolutionSpace::ForBounds(bounds, 0.01, 0.15);
  EXPECT_DOUBLE_EQ(space.min_half_length, 0.1);   // 1% of max extent 10
  EXPECT_DOUBLE_EQ(space.max_half_length, 1.5);
  EXPECT_EQ(space.flat_dims(), 4u);
}

TEST(SolutionSpaceTest, ClampPullsIntoSpace) {
  const RegionSolutionSpace space = UnitSpace(1);
  Region r({2.0}, {0.9});
  space.Clamp(&r);
  EXPECT_DOUBLE_EQ(r.center(0), 1.0);
  EXPECT_DOUBLE_EQ(r.half_length(0), 0.5);
}

TEST(SolutionSpaceTest, FlatDiagonalPositive) {
  EXPECT_GT(UnitSpace(2).FlatDiagonal(), 1.0);
}

// --------------------------------------------------------------- GSO

GaussianBumps ThreeBumps1d() {
  // Peaks in the (center, length) plane of a 1-d region space.
  GaussianBumps bumps;
  bumps.peaks = {{0.2, 0.1}, {0.5, 0.3}, {0.8, 0.15}};
  bumps.sigma = 0.08;
  bumps.validity_floor = 0.01;
  return bumps;
}

TEST(GsoTest, CapturesMultipleOptima) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 150;
  params.max_iterations = 150;
  params.seed = 3;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result =
      gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));

  // Count how many distinct peaks hold at least one near-converged
  // particle — the multimodal capture property GSO exists for.
  std::set<int> captured;
  for (size_t i = 0; i < result.particles.size(); ++i) {
    if (!result.valid[i]) continue;
    if (bumps.DistanceToNearestPeak(result.particles[i]) < 0.1) {
      captured.insert(bumps.NearestPeak(result.particles[i]));
    }
  }
  EXPECT_EQ(captured.size(), 3u);
}

TEST(GsoTest, ValidFractionGrowsFromRandomStart) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 120;
  params.max_iterations = 100;
  params.seed = 4;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_GE(result.history.valid_fraction.size(), 2u);
  EXPECT_GE(result.history.valid_fraction.back(),
            result.history.valid_fraction.front());
  EXPECT_GT(result.ValidFraction(), 0.3);
}

TEST(GsoTest, MeanFitnessImproves) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 100;
  params.max_iterations = 120;
  params.seed = 5;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  const auto& curve = result.history.mean_fitness;
  ASSERT_GT(curve.size(), 10u);
  EXPECT_GT(curve.back(), curve.front());
}

TEST(GsoTest, DeterministicForSeed) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 50;
  params.max_iterations = 40;
  params.seed = 6;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult a = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  const GsoResult b = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_EQ(a.particles.size(), b.particles.size());
  for (size_t i = 0; i < a.particles.size(); ++i) {
    EXPECT_EQ(a.particles[i], b.particles[i]);
  }
}

TEST(GsoTest, EvaluationCountMatchesCostModel) {
  const GaussianBumps bumps = ThreeBumps1d();
  GsoParams params;
  params.num_glowworms = 40;
  params.max_iterations = 30;
  params.convergence_tol_frac = 0.0;  // disable early stop
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  // T·L during iterations + one final refresh pass.
  EXPECT_EQ(result.objective_evaluations, 40u * 30u + 40u);
}

TEST(GsoTest, InvalidParticlesStayIsolatedWithoutExploration) {
  // A landscape with a single tiny valid pocket most particles miss:
  // invalid particles must not move (paper semantics).
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.02;
  bumps.validity_floor = 0.5;
  GsoParams params;
  params.num_glowworms = 60;
  params.max_iterations = 50;
  params.seed = 8;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  // Some particles end up invalid (stationary, dim) — that's expected.
  EXPECT_LT(result.ValidFraction(), 1.0);
}

TEST(GsoTest, ExplorationRestartRecoversRareEvents) {
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.03;
  bumps.validity_floor = 0.4;
  GsoParams params;
  params.num_glowworms = 80;
  params.max_iterations = 200;
  params.seed = 9;
  params.exploration_restart_prob = 0.2;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  size_t valid = 0;
  for (bool v : result.valid) valid += v ? 1 : 0;
  EXPECT_GT(valid, 0u);
}

TEST(GsoTest, PaperScaledParamsFollowFormulas) {
  const GsoParams params = GsoParams::PaperScaled(4);
  EXPECT_EQ(params.num_glowworms, 200u);  // 50·d
  const double L = 200.0;
  EXPECT_NEAR(params.initial_radius_frac,
              std::pow(1.0 - std::pow(0.5, 1.0 / L), 1.0 / 4.0), 1e-12);
}

TEST(GsoTest, ConvergenceFlagFires) {
  // Single bump with a huge sigma: the swarm collapses quickly.
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.5;
  bumps.validity_floor = -1.0;
  GsoParams params;
  params.num_glowworms = 40;
  params.max_iterations = 400;
  params.convergence_tol_frac = 1e-3;
  params.convergence_window = 5;
  params.seed = 10;
  const GlowwormSwarmOptimizer gso(params);
  const GsoResult result = gso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations_run, 400u);
}

// ------------------------------------------------ pinned GSO trajectories

// FNV-1a over the bit patterns of everything a final swarm reports.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Add(double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    Add(u);
  }
};

uint64_t SwarmDigest(const GsoResult& r) {
  Fnv f;
  f.Add(static_cast<uint64_t>(r.iterations_run));
  f.Add(static_cast<uint64_t>(r.converged));
  f.Add(static_cast<uint64_t>(r.cancelled));
  f.Add(r.objective_evaluations);
  for (size_t i = 0; i < r.particles.size(); ++i) {
    for (double v : r.particles[i].center()) f.Add(v);
    for (double v : r.particles[i].half_lengths()) f.Add(v);
    f.Add(r.fitness[i]);
    f.Add(static_cast<uint64_t>(r.valid[i]));
    f.Add(r.luciferin[i]);
  }
  for (double v : r.history.mean_fitness) f.Add(v);
  for (double v : r.history.mean_movement) f.Add(v);
  for (double v : r.history.valid_fraction) f.Add(v);
  return f.h;
}

// Exact "count" of two Gaussian blobs inside a 2-d box (erf products).
double BlobMass(const Region& region) {
  const double mu[2][2] = {{0.3, 0.6}, {0.75, 0.25}};
  const double w[2] = {600.0, 400.0};
  const double s = 0.08 * std::sqrt(2.0);
  double y = 0.0;
  for (int b = 0; b < 2; ++b) {
    double m = w[b];
    for (size_t k = 0; k < 2; ++k) {
      const double lo = region.center(k) - region.half_length(k);
      const double hi = region.center(k) + region.half_length(k);
      m *= 0.5 *
           (std::erf((hi - mu[b][k]) / s) - std::erf((lo - mu[b][k]) / s));
    }
    y += m;
  }
  return y;
}

Kde BlobKde() {
  Rng rng(77);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 400; ++i) {
    const bool first = i % 5 < 3;
    pts.push_back({rng.Gaussian(first ? 0.3 : 0.75, 0.08),
                   rng.Gaussian(first ? 0.6 : 0.25, 0.08)});
  }
  return Kde::Fit(pts);
}

RegionSolutionSpace BlobSpace() {
  return RegionSolutionSpace::ForBounds(Bounds::Unit(2), 0.01, 0.4);
}

RegionObjective BlobObjective(double threshold, bool use_log) {
  ObjectiveConfig config;
  config.threshold = threshold;
  config.use_log = use_log;
  return RegionObjective(BlobMass, config);
}

// The digests below were recorded from the per-iteration re-scoring
// swarm (every particle scored every iteration, one Region per
// particle). The flat moved-only swarm must reproduce them bit for bit.

TEST(GsoPinnedTest, KdeSeededWithEq8Guidance) {
  const Kde kde = BlobKde();
  const RegionObjective objective = BlobObjective(150.0, true);
  GsoParams params;
  params.num_glowworms = 60;
  params.max_iterations = 40;
  params.seed = 11;
  const GsoResult r = GlowwormSwarmOptimizer(params).Optimize(
      objective.AsBatchFitnessFn(), BlobSpace(), &kde);
  EXPECT_EQ(r.iterations_run, 40u);
  EXPECT_EQ(r.objective_evaluations, 2460u);
  EXPECT_EQ(SwarmDigest(r), 0x20d8bb2c0e39f063ull);
}

TEST(GsoPinnedTest, ExplorationRestart) {
  const RegionObjective objective = BlobObjective(400.0, true);
  GsoParams params;
  params.num_glowworms = 50;
  params.max_iterations = 40;
  params.seed = 12;
  params.exploration_restart_prob = 0.3;
  const GsoResult r = GlowwormSwarmOptimizer(params).Optimize(
      objective.AsBatchFitnessFn(), BlobSpace());
  EXPECT_EQ(r.objective_evaluations, 2050u);
  EXPECT_EQ(SwarmDigest(r), 0x149592135d715cf4ull);
}

TEST(GsoPinnedTest, RatioObjective) {
  const RegionObjective objective = BlobObjective(100.0, false);
  GsoParams params;
  params.num_glowworms = 50;
  params.max_iterations = 30;
  params.seed = 13;
  const GsoResult r = GlowwormSwarmOptimizer(params).Optimize(
      objective.AsBatchFitnessFn(), BlobSpace());
  EXPECT_EQ(r.objective_evaluations, 1550u);
  EXPECT_EQ(SwarmDigest(r), 0x9665f80f925bdc94ull);
}

TEST(GsoPinnedTest, ConvergenceStop) {
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.25}};
  bumps.sigma = 0.5;
  bumps.validity_floor = -1.0;
  GsoParams params;
  params.num_glowworms = 40;
  params.max_iterations = 400;
  params.convergence_tol_frac = 1e-3;
  params.convergence_window = 5;
  params.seed = 10;
  const GsoResult r = GlowwormSwarmOptimizer(params).Optimize(
      bumps.AsFitnessFn(), UnitSpace(1));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations_run, 64u);
  EXPECT_EQ(SwarmDigest(r), 0xf9837aaa5fc1f4d4ull);
}

TEST(GsoPinnedTest, CancelledMidRun) {
  const Kde kde = BlobKde();
  const RegionObjective objective = BlobObjective(150.0, true);
  const BatchFitnessFn inner = objective.AsBatchFitnessFn();
  CancelSource source;
  int calls = 0;
  // Fires during the 8th iteration's scoring: that iteration completes,
  // the next poll stops the swarm.
  const BatchFitnessFn fitness = [&](const RegionColumns& regions,
                                     FitnessValue* out) {
    if (++calls == 8) source.Cancel();
    inner(regions, out);
  };
  GsoParams params;
  params.num_glowworms = 50;
  params.max_iterations = 40;
  params.seed = 14;
  const GsoResult r = GlowwormSwarmOptimizer(params).Optimize(
      fitness, BlobSpace(), &kde, source.token());
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.iterations_run, 8u);
  EXPECT_EQ(r.objective_evaluations, 450u);
  EXPECT_EQ(SwarmDigest(r), 0x73420e615714bc5aull);
}

// ------------------------------------------------ moved-only scoring

// A batched BlobMass that counts the rows it is handed.
struct CountingBlobStatistic {
  size_t* rows;
  void operator()(const RegionColumns& regions, double* out) const {
    Region region;
    for (size_t r = 0; r < regions.rows; ++r) {
      regions.CopyRow(r, &region);
      out[r] = BlobMass(region);
    }
    *rows += regions.rows;
  }
};

TEST(GsoMovedOnlyTest, ScoresFewerRowsThanTheCostModelCounts) {
  size_t rows = 0;
  ObjectiveConfig config;
  config.threshold = 150.0;
  const RegionObjective objective(BlobMass, CountingBlobStatistic{&rows},
                                  config);
  GsoParams params;
  params.num_glowworms = 60;
  params.max_iterations = 40;
  params.convergence_tol_frac = 0.0;
  params.seed = 21;
  const GsoResult r = GlowwormSwarmOptimizer(params).Optimize(
      objective.AsBatchFitnessFn(), BlobSpace());
  EXPECT_EQ(r.objective_evaluations, 60u * 40u + 60u);
  EXPECT_LT(rows, 60u * 40u);
  EXPECT_GE(rows, 60u);  // the first iteration scores everyone
  // Every reported fitness and statistic is the one of the final
  // position, even for particles that were last scored long ago.
  for (size_t i = 0; i < r.particles.size(); ++i) {
    const FitnessValue direct = objective.Evaluate(r.particles[i]);
    EXPECT_EQ(r.valid[i], direct.valid);
    EXPECT_EQ(r.fitness[i], direct.value);
    EXPECT_EQ(r.statistic[i], BlobMass(r.particles[i]));
  }
}

// Heap allocations of one Optimize call with an allocation-free fitness.
uint64_t OptimizeAllocations(size_t iterations, const Kde* kde) {
  // Scores straight off the columns (no Region per row).
  const BatchFitnessFn fitness = [](const RegionColumns& regions,
                                    FitnessValue* out) {
    for (size_t r = 0; r < regions.rows; ++r) {
      const double dx = regions.center(r, 0) - 0.4;
      const double dy = regions.center(r, 1) - 0.6;
      out[r].value = -(dx * dx + dy * dy) - regions.half_length(r, 0);
      out[r].valid = dx < 0.3;
    }
  };
  GsoParams params;
  params.num_glowworms = 50;
  params.max_iterations = iterations;
  params.convergence_tol_frac = 0.0;
  params.exploration_restart_prob = 0.2;
  params.seed = 31;
  const GlowwormSwarmOptimizer gso(params);
  const RegionSolutionSpace space = BlobSpace();
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const GsoResult r = gso.Optimize(fitness, space, kde);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(r.iterations_run, iterations);
  return after - before;
}

TEST(GsoAllocationTest, IterationsAllocateNothing) {
  EXPECT_EQ(OptimizeAllocations(5, nullptr), OptimizeAllocations(50, nullptr));
  const Kde kde = BlobKde();
  EXPECT_EQ(OptimizeAllocations(5, &kde), OptimizeAllocations(50, &kde));
}

TEST(GsoNeighbourTest, RadiusBoundaryIsInclusiveAndExact) {
  // Two particles; the dimmer one moves in iteration 0 exactly when the
  // brighter one lies within r0 = initial_radius_frac · diagonal, i.e.
  // when FlatDistance(...) <= r0 — also at the last representable r0,
  // and also where r0·r0 rounds below the squared distance (a naive
  // squared compare would drop that neighbour).
  const BatchFitnessFn fitness = [](const RegionColumns& regions,
                                    FitnessValue* out) {
    for (size_t r = 0; r < regions.rows; ++r) {
      out[r].value = regions.center(r, 0);
      out[r].valid = true;
    }
  };
  const RegionSolutionSpace space = UnitSpace(1);
  const double diagonal = space.FlatDiagonal();
  GsoParams params;
  params.num_glowworms = 2;
  params.convergence_tol_frac = 0.0;
  auto moves = [&](double frac) {
    params.max_iterations = 1;
    params.initial_radius_frac = frac;
    const GsoResult r =
        GlowwormSwarmOptimizer(params).Optimize(fitness, space);
    return r.history.mean_movement.at(0) > 0.0;
  };
  bool probed = false;
  for (uint64_t seed = 1; seed < 200 && !probed; ++seed) {
    params.seed = seed;
    params.max_iterations = 0;
    const GsoResult start =
        GlowwormSwarmOptimizer(params).Optimize(fitness, space);
    const Region& a = start.particles[0];
    const Region& b = start.particles[1];
    const double dc = a.center(0) - b.center(0);
    const double dl = a.half_length(0) - b.half_length(0);
    const double squared = dc * dc + dl * dl;
    const double dist = a.FlatDistance(b);
    if (!(dist * dist < squared)) continue;
    double frac = dist / diagonal;
    for (int k = 0; k < 16 && frac * diagonal != dist; ++k) {
      frac = std::nextafter(frac, frac * diagonal < dist ? 1.0 : 0.0);
    }
    if (frac * diagonal != dist) continue;
    probed = true;
    EXPECT_TRUE(moves(frac)) << "seed " << seed;
    double below = frac;
    while (below * diagonal >= dist) below = std::nextafter(below, 0.0);
    EXPECT_FALSE(moves(below)) << "seed " << seed;
  }
  EXPECT_TRUE(probed);
}

// ---------------------------------------------------------------- PSO

TEST(PsoTest, FindsSingleOptimum) {
  GaussianBumps bumps;
  bumps.peaks = {{0.3, 0.2}};
  bumps.sigma = 0.15;
  bumps.validity_floor = -1.0;
  PsoParams params;
  params.num_particles = 40;
  params.max_iterations = 80;
  const ParticleSwarmOptimizer pso(params);
  const PsoResult result = pso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_TRUE(result.found_valid);
  EXPECT_LT(bumps.DistanceToNearestPeak(result.best), 0.05);
}

TEST(PsoTest, CollapsesToOneModeOnMultimodal) {
  // The motivating contrast with GSO: PSO returns exactly one region.
  const GaussianBumps bumps = ThreeBumps1d();
  PsoParams params;
  params.num_particles = 60;
  params.max_iterations = 100;
  const ParticleSwarmOptimizer pso(params);
  const PsoResult result = pso.Optimize(bumps.AsFitnessFn(), UnitSpace(1));
  ASSERT_TRUE(result.found_valid);
  EXPECT_LT(bumps.DistanceToNearestPeak(result.best), 0.1);
}

TEST(PsoTest, RastriginNearGlobal) {
  PsoParams params;
  params.num_particles = 80;
  params.max_iterations = 200;
  params.seed = 12;
  const ParticleSwarmOptimizer pso(params);
  const FitnessFn fn = InvertedRastrigin({0.5, 0.2}, 0.3);
  const PsoResult result = pso.Optimize(fn, UnitSpace(1));
  ASSERT_TRUE(result.found_valid);
  EXPECT_GT(result.best_fitness, -5.0);  // global max is 0
}

// ---------------------------------------------------------- Naive search

TEST(NaiveSearchTest, EnumeratesFullGrid) {
  ObjectiveConfig config;
  config.threshold = -1.0;  // everything valid
  const RegionObjective obj([](const Region&) { return 0.0; }, config);
  NaiveSearchParams params;
  params.centers_per_dim = 4;
  params.sizes_per_dim = 3;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(obj, UnitSpace(2));
  EXPECT_EQ(result.total_candidates, 144u);  // (4·3)^2
  EXPECT_EQ(result.examined, 144u);
  EXPECT_FALSE(result.timed_out);
  EXPECT_DOUBLE_EQ(result.FractionExamined(), 1.0);
  EXPECT_EQ(result.viable.size(), 144u);
}

TEST(NaiveSearchTest, FindsPlantedHotRegion) {
  // Statistic: high only near x = 0.5.
  const StatisticFn f = [](const Region& r) {
    return std::exp(-50.0 * (r.center(0) - 0.5) * (r.center(0) - 0.5)) *
           100.0;
  };
  ObjectiveConfig config;
  config.threshold = 50.0;
  config.direction = ThresholdDirection::kAbove;
  const RegionObjective obj(f, config);
  NaiveSearchParams params;
  params.centers_per_dim = 11;
  params.sizes_per_dim = 3;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(obj, UnitSpace(1));
  ASSERT_FALSE(result.viable.empty());
  for (const auto& v : result.viable) {
    EXPECT_NEAR(v.region.center(0), 0.5, 0.15);
    EXPECT_GT(v.statistic, 50.0);
  }
}

TEST(NaiveSearchTest, EvaluationCapTruncates) {
  ObjectiveConfig config;
  config.threshold = -1.0;
  const RegionObjective obj([](const Region&) { return 0.0; }, config);
  NaiveSearchParams params;
  params.centers_per_dim = 6;
  params.sizes_per_dim = 6;
  params.max_evaluations = 100;
  const NaiveSearch naive(params);
  const NaiveSearchResult result = naive.Run(obj, UnitSpace(2));
  EXPECT_EQ(result.examined, 100u);
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(result.FractionExamined(), 1.0);
}

// --------------------------------------------------- Distinct extraction

TEST(SelectDistinctRegionsTest, KeepsBestAndDropsOverlaps) {
  std::vector<ScoredRegion> candidates;
  auto add = [&](double cx, double half, double score) {
    ScoredRegion s;
    s.region = Region({cx}, {half});
    s.fitness = score;
    candidates.push_back(s);
  };
  add(0.30, 0.1, 5.0);
  add(0.31, 0.1, 4.0);  // overlaps the first
  add(0.80, 0.1, 3.0);  // distinct
  const auto kept = SelectDistinctRegions(candidates, 0.3, 10);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].fitness, 5.0);
  EXPECT_DOUBLE_EQ(kept[1].fitness, 3.0);
}

TEST(SelectDistinctRegionsTest, RespectsMaxRegions) {
  std::vector<ScoredRegion> candidates;
  for (int i = 0; i < 10; ++i) {
    ScoredRegion s;
    s.region = Region({0.1 * i}, {0.01});
    s.fitness = static_cast<double>(i);
    candidates.push_back(s);
  }
  const auto kept = SelectDistinctRegions(candidates, 0.3, 3);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_DOUBLE_EQ(kept[0].fitness, 9.0);  // sorted by score
}

TEST(SelectDistinctRegionsTest, EmptyInputIsFine) {
  EXPECT_TRUE(SelectDistinctRegions({}, 0.3, 5).empty());
}

// --------------------------------------------------------- TestFunctions

TEST(TestFunctionsTest, BumpValueAtPeak) {
  GaussianBumps bumps;
  bumps.peaks = {{0.5, 0.2}};
  bumps.sigma = 0.1;
  bumps.validity_floor = -1.0;
  const FitnessValue at_peak = bumps.Evaluate(Region({0.5}, {0.2}));
  EXPECT_NEAR(at_peak.value, 1.0, 1e-12);
  const FitnessValue far = bumps.Evaluate(Region({0.0}, {0.5}));
  EXPECT_LT(far.value, 0.01);
}

TEST(TestFunctionsTest, NearestPeakIndex) {
  GaussianBumps bumps = ThreeBumps1d();
  EXPECT_EQ(bumps.NearestPeak(Region({0.21}, {0.1})), 0);
  EXPECT_EQ(bumps.NearestPeak(Region({0.78}, {0.16})), 2);
}

TEST(TestFunctionsTest, RastriginMaxAtCenter) {
  const FitnessFn fn = InvertedRastrigin({0.5, 0.2}, 0.3);
  EXPECT_NEAR(fn(Region({0.5}, {0.2})).value, 0.0, 1e-9);
  EXPECT_LT(fn(Region({0.7}, {0.3})).value, 0.0);
}

}  // namespace
}  // namespace surf
