#ifndef SURF_OPT_SOLUTION_SPACE_H_
#define SURF_OPT_SOLUTION_SPACE_H_

#include "geom/bounds.h"
#include "geom/region.h"
#include "util/rng.h"

namespace surf {

/// \brief The R^{2d} region solution space optimizers roam (paper §III-A:
/// "a candidate solution particle p = [x, l] ∈ R^2d").
///
/// Centers live inside the data domain's bounding box; half side-lengths
/// are clamped to [min_half_length, max_half_length]. The defaults derive
/// the length range from the domain extent the way the paper's workload
/// generator does (regions covering roughly 1–15 % of the domain, §V-A,
/// with head-room up to half the domain for exploration).
struct RegionSolutionSpace {
  Bounds bounds;
  double min_half_length = 0.005;
  double max_half_length = 0.5;

  /// Builds a space over a data bounding box, scaling the length limits by
  /// the largest domain extent.
  static RegionSolutionSpace ForBounds(const Bounds& bounds,
                                       double min_frac = 0.005,
                                       double max_frac = 0.5);

  size_t dims() const { return bounds.dims(); }

  /// Flat dimensionality 2d of the particle space.
  size_t flat_dims() const { return 2 * bounds.dims(); }

  /// Uniform random region (centers uniform in the domain, half-lengths
  /// uniform in the admissible range).
  Region Sample(Rng* rng) const;

  /// Sample's draws, in the same order, written into `flat[0, 2d)` in
  /// the [x, l] encoding (no allocation).
  void SampleFlat(Rng* rng, double* flat) const;

  /// Clamps a particle into the space.
  void Clamp(Region* region) const;

  /// Diagonal length of the flat particle space (normalizing constant for
  /// GSO radii and step sizes).
  double FlatDiagonal() const;
};

}  // namespace surf

#endif  // SURF_OPT_SOLUTION_SPACE_H_
