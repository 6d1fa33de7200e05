#include "opt/solution_space.h"

#include <cassert>
#include <cmath>

namespace surf {

RegionSolutionSpace RegionSolutionSpace::ForBounds(const Bounds& bounds,
                                                   double min_frac,
                                                   double max_frac) {
  assert(min_frac > 0.0 && min_frac < max_frac);
  RegionSolutionSpace space;
  space.bounds = bounds;
  const double extent = bounds.MaxExtent();
  space.min_half_length = min_frac * extent;
  space.max_half_length = max_frac * extent;
  return space;
}

Region RegionSolutionSpace::Sample(Rng* rng) const {
  std::vector<double> flat(flat_dims());
  SampleFlat(rng, flat.data());
  return Region::FromFlat(flat);
}

void RegionSolutionSpace::SampleFlat(Rng* rng, double* flat) const {
  const size_t d = dims();
  for (size_t i = 0; i < d; ++i) {
    flat[i] = rng->Uniform(bounds.lo(i), bounds.hi(i));
    flat[d + i] = rng->Uniform(min_half_length, max_half_length);
  }
}

void RegionSolutionSpace::Clamp(Region* region) const {
  assert(region->dims() == dims());
  region->ClampTo(bounds.lo(), bounds.hi(), min_half_length,
                  max_half_length);
}

double RegionSolutionSpace::FlatDiagonal() const {
  double s = 0.0;
  for (size_t i = 0; i < dims(); ++i) {
    s += bounds.Extent(i) * bounds.Extent(i);
  }
  const double len_extent = max_half_length - min_half_length;
  s += static_cast<double>(dims()) * len_extent * len_extent;
  return std::sqrt(s);
}

}  // namespace surf
