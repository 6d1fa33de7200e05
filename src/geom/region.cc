#include "geom/region.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace surf {

Region::Region(std::vector<double> center, std::vector<double> half_lengths)
    : center_(std::move(center)), half_lengths_(std::move(half_lengths)) {
  assert(center_.size() == half_lengths_.size());
}

Region Region::FromCorners(const std::vector<double>& lo,
                           const std::vector<double>& hi) {
  assert(lo.size() == hi.size());
  std::vector<double> center(lo.size()), half(lo.size());
  for (size_t i = 0; i < lo.size(); ++i) {
    assert(lo[i] <= hi[i]);
    center[i] = 0.5 * (lo[i] + hi[i]);
    half[i] = 0.5 * (hi[i] - lo[i]);
  }
  return Region(std::move(center), std::move(half));
}

Region Region::FromFlat(const std::vector<double>& flat) {
  assert(flat.size() % 2 == 0);
  const size_t d = flat.size() / 2;
  std::vector<double> center(flat.begin(), flat.begin() + d);
  std::vector<double> half(flat.begin() + d, flat.end());
  return Region(std::move(center), std::move(half));
}

std::vector<double> Region::ToFlat() const {
  std::vector<double> flat;
  flat.reserve(2 * dims());
  flat.insert(flat.end(), center_.begin(), center_.end());
  flat.insert(flat.end(), half_lengths_.begin(), half_lengths_.end());
  return flat;
}

bool Region::Contains(const double* a) const {
  for (size_t i = 0; i < dims(); ++i) {
    if (a[i] < lo(i) || a[i] > hi(i)) return false;
  }
  return true;
}

bool Region::Contains(const std::vector<double>& a) const {
  assert(a.size() >= dims());
  return Contains(a.data());
}

double Region::Volume() const {
  double v = 1.0;
  for (size_t i = 0; i < dims(); ++i) {
    const double side = 2.0 * half_lengths_[i];
    if (side <= 0.0) return 0.0;
    v *= side;
  }
  return v;
}

bool Region::Degenerate() const {
  for (double l : half_lengths_) {
    if (l < 0.0 || !std::isfinite(l)) return true;
  }
  for (double x : center_) {
    if (!std::isfinite(x)) return true;
  }
  return false;
}

double Region::OverlapVolume(const Region& other) const {
  assert(dims() == other.dims());
  double v = 1.0;
  for (size_t i = 0; i < dims(); ++i) {
    const double olo = std::max(lo(i), other.lo(i));
    const double ohi = std::min(hi(i), other.hi(i));
    if (ohi <= olo) return 0.0;
    v *= (ohi - olo);
  }
  return v;
}

double Region::UnionVolume(const Region& other) const {
  return Volume() + other.Volume() - OverlapVolume(other);
}

double Region::IoU(const Region& other) const {
  const double inter = OverlapVolume(other);
  const double uni = UnionVolume(other);
  if (uni <= 0.0) return 0.0;
  return inter / uni;
}

bool Region::Within(const Region& other) const {
  assert(dims() == other.dims());
  for (size_t i = 0; i < dims(); ++i) {
    if (lo(i) < other.lo(i) || hi(i) > other.hi(i)) return false;
  }
  return true;
}

double Region::FlatDistance(const Region& other) const {
  assert(dims() == other.dims());
  double s = 0.0;
  for (size_t i = 0; i < dims(); ++i) {
    const double dc = center_[i] - other.center_[i];
    const double dl = half_lengths_[i] - other.half_lengths_[i];
    s += dc * dc + dl * dl;
  }
  return std::sqrt(s);
}

void Region::ClampTo(const std::vector<double>& lo,
                     const std::vector<double>& hi, double min_len,
                     double max_len) {
  assert(lo.size() == dims() && hi.size() == dims());
  for (size_t i = 0; i < dims(); ++i) {
    center_[i] = std::clamp(center_[i], lo[i], hi[i]);
    half_lengths_[i] = std::clamp(half_lengths_[i], min_len, max_len);
  }
}

std::string Region::ToString() const {
  std::vector<std::string> cs, ls;
  for (size_t i = 0; i < dims(); ++i) {
    cs.push_back(FormatDouble(center_[i]));
    ls.push_back(FormatDouble(half_lengths_[i]));
  }
  return "center=[" + JoinStrings(cs, ",") + "], len=[" +
         JoinStrings(ls, ",") + "]";
}

bool Region::operator==(const Region& other) const {
  return center_ == other.center_ && half_lengths_ == other.half_lengths_;
}

bool RegionColumns::Degenerate(size_t r) const {
  for (size_t k = 0; k < dims; ++k) {
    const double l = half_length(r, k);
    if (l < 0.0 || !std::isfinite(l)) return true;
  }
  for (size_t k = 0; k < dims; ++k) {
    if (!std::isfinite(center(r, k))) return true;
  }
  return false;
}

void RegionColumns::CopyRow(size_t r, Region* out) const {
  if (out->dims() != dims) {
    *out = Region(std::vector<double>(dims), std::vector<double>(dims));
  }
  for (size_t k = 0; k < dims; ++k) {
    out->set_center(k, center(r, k));
    out->set_half_length(k, half_length(r, k));
  }
}

RegionColumnStore::RegionColumnStore(size_t dims, size_t capacity)
    : dims_(dims),
      capacity_(capacity),
      data_(2 * dims * capacity),
      ptrs_(2 * dims) {
  for (size_t k = 0; k < ptrs_.size(); ++k) ptrs_[k] = col(k);
}

RegionColumnStore RegionColumnStore::Pack(const std::vector<Region>& regions) {
  RegionColumnStore store(regions.empty() ? 0 : regions[0].dims(),
                          regions.size());
  for (size_t r = 0; r < regions.size(); ++r) {
    assert(regions[r].dims() == store.dims_);
    for (size_t k = 0; k < store.dims_; ++k) {
      store.col(k)[r] = regions[r].center(k);
      store.col(store.dims_ + k)[r] = regions[r].half_length(k);
    }
  }
  return store;
}

}  // namespace surf
