#ifndef SURF_GEOM_REGION_H_
#define SURF_GEOM_REGION_H_

#include <string>
#include <vector>

namespace surf {

/// \brief A statistic region (paper Def. 2): an axis-aligned hyper-rectangle
/// in R^d encoded by its center `x` and per-dimension half side-lengths `l`.
///
/// The hyper-rectangle covers [x_i - l_i, x_i + l_i] on each dimension i.
/// Optimizers treat a region as a flat vector in R^{2d} (the paper's
/// particle/solution space): the first d entries are the center, the last d
/// the half-lengths. `FromFlat`/`ToFlat` convert between the encodings.
class Region {
 public:
  Region() = default;

  /// Constructs from explicit center and half-lengths (equal sizes).
  Region(std::vector<double> center, std::vector<double> half_lengths);

  /// Builds the region from lo/hi corner vectors; requires lo <= hi.
  static Region FromCorners(const std::vector<double>& lo,
                            const std::vector<double>& hi);

  /// Decodes a flat R^{2d} particle vector [x_1..x_d, l_1..l_d].
  static Region FromFlat(const std::vector<double>& flat);

  /// Encodes as a flat R^{2d} vector.
  std::vector<double> ToFlat() const;

  size_t dims() const { return center_.size(); }
  const std::vector<double>& center() const { return center_; }
  const std::vector<double>& half_lengths() const { return half_lengths_; }

  double center(size_t i) const { return center_[i]; }
  double half_length(size_t i) const { return half_lengths_[i]; }

  /// Lower/upper edge of the box on dimension i.
  double lo(size_t i) const { return center_[i] - half_lengths_[i]; }
  double hi(size_t i) const { return center_[i] + half_lengths_[i]; }

  /// Mutable access used by optimizers while moving particles.
  void set_center(size_t i, double v) { center_[i] = v; }
  void set_half_length(size_t i, double v) { half_lengths_[i] = v; }

  /// True if point `a` (length >= dims()) falls inside the box on all of
  /// the region's dimensions (paper Def. 2 membership test).
  bool Contains(const double* a) const;
  bool Contains(const std::vector<double>& a) const;

  /// Volume prod_i (2 l_i). Zero-dimensional regions have volume 1.
  double Volume() const;

  /// True if any half-length is negative (degenerate particle state).
  bool Degenerate() const;

  /// Intersection volume with another region of the same dimensionality.
  double OverlapVolume(const Region& other) const;

  /// Union volume via inclusion–exclusion on two boxes.
  double UnionVolume(const Region& other) const;

  /// Intersection-over-Union (paper Eq. 10, the Jaccard index on boxes).
  /// Returns 0 when the union has zero volume.
  double IoU(const Region& other) const;

  /// True if this box lies fully inside `other`.
  bool Within(const Region& other) const;

  /// Euclidean distance between the flat R^{2d} encodings (used by GSO
  /// neighborhoods and by result clustering).
  double FlatDistance(const Region& other) const;

  /// Clamps the center into [lo, hi] per dimension and half-lengths into
  /// [min_len, max_len]; keeps optimizer particles in the valid domain.
  void ClampTo(const std::vector<double>& lo, const std::vector<double>& hi,
               double min_len, double max_len);

  /// "center=[..], len=[..]" debug form.
  std::string ToString() const;

  bool operator==(const Region& other) const;

 private:
  std::vector<double> center_;
  std::vector<double> half_lengths_;
};

/// \brief Non-owning column-major view of a batch of regions in the flat
/// [x, l] encoding: `cols[k][r]` is coordinate k of row r — centres for
/// k < dims, half-lengths for dims <= k < 2·dims. This is the
/// RegionFeatures order, so the view doubles as the feature columns a
/// tree walk reads without gathering rows.
struct RegionColumns {
  const double* const* cols = nullptr;
  size_t dims = 0;
  size_t rows = 0;

  double center(size_t r, size_t k) const { return cols[k][r]; }
  double half_length(size_t r, size_t k) const { return cols[dims + k][r]; }

  /// Region::Degenerate on row r.
  bool Degenerate(size_t r) const;

  /// Copies row r into `out`, reusing its storage once it has `dims`.
  void CopyRow(size_t r, Region* out) const;
};

/// \brief Owning column store behind a RegionColumns view: 2·dims columns
/// of `capacity` doubles in one allocation, plus the column pointers.
/// Move-only (the pointers address the store's own buffer).
class RegionColumnStore {
 public:
  RegionColumnStore() = default;
  RegionColumnStore(size_t dims, size_t capacity);
  RegionColumnStore(RegionColumnStore&&) = default;
  RegionColumnStore& operator=(RegionColumnStore&&) = default;
  RegionColumnStore(const RegionColumnStore&) = delete;
  RegionColumnStore& operator=(const RegionColumnStore&) = delete;

  /// Packs `regions` (all of one dimensionality) into a new store.
  static RegionColumnStore Pack(const std::vector<Region>& regions);

  size_t dims() const { return dims_; }
  double* col(size_t k) { return data_.data() + k * capacity_; }
  const double* col(size_t k) const { return data_.data() + k * capacity_; }

  /// The first `rows` rows as a view (rows <= the store's capacity).
  RegionColumns View(size_t rows) const { return {ptrs_.data(), dims_, rows}; }

 private:
  size_t dims_ = 0;
  size_t capacity_ = 0;
  std::vector<double> data_;
  std::vector<const double*> ptrs_;
};

}  // namespace surf

#endif  // SURF_GEOM_REGION_H_
