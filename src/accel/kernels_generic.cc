// Generic (portable scalar) kernel backend, and the single definitions
// of the shared scalar helpers every vector backend defers to. This TU
// is compiled with baseline flags only: no wide ISA, no FP contraction —
// it IS the bit-identity reference the differential harness compares
// the vector backends against.

#include "accel/kernels_detail.h"

namespace surf {
namespace accel_detail {

void MaskRangeTail(const double* col, size_t r0, size_t n, double lo,
                   double hi, uint8_t* mask) {
  for (size_t r = r0; r < n; ++r) {
    mask[r] &= static_cast<uint8_t>(!(col[r] < lo)) &
               static_cast<uint8_t>(!(col[r] > hi));
  }
}

uint64_t MaskCountTail(const uint8_t* mask, size_t r0, size_t n) {
  uint64_t sum = 0;
  for (size_t r = r0; r < n; ++r) sum += mask[r];
  return sum;
}

void HistU8UnitRef(const uint8_t* bins, const uint32_t* row_ids,
                   const double* grad, size_t n, uint32_t num_bins,
                   double* g, uint32_t* cnt) {
  // Plain ascending row order, shared by every backend (see kernels.h
  // for why the vector variants were measured out).
  (void)num_bins;
  if (row_ids == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const uint8_t b = bins[i];
      g[b] += grad[i];
      ++cnt[b];
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint8_t b = bins[row_ids[i]];
      g[b] += grad[i];
      ++cnt[b];
    }
  }
}

void TreePredictRef(const AccelTreeNode* nodes, const double* values,
                    size_t levels, const double* const* cols, size_t begin,
                    size_t end, double scale, double* out) {
  // Interleave 8 rows through the tree at once: each level is one
  // dependent load-compare-select per row, so eight independent chains
  // overlap instead of serializing. Leaves self-select, letting every
  // row run the same fixed number of levels branch-free.
  constexpr size_t kGroup = 8;
  // Walks rows [r, r + n), n <= kGroup; a compile-time n unrolls fully.
  auto walk = [&](size_t r, size_t n) {
    int32_t idx[kGroup] = {0};
    for (size_t lvl = 0; lvl < levels; ++lvl) {
      for (size_t k = 0; k < n; ++k) {
        const AccelTreeNode& node = nodes[static_cast<size_t>(idx[k])];
        // Branch-free masked select (a ternary here compiles to a
        // data-dependent branch that mispredicts ~50% of the time at
        // deep levels); leaves self-loop via the always-false NaN
        // compare.
        const int32_t mask =
            -static_cast<int32_t>(cols[node.feature][r + k] <= node.tv);
        idx[k] = (node.right & ~mask) | ((idx[k] + 1) & mask);
      }
    }
    for (size_t k = 0; k < n; ++k) {
      out[r + k - begin] += scale * values[idx[k]];
    }
  };
  size_t r = begin;
  for (; r + kGroup <= end; r += kGroup) walk(r, kGroup);
  // The < 8-row tail runs the same fixed-level masked walk: no
  // early-exit pointer chase, so small and odd-sized batches (a swarm's
  // moved particles, single holdout rows) stay branch-free too.
  if (r < end) walk(r, end - r);
}

void MaskRangeRef(const double* col, size_t n, double lo, double hi,
                  uint8_t* mask) {
  MaskRangeTail(col, 0, n, lo, hi, mask);
}

uint64_t MaskCountRef(const uint8_t* mask, size_t n) {
  return MaskCountTail(mask, 0, n);
}

}  // namespace accel_detail

const AccelOps kAccelGenericOps = {
    /*backend=*/0,
    /*name=*/"generic",
    accel_detail::HistU8UnitRef,
    accel_detail::TreePredictRef,
    accel_detail::MaskRangeRef,
    accel_detail::MaskCountRef,
};

}  // namespace surf
