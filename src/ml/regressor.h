#ifndef SURF_ML_REGRESSOR_H_
#define SURF_ML_REGRESSOR_H_

#include <string>
#include <vector>

#include "ml/matrix.h"
#include "util/status.h"

namespace surf {

/// \brief Common interface of the surrogate-capable regressors.
///
/// The paper (§IV, footnote 2) deliberately keeps the surrogate's model
/// class open — "alternative ML models could be employed". Everything the
/// SuRF core needs is Fit + Predict; GBRT, ridge regression, and k-NN all
/// implement this interface so the ablation benches can swap them freely.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on the full matrix. Returns InvalidArgument for empty or
  /// mismatched inputs.
  virtual Status Fit(const FeatureMatrix& x,
                     const std::vector<double>& y) = 0;

  /// Predicts one point (length = num_features at fit time).
  virtual double Predict(const std::vector<double>& x) const = 0;

  /// Batch prediction; default loops Predict().
  virtual std::vector<double> PredictBatch(const FeatureMatrix& x) const {
    std::vector<double> out(x.num_rows());
    for (size_t r = 0; r < x.num_rows(); ++r) out[r] = Predict(x.Row(r));
    return out;
  }

  /// Batch prediction over column pointers (`cols[j][r]` is feature j of
  /// row r, j < num_features) into the caller's out[0, rows). Default
  /// gathers each row and loops Predict().
  virtual void PredictColumns(const double* const* cols, size_t num_features,
                              size_t rows, double* out) const {
    std::vector<double> x(num_features);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < num_features; ++j) x[j] = cols[j][r];
      out[r] = Predict(x);
    }
  }

  /// True once Fit succeeded.
  virtual bool trained() const = 0;

  /// Model family name for reports ("gbrt", "ridge", "knn").
  virtual std::string Name() const = 0;
};

}  // namespace surf

#endif  // SURF_ML_REGRESSOR_H_
