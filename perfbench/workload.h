// Inputs and request bodies of the four perfbench workloads, shared by
// the HTTP load generator (perfbench.cpp) and the in-process layer probes
// (layers.cpp). Everything here derives from the run's --seed.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/api_v2.h"
#include "core/finder.h"
#include "data/dataset.h"
#include "harness.h"
#include "serve/mining_service.h"

namespace perfbench {

/// The ext_http serving recipe: 2-d density data with 12k background
/// rows, a 2,000-query training workload, 100 trees, 30 GSO iterations,
/// no per-iteration KDE guidance.
inline constexpr size_t kWarmBackgroundRows = 12000;
/// The cold recipe's dataset: 1M background rows on the 4-shard scan
/// backend, same training and search recipe.
inline constexpr size_t kColdBackgroundRows = 1000000;
inline constexpr size_t kColdShards = 4;

/// One request body's inputs. `workload_seed` 0 keeps the recipe's
/// default training seed (the warm model); cold bodies set a distinct one
/// so every request misses the surrogate cache.
struct BodySpec {
  const char* dataset = "warm";
  double threshold = 0.0;
  uint64_t workload_seed = 0;
  bool cold = false;
  bool cluster = false;
  bool trace = false;
};

/// The v2 `/v1/mine` JSON body the server receives.
std::string MineBody(const BodySpec& spec);

/// Decodes a generated body exactly as surfd does: the v2 decoder, with
/// column names resolved against `service`'s registered datasets.
surf::v2::MineRequest DecodeBody(const surf::MiningService& service,
                                 const std::string& body);

/// Region bounds equal bit for bit, in order.
bool SameRegions(const std::vector<surf::FoundRegion>& a,
                 const std::vector<surf::FoundRegion>& b);

/// A generated dataset: in memory for the probes and checks, and as the
/// CSV file every surfd loads (doubles written with %.17g, so the parsed
/// copy is bit-identical to the in-memory one).
struct DataFile {
  std::string name;
  std::string path;
  surf::Dataset data;
};

/// 2-d synthetic density data with two planted regions.
DataFile MakeDataFile(const std::string& name, size_t background_rows,
                      uint64_t seed, const std::string& dir);

/// `count` thresholds spread over the [q_lo, q_hi] quantiles of the
/// region-count ECDF, measured on regions drawn like the training
/// workload (centres uniform, half-lengths 1-15% of the extent). The
/// set is bounded and fixed for a seed, so a stream cycling through it
/// is stationary.
std::vector<double> CountThresholds(const surf::Dataset& data, size_t count,
                                    double q_lo, double q_hi,
                                    SeedSequence* seq);

/// Per-layer metrics of a traced run: name → (value, unit).
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

/// The in-process layer probes (layers.cpp). Each times calls into one
/// module's public functions on the benchmark's own thread.
void ProbeWarmPath(const DataFile& warm, const std::vector<double>& thresholds,
                   LayerMetrics* out);
void ProbeColdPath(const DataFile& cold, const std::vector<double>& thresholds,
                   SeedSequence* seq, LayerMetrics* out);
/// Labels the cold recipe over a ClusterEvaluator pointed at `workers`
/// (surfd processes that hold `cold`), and reads their CPU from /proc.
void ProbeDistPath(const DataFile& cold, const std::vector<Surfd>& workers,
                   SeedSequence* seq, LayerMetrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
