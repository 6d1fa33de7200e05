#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "data/synthetic.h"
#include "net/json_codec.h"
#include "util/json.h"

namespace perfbench {

std::string MineBody(const BodySpec& spec) {
  char threshold[40];
  std::snprintf(threshold, sizeof(threshold), "%.17g", spec.threshold);
  std::string workload = "{\"num_queries\":2000";
  if (spec.workload_seed != 0) {
    workload += ",\"seed\":" + std::to_string(spec.workload_seed);
  }
  workload += "}";
  std::string execution = "{";
  if (spec.cold) {
    execution += "\"backend\":\"scan\",\"shards\":" +
                 std::to_string(kColdShards) + ",";
    if (spec.cluster) execution += "\"cluster\":true,";
  }
  execution += spec.trace ? "\"trace\":true}" : "\"trace\":false}";
  return std::string("{\"api_version\":2,\"dataset\":\"") + spec.dataset +
         "\",\"query\":{\"statistic\":{\"kind\":\"count\",\"region_cols\":"
         "[\"a1\",\"a2\"]},\"threshold\":" +
         threshold +
         "},\"search\":{\"finder\":{\"gso\":{\"max_iterations\":30},"
         "\"use_kde_guidance\":false}},\"training\":{\"workload\":" +
         workload + ",\"surrogate\":{\"gbrt\":{\"n_estimators\":100}}},"
         "\"execution\":" +
         execution + "}";
}

surf::v2::MineRequest DecodeBody(const surf::MiningService& service,
                                 const std::string& body) {
  const surf::ColumnResolver resolver = [&service](const std::string& ds,
                                                   const std::string& col) {
    const surf::Dataset* data = service.dataset(ds);
    return data == nullptr ? -1 : data->ColumnIndex(col);
  };
  auto json = surf::ParseJson(body);
  if (!json.ok()) Die("cannot parse a generated body");
  auto request = surf::MineRequestV2FromJson(*json, &resolver);
  if (!request.ok()) Die("cannot decode a generated body");
  return *request;
}

bool SameRegions(const std::vector<surf::FoundRegion>& a,
                 const std::vector<surf::FoundRegion>& b) {
  auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i].region.center(), b[i].region.center()) ||
        !same(a[i].region.half_lengths(), b[i].region.half_lengths())) {
      return false;
    }
  }
  return true;
}

DataFile MakeDataFile(const std::string& name, size_t background_rows,
                      uint64_t seed, const std::string& dir) {
  surf::SyntheticSpec spec;
  spec.dims = 2;
  spec.num_gt_regions = 2;
  spec.statistic = surf::SyntheticStatistic::kDensity;
  spec.num_background = background_rows;
  spec.seed = seed;
  DataFile file;
  file.name = name;
  file.path = dir + "/" + name + ".csv";
  file.data = surf::SyntheticGenerator::Generate(spec).data;

  FILE* out = std::fopen(file.path.c_str(), "w");
  if (out == nullptr) Die("cannot write " + file.path);
  const auto& names = file.data.column_names();
  for (size_t c = 0; c < names.size(); ++c) {
    std::fprintf(out, c == 0 ? "%s" : ",%s", names[c].c_str());
  }
  std::fputc('\n', out);
  for (size_t r = 0; r < file.data.num_rows(); ++r) {
    for (size_t c = 0; c < names.size(); ++c) {
      std::fprintf(out, c == 0 ? "%.17g" : ",%.17g", file.data.Get(r, c));
    }
    std::fputc('\n', out);
  }
  if (std::fclose(out) != 0) Die("cannot write " + file.path);
  return file;
}

std::vector<double> CountThresholds(const surf::Dataset& data, size_t count,
                                    double q_lo, double q_hi,
                                    SeedSequence* seq) {
  // Count on a strided subsample so 1M-row data costs what 16k rows do.
  const size_t stride = std::max<size_t>(1, data.num_rows() / 16384);
  const std::vector<double>& xs = data.column(0);
  const std::vector<double>& ys = data.column(1);
  double lo[2] = {xs[0], ys[0]}, hi[2] = {xs[0], ys[0]};
  for (size_t r = 0; r < data.num_rows(); ++r) {
    lo[0] = std::min(lo[0], xs[r]);
    hi[0] = std::max(hi[0], xs[r]);
    lo[1] = std::min(lo[1], ys[r]);
    hi[1] = std::max(hi[1], ys[r]);
  }
  std::vector<double> counts;
  for (size_t i = 0; i < 1024; ++i) {
    double box_lo[2], box_hi[2];
    for (int d = 0; d < 2; ++d) {
      const double extent = hi[d] - lo[d];
      const double centre = lo[d] + seq->Uniform() * extent;
      const double half = (0.01 + 0.14 * seq->Uniform()) * extent;
      box_lo[d] = centre - half;
      box_hi[d] = centre + half;
    }
    size_t inside = 0;
    for (size_t r = 0; r < data.num_rows(); r += stride) {
      inside += xs[r] >= box_lo[0] && xs[r] <= box_hi[0] &&
                ys[r] >= box_lo[1] && ys[r] <= box_hi[1];
    }
    counts.push_back(static_cast<double>(inside * stride));
  }
  std::vector<double> thresholds;
  for (size_t i = 0; i < count; ++i) {
    const double q = q_lo + (q_hi - q_lo) * (static_cast<double>(i) + 0.5) /
                                static_cast<double>(count);
    // A sub-unit offset keeps every threshold distinct even where the
    // ECDF is flat, without moving it off its quantile.
    thresholds.push_back(Quantile(counts, q) + seq->Uniform());
  }
  return thresholds;
}

}  // namespace perfbench
