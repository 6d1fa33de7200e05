// In-process layer probes of the traced run. Each probe times calls into
// one module's public functions from the benchmark's own code: nothing in
// the program is instrumented for it. The warm and cold probes compose
// the same calls MiningService makes on a hit and on a miss, so their
// layer times can be checked against the service call they decompose
// (serve.mine_coverage, serve.miss_coverage).

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/finder.h"
#include "core/surf.h"
#include "core/surrogate.h"
#include "core/workload.h"
#include "dist/cluster_evaluator.h"
#include "dist/worker_pool.h"
#include "net/json_codec.h"
#include "serve/fingerprint.h"
#include "util/json.h"
#include "workload.h"

namespace perfbench {
namespace {

double TimedMs(const std::function<void()>& call) {
  const double start = Now();
  call();
  return (Now() - start) * 1e3;
}

/// The search configuration MiningService derives from a request.
surf::FinderConfig FinderFor(const surf::v2::MineRequest& request,
                             size_t dims) {
  surf::FinderConfig config = request.search.finder;
  if (config.auto_scale_gso) {
    config.gso.num_glowworms =
        std::max(config.gso.num_glowworms,
                 surf::GsoParams::PaperScaled(dims).num_glowworms);
  }
  return config;
}

/// A surrogate trained through the public layer calls, with each call
/// timed.
struct Pipeline {
  std::unique_ptr<surf::RegionEvaluator> evaluator;
  surf::RegionWorkload workload;
  surf::Surrogate surrogate;
  surf::Kde kde;
  double build_ms = 0.0, label_ms = 0.0, train_ms = 0.0, kde_ms = 0.0;
};

Pipeline TrainPipeline(const surf::Dataset& data,
                       const surf::v2::MineRequest& request) {
  Pipeline p;
  const surf::Statistic& stat = request.query.statistic;
  p.build_ms = TimedMs([&] {
    p.evaluator = surf::MakeEvaluator(request.execution.backend, &data, stat,
                                      request.execution.shards);
  });
  const surf::Bounds domain = data.ComputeBounds(stat.region_cols);
  p.label_ms = TimedMs([&] {
    p.workload =
        surf::GenerateWorkload(*p.evaluator, domain, request.training.workload);
  });
  p.train_ms = TimedMs([&] {
    auto trained =
        surf::Surrogate::Train(p.workload, request.training.surrogate);
    if (!trained.ok()) Die("probe: surrogate training failed");
    p.surrogate = std::move(trained).value();
  });
  p.kde_ms = TimedMs([&] {
    p.kde = surf::FitDataKde(data, stat.region_cols, 2000,
                             request.training.workload.seed + 1);
  });
  return p;
}

}  // namespace

void ProbeWarmPath(const DataFile& warm, const std::vector<double>& thresholds,
                   LayerMetrics* out) {
  surf::MiningService service;
  if (!service.RegisterDataset("warm", warm.data).ok()) {
    Die("probe: registration failed");
  }
  constexpr size_t kBodies = 16;
  constexpr int kRounds = 3;
  std::vector<std::string> plain, traced;
  for (size_t i = 0; i < kBodies; ++i) {
    BodySpec spec;
    spec.threshold = thresholds[i * thresholds.size() / kBodies];
    plain.push_back(MineBody(spec));
    spec.trace = true;
    traced.push_back(MineBody(spec));
  }
  // Train the warm model (the one surfd's cache holds after set-up), and
  // the same model again through the layer calls.
  const surf::v2::MineRequest first = DecodeBody(service, plain[0]);
  if (!service.Mine(first).status.ok()) Die("probe: warm mine failed");
  const Pipeline p = TrainPipeline(warm.data, first);
  surf::SurfFinder finder(p.surrogate.AsStatisticFn(), p.workload.space,
                          FinderFor(first, p.surrogate.dims()));
  finder.SetBatchEstimate(p.surrogate.AsBatchStatisticFn());
  if (first.execution.use_kde) finder.SetKde(&p.kde);

  // Per body: the service call on a hit (traced and untraced, in
  // alternating order), then the layer calls it decomposes into. Timing
  // them back to back keeps host speed drift out of the coverage ratio.
  std::vector<double> decode_us, encode_us, mine_ms, traced_ms, find_ms,
      validate_ms, iter_us, evaluations;
  double identical = 1.0;
  surf::FindResult last;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < kBodies; ++i) {
      surf::v2::MineRequest request;
      decode_us.push_back(
          TimedMs([&] { request = DecodeBody(service, plain[i]); }) * 1e3);
      const surf::v2::MineRequest traced_request =
          DecodeBody(service, traced[i]);
      surf::v2::MineResponse response;
      auto untraced_call = [&] {
        mine_ms.push_back(TimedMs([&] { response = service.Mine(request); }));
      };
      auto traced_call = [&] {
        traced_ms.push_back(
            TimedMs([&] { (void)service.Mine(traced_request); }));
      };
      if (round % 2 == 0) {
        untraced_call();
        traced_call();
      } else {
        traced_call();
        untraced_call();
      }
      encode_us.push_back(TimedMs([&] {
                            (void)surf::WriteJson(surf::MineResponseV2ToJson(
                                response, request.query.kind));
                          }) *
                          1e3);

      surf::FindResult result;
      find_ms.push_back(TimedMs([&] {
        result = finder.Find(request.query.threshold, request.query.direction);
      }));
      validate_ms.push_back(TimedMs([&] {
        for (const surf::FoundRegion& found : result.regions) {
          (void)p.evaluator->Evaluate(found.region);
        }
      }));
      iter_us.push_back(find_ms.back() * 1e3 /
                        std::max<size_t>(1, result.report.iterations));
      evaluations.push_back(
          static_cast<double>(result.report.objective_evaluations));
      if (!SameRegions(result.regions, response.result.regions)) {
        identical = 0.0;
      }
      last = std::move(result);
    }
  }

  // One swarm's worth of regions through the batched surrogate.
  std::vector<double> predict_us;
  const std::vector<surf::Region>& swarm = last.gso.particles;
  for (int rep = 0; rep < 200 && !swarm.empty(); ++rep) {
    predict_us.push_back(
        TimedMs([&] { (void)p.surrogate.EvaluateMany(swarm); }) * 1e3);
  }

  double mine_total = 0.0, layer_total = 0.0;
  for (double v : mine_ms) mine_total += v;
  for (size_t i = 0; i < find_ms.size(); ++i) {
    layer_total += find_ms[i] + validate_ms[i];
  }
  (*out)["net.decode_us"] = {Median(decode_us), "us"};
  (*out)["net.encode_us"] = {Median(encode_us), "us"};
  (*out)["serve.mine_ms"] = {Median(mine_ms), "ms"};
  (*out)["serve.mine_traced_ms"] = {Median(traced_ms), "ms"};
  (*out)["trace.overhead_ms"] = {Median(traced_ms) - Median(mine_ms), "ms"};
  (*out)["serve.mine_coverage"] = {layer_total / mine_total, "ratio"};
  (*out)["serve.probe_identical"] = {identical, "count"};
  (*out)["search.find_ms"] = {Median(find_ms), "ms"};
  (*out)["search.iter_us"] = {Median(iter_us), "us"};
  (*out)["search.evaluations"] = {Median(evaluations), "count"};
  (*out)["stats.validate_ms"] = {Median(validate_ms), "ms"};
  (*out)["ml.predict_us"] = {Median(predict_us), "us"};
}

void ProbeColdPath(const DataFile& cold, const std::vector<double>& thresholds,
                   SeedSequence* seq, LayerMetrics* out) {
  surf::MiningService service;
  if (!service.RegisterDataset("cold", cold.data).ok()) {
    Die("probe: registration failed");
  }
  constexpr int kRounds = 3;
  std::vector<double> build_ms, label_ms, labels_per_s, train_ms, kde_ms,
      find_ms, miss_ms;
  double miss_total = 0.0, layer_total = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    BodySpec spec;
    spec.dataset = "cold";
    spec.cold = true;
    spec.threshold = thresholds[round % thresholds.size()];
    // Distinct from every seed the HTTP stream used, so the miss is real.
    spec.workload_seed = 900000000 + seq->Next() % 1000000;
    const surf::v2::MineRequest request = DecodeBody(service, MineBody(spec));

    surf::v2::MineResponse response;
    const double miss = TimedMs([&] { response = service.Mine(request); });
    if (!response.status.ok() || response.cache_hit) {
      Die("probe: cold mine was not a successful miss");
    }
    const Pipeline p = TrainPipeline(cold.data, request);
    surf::SurfFinder finder(p.surrogate.AsStatisticFn(), p.workload.space,
                            FinderFor(request, p.surrogate.dims()));
    finder.SetBatchEstimate(p.surrogate.AsBatchStatisticFn());
    if (request.execution.use_kde) finder.SetKde(&p.kde);
    finder.SetValidator(p.evaluator.get());
    const double find = TimedMs([&] {
      (void)finder.Find(request.query.threshold, request.query.direction);
    });

    miss_ms.push_back(miss);
    build_ms.push_back(p.build_ms);
    label_ms.push_back(p.label_ms);
    labels_per_s.push_back(static_cast<double>(p.workload.size()) /
                           (p.label_ms / 1e3));
    train_ms.push_back(p.train_ms);
    kde_ms.push_back(p.kde_ms);
    find_ms.push_back(find);
    miss_total += miss;
    layer_total += p.build_ms + p.label_ms + p.train_ms + p.kde_ms + find;
  }
  (*out)["serve.miss_ms"] = {Median(miss_ms), "ms"};
  (*out)["serve.miss_coverage"] = {layer_total / miss_total, "ratio"};
  (*out)["stats.evaluator_build_ms"] = {Median(build_ms), "ms"};
  (*out)["labelling.ms"] = {Median(label_ms), "ms"};
  (*out)["labelling.labels_per_s"] = {Median(labels_per_s), "1/s"};
  (*out)["ml.train_ms"] = {Median(train_ms), "ms"};
  (*out)["ml.kde_fit_ms"] = {Median(kde_ms), "ms"};
  (*out)["search.cold_find_ms"] = {Median(find_ms), "ms"};
}

void ProbeDistPath(const DataFile& cold, const std::vector<Surfd>& workers,
                   SeedSequence* seq, LayerMetrics* out) {
  std::vector<std::string> endpoints;
  for (const Surfd& worker : workers) {
    endpoints.push_back("127.0.0.1:" + std::to_string(worker.port));
  }
  surf::dist::WorkerPool pool(endpoints);
  if (!pool.status().ok()) Die("probe: bad worker endpoints");
  const surf::Statistic stat = surf::Statistic::Count({0, 1});
  surf::dist::ClusterEvaluator::Options options;
  options.dataset = cold.name;
  options.fingerprint = surf::FingerprintDataset(cold.data);
  options.num_shards = kColdShards;
  const surf::dist::ClusterEvaluator evaluator(&pool, stat, options);
  const surf::Bounds domain = cold.data.ComputeBounds(stat.region_cols);

  // Workers build their partition inside the first RPC; keep that out of
  // the timed labelling (surfd's cluster set-up pays it the same way).
  surf::WorkloadParams params;
  params.num_queries = 64;
  params.seed = 3;
  (void)surf::GenerateWorkload(evaluator, domain, params);

  constexpr int kRounds = 3;
  std::vector<double> label_ms;
  std::vector<double> cpu(workers.size(), 0.0);
  for (int round = 0; round < kRounds; ++round) {
    params.num_queries = 2000;
    params.seed = 800000000 + seq->Next() % 1000000;
    std::vector<double> before;
    for (const Surfd& worker : workers) {
      before.push_back(ReadProc(worker.pid).cpu_seconds);
    }
    surf::RegionWorkload workload;
    label_ms.push_back(TimedMs(
        [&] { workload = surf::GenerateWorkload(evaluator, domain, params); }));
    if (workload.size() == 0) Die("probe: cluster labelling produced nothing");
    for (size_t i = 0; i < workers.size(); ++i) {
      cpu[i] += ReadProc(workers[i].pid).cpu_seconds - before[i];
    }
  }
  const double max_cpu = *std::max_element(cpu.begin(), cpu.end());
  const double min_cpu = *std::min_element(cpu.begin(), cpu.end());
  (*out)["dist.label_ms"] = {Median(label_ms), "ms"};
  (*out)["dist.worker_imbalance"] = {min_cpu > 0 ? max_cpu / min_cpu : 0.0,
                                     "ratio"};
  (*out)["dist.retries"] = {static_cast<double>(pool.shard_retries()),
                            "count"};
}

}  // namespace perfbench
