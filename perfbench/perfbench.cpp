// perfbench: the repository benchmark. Drives real surfd processes over
// loopback with one of four workloads and reports end-to-end metrics
// (--trace 0) or per-layer metrics (--trace 1) as one JSON line.
//
//   perfbench --workload warm_distinct --seed 1 --seconds 25 --trace 0
//             --cli <path to surf_cli> --workdir <scratch dir>
//
// Workloads (why each exists is recorded in BENCHMARK.json; cluster_cold
// is runnable but not in its set, see perfbench/README.md):
//   warm_distinct  closed loop, 4 keep-alive connections, one warm model,
//                  every in-flight body a distinct threshold.
//   cold_train     closed loop, 1 connection, every body a distinct
//                  training seed (a cache miss) on 1M rows, 4-shard scan.
//   mixed_burst    open loop: seeded Poisson interactive mines at 100/s
//                  (half from 8 hot byte-identical bodies) plus batch-class
//                  cold trains from tenant `analytics` at 0.25/s.
//   cluster_cold   cold_train's stream with execution.cluster, sent to a
//                  coordinator surfd with two worker surfds.
//
// The server only ever receives the generated bodies; every input derives
// from --seed. See perfbench/README.md for the metric → layer → workload
// map.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/api_v2.h"
#include "harness.h"
#include "net/json_codec.h"
#include "serve/mining_service.h"
#include "util/json.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kWarmThresholds = 64;
constexpr size_t kHotBodies = 8;
// Set-up is repeated and its median reported; the cheap warm set-up
// gets more repeats because each one is short enough to be noisy.
constexpr size_t kSetupRepeats = 3;
constexpr size_t kWarmSetupRepeats = 7;
// The tail is the highest percentile with this many samples beyond it.
// Runs with at least kBusySamples latencies cut the window into
// consecutive slices of at least kSliceSamples samples (in due order),
// take the tail of each (about p96) and report the median slice. A burst
// of neighbouring load on a shared host then moves the tail of the
// slices it lands in, not the figure; and the percentile does not deepen
// with throughput, as a pooled tail's would, so a faster commit is not
// measured further out in its tail. The cold workloads (~30 samples) take
// the whole run's tail.
constexpr size_t kTailBeyond = 10;
constexpr size_t kSliceSamples = 250;
constexpr size_t kBusySamples = 2 * kSliceSamples;
// Warm workloads run this long before the window. A surfd that has just
// registered the 1M-row data serves noticeably slower for about a second;
// the warm-up keeps that set-up transient out of the steady-state window.
constexpr double kWarmupSeconds = 2.0;
// The mixed load stays well below saturation: three interactive
// connections keep up with the schedule only while mean latency is under
// 3 / kInteractiveRate seconds, and the batch trains take about 4 cores
// for a second each. At 150/s and 0.5/s a shared host's slower spells
// pushed some runs past that knee, and their latency grew for the whole
// window (p50 ~430 ms against ~10 ms).
constexpr double kInteractiveRate = 100.0;  // req/s, ~20% of seed capacity
constexpr double kBatchRate = 0.25;         // req/s

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string workdir;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--cli") {
      options.cli = value;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      Die("unknown flag " + key);
    }
  }
  if (options.workload != "warm_distinct" && options.workload != "cold_train" &&
      options.workload != "mixed_burst" && options.workload != "cluster_cold") {
    Die("--workload must be warm_distinct|cold_train|mixed_burst|"
        "cluster_cold");
  }
  if (!(options.seconds > 0.0) || options.cli.empty() ||
      options.workdir.empty()) {
    Die("--seconds, --cli and --workdir are required");
  }
  return options;
}

/// The reported tail of (due time, latency ms) samples; see kSliceSamples.
Tail ReportedTail(std::vector<std::pair<double, double>> timed) {
  std::sort(timed.begin(), timed.end());
  const size_t n = timed.size();
  const size_t slices = n >= kBusySamples ? n / kSliceSamples : 1;
  std::vector<double> values, percentiles;
  Tail tail;
  tail.samples = n;
  for (size_t s = 0; s < slices; ++s) {
    std::vector<double> slice;
    for (size_t i = s * n / slices; i < (s + 1) * n / slices; ++i) {
      slice.push_back(timed[i].second);
    }
    const Tail part = TailOf(slice, kTailBeyond);
    values.push_back(part.value);
    percentiles.push_back(part.percentile);
    tail.beyond += part.beyond;
  }
  tail.value = Median(values);
  tail.percentile = Median(percentiles);
  return tail;
}

// ------------------------------------------------------------ the stream

/// One request the load generator can send.
struct Body {
  BodySpec spec;
  std::string json;
  std::string wire;
  bool batch = false;
  bool expect_hit = false;
};

Body MakeBody(const BodySpec& spec, bool batch) {
  Body body;
  body.spec = spec;
  body.json = MineBody(spec);
  Headers headers;
  if (batch) {
    headers = {{"x-surf-tenant", "analytics"}, {"x-surf-priority", "batch"}};
  }
  body.wire = Wire("POST", "/v1/mine", body.json, headers);
  body.batch = batch;
  body.expect_hit = !spec.cold;
  return body;
}

/// One request sent in the measured window.
struct Op {
  uint32_t body = 0;
  int status = 0;
  bool wrong = false;
  double due = 0.0;   // when the schedule wanted it sent
  double sent = 0.0;  // when it was sent
  double done = 0.0;  // when its response was complete
  double server_ms = std::numeric_limits<double>::quiet_NaN();
  std::string response;

  bool ok() const { return status == 200 && !wrong; }
  double latency_ms() const { return (done - due) * 1e3; }
};

/// Sends `body` now, then makes the cheap checks every response gets:
/// status, the expected cache outcome, and the server-side total_seconds
/// (for the wait metric).
void SendOp(Connection* connection, const Body& body, Op* op) {
  op->sent = Now();
  HttpReply reply = connection->Send(body.wire);
  op->done = Now();
  op->status = reply.status;
  op->response = std::move(reply.body);
  if (op->status != 200) return;
  const size_t hit = op->response.find("\"cache_hit\":");
  op->wrong = hit == std::string::npos ||
              (op->response.compare(hit + 12, 4, "true") == 0) !=
                  body.expect_hit;
  const size_t total = op->response.find("\"total_seconds\":");
  if (total != std::string::npos) {
    op->server_ms = std::strtod(op->response.c_str() + total + 16, nullptr) *
                    1e3;
  }
}

// ------------------------------------------------------------ deployment

struct Deployment {
  std::vector<Surfd> workers;  // cluster_cold only
  Surfd front;                 // the surfd the load generator talks to

  std::vector<Surfd> all() const {
    std::vector<Surfd> procs = workers;
    procs.push_back(front);
    return procs;
  }
};

void Register(const Surfd& surfd, const DataFile& file) {
  const std::string body = "{\"name\":\"" + surf::JsonEscape(file.name) +
                           "\",\"path\":\"" + surf::JsonEscape(file.path) +
                           "\"}";
  const HttpReply reply =
      Call(surfd.port, Wire("POST", "/v1/datasets", body), 120.0);
  if (reply.status != 201) {
    Die("registering " + file.name + " failed (" +
        std::to_string(reply.status) + "): " + reply.body);
  }
}

/// Spawn → datasets registered → first good response. Returns seconds.
double SetUp(const Options& options, bool cluster,
             const std::vector<const DataFile*>& datasets,
             const Body& first, size_t attempt, Deployment* out) {
  const double start = Now();
  const std::string log = options.workdir + "/surfd-" +
                          std::to_string(attempt) + "-";
  Deployment deployment;
  std::vector<std::string> front_flags;
  if (cluster) {
    std::string endpoints;
    for (int w = 0; w < 2; ++w) {
      deployment.workers.push_back(SpawnSurfd(
          options.cli, {}, log + "worker" + std::to_string(w) + ".log"));
      endpoints += (w ? ",127.0.0.1:" : "127.0.0.1:") +
                   std::to_string(deployment.workers.back().port);
    }
    front_flags = {"--workers", endpoints};
  }
  deployment.front = SpawnSurfd(options.cli, front_flags, log + "front.log");
  std::vector<std::thread> registrations;
  for (const Surfd& surfd : deployment.all()) {
    registrations.emplace_back([surfd, &datasets] {
      for (const DataFile* file : datasets) Register(surfd, *file);
    });
  }
  for (std::thread& t : registrations) t.join();
  const HttpReply reply = Call(deployment.front.port, first.wire, 120.0);
  if (reply.status != 200) {
    Die("set-up request failed (" + std::to_string(reply.status) +
        "): " + reply.body);
  }
  const double seconds = Now() - start;
  *out = std::move(deployment);
  return seconds;
}

void TearDown(Deployment* deployment) {
  StopSurfd(&deployment->front);
  for (Surfd& worker : deployment->workers) StopSurfd(&worker);
}

// ---------------------------------------------------------------- loops

/// Closed loop: `connections` clients each send their next body as soon
/// as the previous response is complete, until `seconds` have passed;
/// `pick(i)` maps the i-th send to a body index.
template <typename Pick>
std::vector<Op> ClosedLoop(uint16_t port, size_t connections, double seconds,
                           double timeout, const std::vector<Body>& bodies,
                           Pick pick) {
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Op>> per_thread(connections);
  const double end = Now() + seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Connection connection;
      connection.Connect(port, timeout);
      while (Now() < end) {
        Op op;
        op.body = static_cast<uint32_t>(pick(next.fetch_add(1)));
        op.due = Now();
        SendOp(&connection, bodies[op.body], &op);
        per_thread[c].push_back(std::move(op));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Op> ops;
  for (auto& list : per_thread) {
    for (Op& op : list) ops.push_back(std::move(op));
  }
  return ops;
}

/// A Poisson process at `rate` conditioned on exactly round(rate) arrivals
/// in every second of the window (exponential gaps rescaled to each
/// second): every seed offers the same load at the one-second scale, and
/// only the burst pattern inside each second varies.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    SeedSequence* seq) {
  std::vector<double> at;
  const size_t per_second = static_cast<size_t>(std::lround(rate));
  for (double second = 0.0; second < seconds; second += 1.0) {
    const double span = std::min(1.0, seconds - second);
    const size_t count = static_cast<size_t>(std::lround(per_second * span));
    std::vector<double> gaps;
    double total = 0.0;
    for (size_t i = 0; i <= count; ++i) {
      gaps.push_back(seq->Exponential(1.0));
      total += gaps.back();
    }
    double t = 0.0;
    for (size_t i = 0; i < count; ++i) {
      t += gaps[i];
      at.push_back(second + span * t / total);
    }
  }
  return at;
}

/// `count` arrivals, one uniform in each of `count` equal slots of the
/// window: the batch stream keeps its rate and seeded jitter, while the
/// share of the window it overlaps stays the same for every seed.
std::vector<double> JitteredSchedule(size_t count, double seconds,
                                     SeedSequence* seq) {
  std::vector<double> at;
  const double slot = seconds / static_cast<double>(count);
  for (size_t i = 0; i < count; ++i) {
    at.push_back(slot * (static_cast<double>(i) + seq->Uniform()));
  }
  return at;
}

/// One class of open-loop arrivals, (offset seconds, body index) in due
/// order, served by connections of its own.
struct Lane {
  size_t connections = 1;
  std::vector<std::pair<double, uint32_t>> arrivals;
};

/// Open loop: a free connection of a lane takes the lane's next arrival
/// and sleeps until it is due. Latency runs from the due time, so a
/// stalled generator charges every request it delays.
std::vector<Op> OpenLoop(uint16_t port, const std::vector<Body>& bodies,
                         const std::vector<Lane>& lanes) {
  const double start = Now() + 0.05;
  std::vector<std::atomic<size_t>> next(lanes.size());
  size_t connections = 0;
  for (const Lane& lane : lanes) connections += lane.connections;
  // Sized up front: each thread appends to its own element.
  std::vector<std::vector<Op>> per_thread(connections);
  std::vector<std::thread> threads;
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (size_t c = 0; c < lanes[l].connections; ++c) {
      threads.emplace_back([&, l, t = threads.size()] {
        const auto& arrivals = lanes[l].arrivals;
        Connection connection;
        connection.Connect(port, 120.0);
        for (size_t i; (i = next[l].fetch_add(1)) < arrivals.size();) {
          Op op;
          op.body = arrivals[i].second;
          op.due = start + arrivals[i].first;
          const double wait = op.due - Now();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          SendOp(&connection, bodies[op.body], &op);
          per_thread[t].push_back(std::move(op));
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  std::vector<Op> ops;
  for (auto& list : per_thread) {
    for (Op& op : list) ops.push_back(std::move(op));
  }
  return ops;
}

// --------------------------------------------------------- verification

/// Replays a seeded sample of HTTP requests through an in-process
/// MiningService and requires bit-identical region bounds and the same
/// cache outcome. Cluster bodies are replayed with execution.cluster off:
/// the cluster answer must equal the local 4-shard answer.
class Verifier {
 public:
  explicit Verifier(const std::vector<const DataFile*>& datasets) {
    for (const DataFile* file : datasets) {
      if (!service_.RegisterDataset(file->name, file->data).ok()) {
        Die("in-process registration failed");
      }
    }
  }

  /// Serves a request in process (to warm the cache like set-up did).
  void Prime(const Body& body) {
    (void)service_.Mine(DecodeBody(service_, body.json));
  }

  /// True when the HTTP response matches the in-process answer.
  bool Matches(const Body& body, const std::string& http_response) {
    BodySpec local = body.spec;
    local.cluster = false;
    const surf::v2::MineResponse expected =
        service_.Mine(DecodeBody(service_, MineBody(local)));
    auto json = surf::ParseJson(http_response);
    if (!json.ok()) return false;
    auto actual = surf::MineResponseFromJson(*json);
    return actual.ok() && expected.status.ok() &&
           actual->cache_hit == expected.cache_hit &&
           SameRegions(actual->result.regions, expected.result.regions);
  }

 private:
  surf::MiningService service_;
};

// --------------------------------------------------------------- report

struct Report {
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Report& report) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : report.metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    line += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + number + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

MetricMap ScrapeAll(const std::vector<Surfd>& procs) {
  MetricMap total;
  for (const Surfd& surfd : procs) {
    for (const auto& [key, value] : Scrape(surfd.port)) total[key] += value;
  }
  return total;
}

int Run(const Options& options) {
  SeedSequence seq(options.seed);
  const std::string& w = options.workload;
  const bool cold_stream = w == "cold_train" || w == "cluster_cold";
  const bool cluster = w == "cluster_cold";
  const bool mixed = w == "mixed_burst";
  const bool needs_warm = w == "warm_distinct" || mixed;
  const bool needs_cold = cold_stream || mixed;

  // ---- inputs
  const uint64_t warm_seed = seq.Next() % 1000000 + 1;
  const uint64_t cold_seed = seq.Next() % 1000000 + 1;
  DataFile warm, cold;
  if (needs_warm || options.trace) {
    warm = MakeDataFile("warm", kWarmBackgroundRows, warm_seed,
                        options.workdir);
  }
  // The traced run's probes use both datasets whatever the workload.
  if (needs_cold || options.trace) {
    cold = MakeDataFile("cold", kColdBackgroundRows, cold_seed,
                        options.workdir);
  }
  std::vector<double> warm_thresholds, cold_thresholds;
  if (!warm.path.empty()) {
    warm_thresholds =
        CountThresholds(warm.data, kWarmThresholds, 0.80, 0.99, &seq);
  }
  if (!cold.path.empty()) {
    cold_thresholds = CountThresholds(cold.data, 16, 0.80, 0.99, &seq);
  }

  // Body table. Warm bodies: one per threshold; in mixed_burst the first
  // kHotBodies are the hot set and are never traced (a traced body is
  // never coalesced, and the hot set exists to exercise coalescing).
  std::vector<Body> bodies;
  for (size_t i = 0; needs_warm && i < warm_thresholds.size(); ++i) {
    BodySpec spec;
    spec.dataset = "warm";
    spec.threshold = warm_thresholds[i];
    spec.trace = options.trace && !(mixed && i < kHotBodies);
    bodies.push_back(MakeBody(spec, false));
  }
  const size_t first_cold = bodies.size();
  // Enough distinct training seeds that no cold request ever repeats one.
  const size_t cold_count =
      needs_cold ? static_cast<size_t>(options.seconds * 40.0) + 64 : 0;
  for (size_t i = 0; i < cold_count; ++i) {
    BodySpec spec;
    spec.dataset = "cold";
    spec.cold = true;
    spec.cluster = cluster;
    spec.threshold = cold_thresholds[i % cold_thresholds.size()];
    spec.workload_seed = 1000 + i * 7919 + seq.Next() % 7919;
    spec.trace = options.trace;
    bodies.push_back(MakeBody(spec, mixed));
  }

  std::vector<const DataFile*> served;
  if (needs_warm) served.push_back(&warm);
  if (needs_cold) served.push_back(&cold);
  // Set-up's first good response: the warm model's training request, or
  // a cold train under a seed the stream never uses.
  BodySpec first_spec;
  if (needs_warm) {
    first_spec = bodies[0].spec;
    first_spec.trace = false;
  } else {
    first_spec = bodies[first_cold].spec;
    first_spec.workload_seed = 17;
    first_spec.trace = false;
  }
  const Body first = MakeBody(first_spec, false);

  // ---- set-up, repeated; the last deployment is measured
  std::vector<double> setups;
  Deployment deployment;
  const size_t repeats =
      w == "warm_distinct" ? kWarmSetupRepeats : kSetupRepeats;
  for (size_t attempt = 0; attempt < repeats; ++attempt) {
    if (attempt > 0) TearDown(&deployment);
    setups.push_back(SetUp(options, cluster, served, first, attempt,
                           &deployment));
  }
  const std::vector<Surfd> procs = deployment.all();
  const uint16_t port = deployment.front.port;

  if (needs_warm) {
    const size_t warm_count = mixed ? kHotBodies : warm_thresholds.size();
    ClosedLoop(port, 4, kWarmupSeconds, 10.0, bodies,
               [&](uint64_t i) { return i % warm_count; });
  }

  // ---- the measured window
  const MetricMap before = ScrapeAll(procs);
  std::vector<ProcSample> cpu_before;
  for (const Surfd& p : procs) cpu_before.push_back(ReadProc(p.pid));
  const double window_start = Now();
  std::vector<Op> ops;
  if (w == "warm_distinct") {
    ops = ClosedLoop(port, 4, options.seconds, 10.0, bodies,
                     [&](uint64_t i) { return i % bodies.size(); });
  } else if (cold_stream) {
    ops = ClosedLoop(port, 1, options.seconds, 120.0, bodies,
                     [&](uint64_t i) {
                       return first_cold + std::min<uint64_t>(i, cold_count - 1);
                     });
  } else {
    // 3 interactive connections and 1 batch connection: 4 in all.
    std::vector<Lane> lanes(2);
    lanes[0].connections = 3;
    const size_t n_batch = std::max<size_t>(
        1, static_cast<size_t>(std::lround(kBatchRate * options.seconds)));
    size_t next_distinct = 0;
    for (double at : PoissonSchedule(kInteractiveRate, options.seconds, &seq)) {
      const bool hot = seq.Uniform() < 0.5;
      const size_t index =
          hot ? seq.Next() % kHotBodies
              : kHotBodies + next_distinct++ % (first_cold - kHotBodies);
      lanes[0].arrivals.emplace_back(at, static_cast<uint32_t>(index));
    }
    size_t next_cold = first_cold;
    for (double at : JitteredSchedule(n_batch, options.seconds, &seq)) {
      lanes[1].arrivals.emplace_back(at, static_cast<uint32_t>(next_cold++));
    }
    ops = OpenLoop(port, bodies, lanes);
  }
  double window_end = window_start;
  for (const Op& op : ops) window_end = std::max(window_end, op.done);
  const MetricMap after = ScrapeAll(procs);
  double cpu_seconds = 0.0, peak_rss_mb = 0.0;
  for (size_t i = 0; i < procs.size(); ++i) {
    const ProcSample sample = ReadProc(procs[i].pid);
    cpu_seconds += sample.cpu_seconds - cpu_before[i].cpu_seconds;
    peak_rss_mb = std::max(peak_rss_mb, sample.hwm_mb);
  }

  // Workers stay up for the traced run's distributed probe.
  StopSurfd(&deployment.front);
  if (!(options.trace && cluster)) {
    for (Surfd& worker : deployment.workers) StopSurfd(&worker);
  }

  // ---- verification on a seeded sample of good responses
  std::vector<size_t> good_hit, good_miss;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].ok()) continue;
    (bodies[ops[i].body].expect_hit ? good_hit : good_miss).push_back(i);
  }
  auto sample = [&](std::vector<size_t>* from, size_t n) {
    for (size_t i = 0; i < from->size() && i < n; ++i) {
      std::swap((*from)[i], (*from)[i + seq.Next() % (from->size() - i)]);
    }
    from->resize(std::min(n, from->size()));
  };
  sample(&good_hit, 12);
  sample(&good_miss, mixed ? 1 : 2);
  size_t mismatches = 0;
  {
    Verifier verifier(served);
    if (needs_warm) verifier.Prime(first);
    for (const std::vector<size_t>* picks : {&good_hit, &good_miss}) {
      for (size_t i : *picks) {
        if (!verifier.Matches(bodies[ops[i].body], ops[i].response)) {
          ops[i].wrong = true;
          ++mismatches;
        }
      }
    }
  }

  // ---- end-to-end metrics
  const double limit_ms = cold_stream ? 2000.0 : 50.0;
  uint64_t attempted = ops.size(), failed = 0, wrong = 0;
  uint64_t completed = 0, met = 0, interactive_sent = 0;
  uint64_t batch_done = 0;
  double batch_end = window_start, interactive_end = window_start;
  std::vector<double> latencies, late_ms, wait_ms;
  std::vector<std::pair<double, double>> timed;  // (due, latency ms)
  for (const Op& op : ops) {
    const bool batch = bodies[op.body].batch;
    if (op.wrong) ++wrong;
    if (!op.ok()) {
      ++failed;
      if (!batch) ++interactive_sent;
      continue;
    }
    ++completed;
    if (batch) {
      ++batch_done;
      batch_end = std::max(batch_end, op.done);
      continue;
    }
    ++interactive_sent;
    interactive_end = std::max(interactive_end, op.done);
    latencies.push_back(op.latency_ms());
    timed.emplace_back(op.due, op.latency_ms());
    late_ms.push_back((op.sent - op.due) * 1e3);
    if (std::isfinite(op.server_ms)) {
      wait_ms.push_back((op.done - op.sent) * 1e3 - op.server_ms);
    }
    if (op.latency_ms() <= limit_ms) ++met;
  }
  const Tail tail = ReportedTail(std::move(timed));
  // Ops over the time from window start to the last completion; on the
  // open loop only interactive ops that met the limit count.
  const double throughput =
      mixed ? static_cast<double>(met) / (interactive_end - window_start)
            : static_cast<double>(completed) / (window_end - window_start);

  Report e2e;
  e2e.Add("setup_s", Median(setups), "s");
  e2e.Add("latency_p50_ms", Median(latencies), "ms");
  e2e.Add("latency_tail_ms", tail.value, "ms");
  e2e.Add("throughput_ops", throughput, "1/s");
  e2e.Add("slo_attainment",
          interactive_sent == 0 ? 0.0
                                : static_cast<double>(met) /
                                      static_cast<double>(interactive_sent),
          "ratio");
  e2e.Add("cpu_ms_per_op",
          completed == 0 ? 0.0 : cpu_seconds * 1e3 / completed, "ms");
  e2e.Add("peak_rss_mb", peak_rss_mb, "MB");

  // Secondary end-to-end figures, printed on every run.
  const double batch_throughput =
      batch_done == 0 ? 0.0 : batch_done / (batch_end - window_start);
  for (const auto& [name, value, unit] : e2e.metrics) {
    std::printf("%s %s %.6g %s\n", w.c_str(), name.c_str(), value,
                unit.c_str());
  }
  std::printf("%s latency_tail_ms is p%.2f of %zu samples (%zu beyond%s)\n",
              w.c_str(), tail.percentile, tail.samples, tail.beyond,
              tail.samples >= kBusySamples ? ", median of the window's slices"
                                           : "");
  std::printf("%s error_rate %.6g ratio (%llu failed of %llu attempted, "
              "%llu wrong, %zu sampled mismatches)\n",
              w.c_str(), attempted ? double(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(wrong), mismatches);
  if (mixed) {
    std::printf("%s batch_throughput_ops %.6g 1/s (%llu batch trains)\n",
                w.c_str(), batch_throughput,
                static_cast<unsigned long long>(batch_done));
    std::printf("%s generator lateness p99 %.3f ms, max %.3f ms\n",
                w.c_str(), Quantile(late_ms, 0.99),
                late_ms.empty()
                    ? 0.0
                    : *std::max_element(late_ms.begin(), late_ms.end()));
  }
  const bool correct = wrong == 0;

  if (!options.trace) {
    PrintJson(correct, attempted, failed, e2e);
    return 0;
  }

  // ---- traced run: per-layer metrics
  LayerMetrics layers;
  auto delta = [&](const std::string& key) { return Delta(before, after, key); };
  auto per_op = [&](double count) {
    return completed == 0 ? 0.0 : count / static_cast<double>(completed);
  };
  const double hits = delta("surf_cache_requests_total{outcome=\"hit\"}");
  const double misses = delta("surf_cache_requests_total{outcome=\"miss\"}");
  layers["net.wait_ms"] = {Median(wait_ms), "ms"};
  layers["loadgen.late_p99_ms"] = {mixed ? Quantile(late_ms, 0.99) : 0.0, "ms"};
  layers["sched.shed"] = {delta("surf_http_requests_shed_total"), "count"};
  layers["sched.throttled"] = {delta("surf_http_tenant_throttled_total") +
                                   delta("surf_http_tenant_over_quota_total"),
                               "count"};
  layers["sched.batch_served"] = {delta("surf_http_batch_served_total"),
                                  "count"};
  layers["sched.batch_throughput_ops"] = {batch_throughput, "1/s"};
  layers["serve.cache_hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  layers["serve.coalesced_share"] = {per_op(delta("surf_mine_coalesced_total")),
                                     "ratio"};
  layers["stats.shard_scans_per_op"] = {
      per_op(delta("surf_shard_scan_total{action=\"scanned\"}")), "count"};
  layers["stats.shard_prunes_per_op"] = {
      per_op(delta("surf_shard_scan_total{action=\"pruned\"}")), "count"};
  layers["e2e.tail_percentile"] = {tail.percentile, "pct"};
  layers["e2e.samples"] = {static_cast<double>(tail.samples), "count"};
  // Stage sums come only from traced requests; report them per traced
  // request, under the /metrics stage names.
  double traced = 0.0;
  for (const Op& op : ops) traced += op.ok() && bodies[op.body].spec.trace;
  for (const char* stage :
       {"workload_gen", "labelling", "training", "search", "extraction"}) {
    const double sum =
        delta(std::string("surf_stage_seconds_sum{stage=\"") + stage + "\"}");
    layers[std::string("stage.") + stage + "_s"] = {
        traced > 0 ? sum / traced : 0.0, "s"};
  }
  double dist_retries = delta("surf_dist_shard_retries_total");

  ProbeWarmPath(warm, warm_thresholds, &layers);
  ProbeColdPath(cold, cold_thresholds, &seq, &layers);
  std::vector<Surfd> workers = deployment.workers;
  if (workers.empty()) {
    for (int i = 0; i < 2; ++i) {
      workers.push_back(SpawnSurfd(options.cli, {},
                                   options.workdir + "/probe-worker" +
                                       std::to_string(i) + ".log"));
      Register(workers.back(), cold);
    }
  }
  ProbeDistPath(cold, workers, &seq, &layers);
  for (Surfd& worker : workers) StopSurfd(&worker);
  deployment.workers.clear();
  dist_retries += layers["dist.retries"].first;
  layers["dist.retries"] = {dist_retries, "count"};
  layers["dist.overhead_ratio"] = {
      layers["dist.label_ms"].first / layers["labelling.ms"].first, "ratio"};

  Report per_layer;
  for (const auto& [name, value] : layers) {
    per_layer.Add(name, value.first, value.second);
    std::printf("%s %s %.6g %s\n", w.c_str(), name.c_str(), value.first,
                value.second.c_str());
  }
  PrintJson(correct, attempted, failed, per_layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::InstallSignalCleanup();
  const int rc = perfbench::Run(perfbench::ParseArgs(argc, argv));
  perfbench::StopAllSurfds();
  return rc;
}
