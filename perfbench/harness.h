// Process, socket and statistics plumbing for the perfbench program: a
// blocking keep-alive HTTP/1.1 client, surfd process control with /proc
// resource accounting, Prometheus-text scraping, and the order
// statistics every reported timing goes through.
//
// Deliberately independent of the program's own HTTP client and server
// code, so a change to those layers cannot change how they are measured.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic seconds (steady clock) since an arbitrary epoch.
double Now();

/// Aborts the benchmark: prints the reason to stderr, stops every surfd
/// it spawned, and exits 1 without printing a result line.
[[noreturn]] void Die(const std::string& reason);

// ------------------------------------------------------------------ HTTP

/// One completed exchange. `status` is 0 when the transport failed
/// (refused, reset, timed out, truncated).
struct HttpReply {
  int status = 0;
  std::string body;
};

using Headers = std::vector<std::pair<std::string, std::string>>;

/// Serializes a request with an explicit Content-Length.
std::string Wire(const std::string& method, const std::string& path,
                 const std::string& body, const Headers& headers = {});

/// A blocking keep-alive connection to 127.0.0.1:port.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects with a receive timeout of `timeout_seconds`.
  bool Connect(uint16_t port, double timeout_seconds);
  /// Sends `wire` and reads one response. On transport failure the
  /// connection is closed and reopened on the next call.
  HttpReply Send(const std::string& wire);
  void Close();

 private:
  bool Fill();

  int fd_ = -1;
  uint16_t port_ = 0;
  double timeout_seconds_ = 30.0;
  std::string buffer_;
};

/// One request on a fresh connection.
HttpReply Call(uint16_t port, const std::string& wire,
               double timeout_seconds = 60.0);

// ------------------------------------------------------------- processes

/// CPU and memory of one process, read from /proc.
struct ProcSample {
  double cpu_seconds = 0.0;  // utime + stime
  double hwm_mb = 0.0;       // VmHWM
};
ProcSample ReadProc(pid_t pid);

/// One spawned `surf_cli serve` process on an ephemeral port.
struct Surfd {
  pid_t pid = -1;
  uint16_t port = 0;
  int stdout_fd = -1;
};

/// Spawns `<cli> serve --port 0 <extra...>`, waits for its listening
/// line, and registers it for cleanup. stderr goes to `log_path`.
Surfd SpawnSurfd(const std::string& cli, const std::vector<std::string>& extra,
                 const std::string& log_path);

/// SIGTERM, wait for the drain (SIGKILL after 10 s), reap.
void StopSurfd(Surfd* surfd);

/// Stops every surfd still registered (also run from Die and on signals).
void StopAllSurfds();

/// Installs SIGINT/SIGTERM/SIGHUP handlers that kill spawned surfds.
void InstallSignalCleanup();

// --------------------------------------------------------------- metrics

/// Prometheus text exposition → {"name{labels}" → value}.
using MetricMap = std::map<std::string, double>;
MetricMap Scrape(uint16_t port);
/// after[key] - before[key] (absent keys read as 0).
double Delta(const MetricMap& before, const MetricMap& after,
             const std::string& key);

// ------------------------------------------------------------ statistics

double Median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] of unsorted values.
double Quantile(std::vector<double> values, double q);

/// The highest percentile of `values` with at least `beyond` samples
/// above it (the smallest sample when there are not that many).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t beyond = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values, size_t beyond);

/// splitmix64: the one seeded sequence every input of a run derives from.
class SeedSequence {
 public:
  explicit SeedSequence(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
