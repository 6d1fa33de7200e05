#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& reason) {
  std::fprintf(stderr, "perfbench: %s\n", reason.c_str());
  StopAllSurfds();
  std::exit(1);
}

// ------------------------------------------------------------------ HTTP

std::string Wire(const std::string& method, const std::string& path,
                 const std::string& body, const Headers& headers) {
  std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  return wire;
}

bool Connection::Connect(uint16_t port, double timeout_seconds) {
  Close();
  port_ = port;
  timeout_seconds_ = timeout_seconds;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_seconds);
  timeout.tv_usec = static_cast<suseconds_t>(
      (timeout_seconds - std::floor(timeout_seconds)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return false;
  }
  return true;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::Fill() {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

HttpReply Connection::Send(const std::string& wire) {
  HttpReply reply;
  if (fd_ < 0 && !Connect(port_, timeout_seconds_)) return reply;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  size_t head_end = std::string::npos;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill()) {
      Close();
      return reply;
    }
  }
  std::string head = buffer_.substr(0, head_end);
  for (char& c : head) c = static_cast<char>(std::tolower(c));
  if (head.size() < 12 || head.compare(0, 5, "http/") != 0) {
    Close();
    return reply;
  }
  const int status = std::atoi(head.c_str() + 9);
  size_t content_length = 0;
  const size_t cl = head.find("\r\ncontent-length:");
  if (cl != std::string::npos) {
    content_length = static_cast<size_t>(
        std::strtoull(head.c_str() + cl + 17, nullptr, 10));
  }
  const bool close_after =
      head.find("\r\nconnection: close") != std::string::npos;
  const size_t body_start = head_end + 4;
  while (buffer_.size() < body_start + content_length) {
    if (!Fill()) {
      Close();
      return reply;
    }
  }
  reply.status = status;
  reply.body = buffer_.substr(body_start, content_length);
  buffer_.erase(0, body_start + content_length);
  if (close_after) Close();
  return reply;
}

HttpReply Call(uint16_t port, const std::string& wire,
               double timeout_seconds) {
  Connection connection;
  if (!connection.Connect(port, timeout_seconds)) return {};
  return connection.Send(wire);
}

// ------------------------------------------------------------- processes

namespace {

constexpr int kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  Die("too many surfd processes");
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void OnSignal(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

}  // namespace

void InstallSignalCleanup() {
  struct sigaction action{};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGHUP, &action, nullptr);
}

ProcSample ReadProc(pid_t pid) {
  ProcSample sample;
  {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(stat, line);
    const size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(line.substr(close + 2));
      std::string field;
      double utime = 0.0, stime = 0.0;
      // Fields after the command name start at field 3 (state); utime
      // and stime are fields 14 and 15.
      for (int index = 3; index <= 15 && (fields >> field); ++index) {
        if (index == 14) utime = std::atof(field.c_str());
        if (index == 15) stime = std::atof(field.c_str());
      }
      sample.cpu_seconds =
          (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample.hwm_mb = std::atof(line.c_str() + 6) / 1024.0;
      break;
    }
  }
  return sample;
}

Surfd SpawnSurfd(const std::string& cli, const std::vector<std::string>& extra,
                 const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) Die("pipe failed");
  std::vector<std::string> args = {cli, "serve", "--port", "0"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // A surfd must never outlive the benchmark that measures it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    ::setenv("SURF_LOG_LEVEL", "warn", 1);
    ::execv(cli.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  Register(pid);

  Surfd surfd;
  surfd.pid = pid;
  surfd.stdout_fd = pipe_fds[0];
  std::string out;
  const double deadline = Now() + 60.0;
  while (surfd.port == 0) {
    const double left = deadline - Now();
    pollfd pfd{surfd.stdout_fd, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      Die("surfd did not start listening (see " + log_path + ")");
    }
    char chunk[4096];
    const ssize_t n = ::read(surfd.stdout_fd, chunk, sizeof(chunk));
    if (n <= 0) Die("surfd exited during start-up (see " + log_path + ")");
    out.append(chunk, static_cast<size_t>(n));
    const size_t at = out.find("listening on http://");
    const size_t eol = at == std::string::npos ? at : out.find('\n', at);
    if (eol != std::string::npos) {
      const size_t colon = out.rfind(':', eol);
      surfd.port = static_cast<uint16_t>(std::atoi(out.c_str() + colon + 1));
      if (surfd.port == 0) Die("cannot parse surfd port from: " + out);
    }
  }
  return surfd;
}

void StopSurfd(Surfd* surfd) {
  if (surfd->pid <= 0) return;
  ::kill(surfd->pid, SIGTERM);
  const double deadline = Now() + 10.0;
  int status = 0;
  while (::waitpid(surfd->pid, &status, WNOHANG) == 0) {
    if (Now() > deadline) {
      ::kill(surfd->pid, SIGKILL);
      ::waitpid(surfd->pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Unregister(surfd->pid);
  if (surfd->stdout_fd >= 0) ::close(surfd->stdout_fd);
  surfd->pid = -1;
  surfd->stdout_fd = -1;
}

void StopAllSurfds() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid <= 0) continue;
    Surfd surfd;
    surfd.pid = pid;
    StopSurfd(&surfd);
  }
}

// --------------------------------------------------------------- metrics

MetricMap Scrape(uint16_t port) {
  const HttpReply reply = Call(port, Wire("GET", "/metrics", ""), 30.0);
  if (reply.status != 200) Die("GET /metrics failed");
  MetricMap metrics;
  std::istringstream lines(reply.body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    metrics[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return metrics;
}

double Delta(const MetricMap& before, const MetricMap& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Tail TailOf(std::vector<double> values, size_t beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Without enough samples no percentile qualifies; the smallest sample
  // keeps the figure continuous with n = beyond + 1.
  const size_t k = n > beyond ? n - 1 - beyond : 0;
  tail.value = values[k];
  tail.beyond = n - 1 - k;
  tail.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return tail;
}

uint64_t SeedSequence::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeedSequence::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double SeedSequence::Exponential(double mean) {
  return -mean * std::log(1.0 - Uniform());
}

}  // namespace perfbench
