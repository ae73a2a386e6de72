#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/string_util.h"

extern char** environ;

namespace qmbench {

using qmatch::Result;
using qmatch::Status;

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  // splitmix64 over a combination of the three inputs.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               index * 0x8CB92BA72F3D8DD7ULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(values[hi])) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- Daemon -----------------------------------------------------------------

Result<std::unique_ptr<Daemon>> Daemon::Launch(const std::string& binary,
                                               const std::string& persist_dir) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<std::string> args = {binary,      "--port",    "0",
                                   "--workers", "2",         "--threads",
                                   "2",         "--cache",   "128",
                                   "--persist", persist_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return Status::IoError("spawn " + binary + ": " + std::strerror(rc));
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, fds[0]));
  if (!daemon->ReadUntil(" (", 30000)) {
    return Status::IoError("qmatchd did not report a listening port: " +
                           daemon->out_);
  }
  const size_t at = daemon->out_.find("listening on ");
  const size_t colon =
      at == std::string::npos ? at : daemon->out_.find(':', at);
  if (colon == std::string::npos) {
    return Status::IoError("unexpected qmatchd banner: " + daemon->out_);
  }
  daemon->port_ =
      static_cast<uint16_t>(std::atoi(daemon->out_.c_str() + colon + 1));
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Daemon::ReadUntil(const std::string& needle, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (out_.find(needle) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;  // EOF: the daemon exited
    out_.append(buf, static_cast<size_t>(n));
  }
  return true;
}

namespace {

std::string ReadProcFile(pid_t pid, const char* leaf) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + leaf);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

double Daemon::CpuMs() const {
  const std::string stat = ReadProcFile(pid_, "stat");
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::PeakRssMb() const {
  const std::string status = ReadProcFile(pid_, "status");
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

Result<uint64_t> Daemon::Drain() {
  if (::kill(pid_, SIGTERM) != 0) {
    return Status::IoError(std::string("kill: ") + std::strerror(errno));
  }
  const bool served = ReadUntil("request(s)", 60000);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (!served || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("qmatchd did not drain cleanly: " + out_);
  }
  const size_t at = out_.find("served ");
  return static_cast<uint64_t>(
      std::strtoull(out_.c_str() + at + 7, nullptr, 10));
}

// --- Tally ------------------------------------------------------------------

void Tally::Add(Outcome outcome, const std::string& typed_code) {
  ++sent;
  switch (outcome) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kTyped: ++typed[typed_code]; break;
    case Outcome::kTransport: ++transport; break;
    case Outcome::kWrong: ++wrong; break;
  }
}

void Tally::Merge(const Tally& other) {
  sent += other.sent;
  ok += other.ok;
  transport += other.transport;
  wrong += other.wrong;
  for (const auto& [code, n] : other.typed) typed[code] += n;
}

uint64_t Tally::failed() const {
  uint64_t n = transport + wrong;
  for (const auto& [code, count] : typed) n += count;
  return n;
}

std::string Tally::ToString() const {
  std::string out = qmatch::StrFormat(
      "sent=%llu ok=%llu failed=%llu (transport=%llu wrong_answer=%llu",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(failed()),
      static_cast<unsigned long long>(transport),
      static_cast<unsigned long long>(wrong));
  for (const auto& [code, n] : typed) {
    out += qmatch::StrFormat(" %s=%llu", code.c_str(),
                             static_cast<unsigned long long>(n));
  }
  return out + ")";
}

// --- Link -------------------------------------------------------------------

Result<Link> Link::Connect(uint16_t port) {
  Result<qmatch::net::Client> client = qmatch::net::Client::Connect(
      "127.0.0.1", port, std::chrono::milliseconds(120000));
  if (!client.ok()) return client.status();
  Link link;
  link.client_ = std::move(*client);
  return link;
}

Result<qmatch::net::SubmitSchemaResp> Link::SubmitSchema(
    const std::string& name, const std::string& xsd) {
  ++calls_;
  return client_.SubmitSchema(name, xsd);
}

Result<qmatch::net::MatchPairResp> Link::MatchPair(const std::string& source,
                                                   const std::string& target) {
  ++calls_;
  return client_.MatchPair(source, target);
}

Result<qmatch::net::MatchCorpusResp> Link::MatchCorpus(
    const std::string& query) {
  ++calls_;
  return client_.MatchCorpus(query);
}

Result<qmatch::net::StatsResp> Link::GetStats() {
  ++calls_;
  return client_.GetStats();
}

Result<std::map<std::string, double>> Link::Scrape() {
  ++calls_;
  Result<qmatch::net::MetricsResp> resp = client_.GetMetrics();
  if (!resp.ok()) return resp.status();
  if (!resp->head.ok()) return resp->head.ToStatus();
  std::map<std::string, double> values;
  std::istringstream lines(resp->prometheus_text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return values;
}

// --- SpanLog ----------------------------------------------------------------

void SpanLog::Add(std::string name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t op_id, uint32_t tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ns, end_ns, op_id, tid});
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanLog::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += qmatch::StrFormat(
        " {\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
        "\"args\": {\"op\": %llu}}",
        s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
        static_cast<unsigned long long>(s.op_id));
  }
  out += "\n]}\n";
  return out;
}

}  // namespace qmbench
