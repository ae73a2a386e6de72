// qmatchd: the QMatch network daemon — one MatchEngine behind an epoll
// event loop speaking the frame protocol of DESIGN.md §14, with the
// high-availability roles of §15.
//
// Usage:
//   qmatchd [options]
//     --port <p>               listen port (default 7433; 0 = ephemeral)
//     --bind <addr>            bind address (default 127.0.0.1)
//     --workers <n>            request worker threads (default 2, max 1024)
//     --threads <n>            engine match threads (default: hardware,
//                              max 1024)
//     --cache <n>              result cache capacity (default 128)
//     --admission-cost <c>     admission max inflight cost (0 = off)
//     --queue-depth <n>        admission queue depth (default 16)
//     --max-deadline-ms <ms>   clamp ceiling on client deadlines
//     --default-deadline-ms <ms>  deadline for requests that send 0
//     --idle-timeout-ms <ms>   close idle connections (0 = never)
//     --max-connections <n>    accept cap (default 256)
//     --preload <dir>          register every .xsd file in <dir> at boot
//     --persist <dir>          engine warm-start/persistence directory
//     --role <primary|standby> serving role (default primary)
//     --replicate-from <host:port>  primary to stream from (standby only)
//     --peer <host:port>       HA peer probed for a higher fencing epoch
//                              (default: --replicate-from; the probe is
//                              what self-demotes a partitioned primary)
//     --drain-deadline-ms <ms> SIGTERM graceful-drain bound (default 5000)
//     --ready-lag <n>          standby /readyz lag bound in records
//     --replica-log <n>        primary replication log capacity
//
// HTTP on the same port: GET /metrics (Prometheus), /healthz (alive),
// /readyz (200 only when this node should take traffic).
//
// The fencing epoch (DESIGN.md §16) is persisted in the --persist
// directory (epoch.qme): a promotion bumps it on disk before the role
// flips, so a restarted daemon can never serve at an epoch it ceded.
//
// SIGTERM drains gracefully: stop accepting, finish in-flight requests
// within --drain-deadline-ms, flush/compact the persist journal, exit.
// SIGINT stops immediately (journal still flushed). SIGUSR1 promotes a
// standby to primary in place — unless a drain/stop is already pending:
// drain wins, a draining daemon is never resurrected as primary. Exit
// code: 0 on clean stop, 1 on bad input, 2 on usage error (an unknown
// flag, or a numeric flag whose value is not a whole non-negative integer
// in range).

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "common/file_util.h"
#include "core/engine.h"
#include "net/server.h"
#include "replica/log.h"
#include "replica/primary.h"
#include "replica/standby.h"

namespace {

using namespace qmatch;

int Usage() {
  std::fprintf(
      stderr,
      "usage: qmatchd [--port <p>] [--bind <addr>] [--workers <n>]\n"
      "  [--threads <n>] [--cache <n>] [--admission-cost <c>]\n"
      "  [--queue-depth <n>] [--max-deadline-ms <ms>]\n"
      "  [--default-deadline-ms <ms>] [--idle-timeout-ms <ms>]\n"
      "  [--max-connections <n>] [--preload <dir>] [--persist <dir>]\n"
      "  [--role primary|standby] [--replicate-from <host:port>]\n"
      "  [--peer <host:port>] [--drain-deadline-ms <ms>] [--ready-lag <n>]\n"
      "  [--replica-log <n>]\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;   // SIGINT: stop now
volatile std::sig_atomic_t g_drain = 0;  // SIGTERM: drain, then stop
volatile std::sig_atomic_t g_promote = 0;  // SIGUSR1: standby -> primary

void HandleInt(int) { g_stop = 1; }
void HandleTerm(int) { g_drain = 1; }
void HandlePromote(int) { g_promote = 1; }

int PreloadSchemas(net::Server& server, const std::string& dir) {
  int loaded = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".xsd") {
      continue;
    }
    Result<std::string> text = ReadFile(entry.path().string());
    if (!text.ok()) {
      std::fprintf(stderr, "qmatchd: %s: %s\n", entry.path().c_str(),
                   text.status().ToString().c_str());
      return -1;
    }
    const std::string name = entry.path().stem().string();
    const Status status = server.RegisterSchema(name, *text).status();
    if (!status.ok()) {
      std::fprintf(stderr, "qmatchd: %s: %s\n", entry.path().c_str(),
                   status.ToString().c_str());
      return -1;
    }
    ++loaded;
  }
  if (ec) {
    std::fprintf(stderr, "qmatchd: cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return -1;
  }
  return loaded;
}

/// Upper bound of --threads and --workers: a thread count past it is a
/// typo, not a deployment.
constexpr uint64_t kMaxThreads = 1024;
/// Upper bound of every *-ms flag: what std::chrono::milliseconds holds.
constexpr uint64_t kMaxMillis = INT64_MAX;

std::chrono::milliseconds Millis(uint64_t ms) {
  return std::chrono::milliseconds(static_cast<int64_t>(ms));
}

/// Parses the whole of `text` as a decimal integer in [0, max]. A sign,
/// whitespace, a trailing character, an empty token or a value past `max`
/// is rejected.
bool ParseNumber(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string_view digits = std::string_view(spec).substr(colon + 1);
  uint64_t parsed = 0;
  if (!ParseNumber(digits, 65535, &parsed) || parsed == 0) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  core::MatchEngineOptions engine_options;
  net::ServerOptions server_options;
  server_options.port = 7433;
  std::string preload_dir;
  std::string replicate_from;
  std::string peer_spec;
  std::chrono::milliseconds drain_deadline(5000);
  size_t replica_log_capacity = 8192;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    // A numeric flag's value lands in `n`; a malformed or out-of-range one
    // falls through to Usage() before any engine or thread is built.
    uint64_t n = 0;
    auto number = [&](uint64_t max) {
      const char* text = next();
      return text != nullptr && ParseNumber(text, max, &n);
    };
    if (arg == "--port" && number(65535)) {
      server_options.port = static_cast<uint16_t>(n);
    } else if (arg == "--bind" && (v = next()) != nullptr) {
      server_options.bind_address = v;
    } else if (arg == "--workers" && number(kMaxThreads)) {
      server_options.request_threads = static_cast<size_t>(n);
    } else if (arg == "--threads" && number(kMaxThreads)) {
      engine_options.threads = static_cast<size_t>(n);
    } else if (arg == "--cache" && number(SIZE_MAX)) {
      engine_options.cache_capacity = static_cast<size_t>(n);
    } else if (arg == "--admission-cost" && number(UINT64_MAX)) {
      engine_options.overload.admission.max_inflight_cost = n;
    } else if (arg == "--queue-depth" && number(SIZE_MAX)) {
      engine_options.overload.admission.max_queue_depth =
          static_cast<size_t>(n);
    } else if (arg == "--max-deadline-ms" && number(kMaxMillis)) {
      server_options.max_deadline = Millis(n);
    } else if (arg == "--default-deadline-ms" && number(kMaxMillis)) {
      server_options.default_deadline = Millis(n);
    } else if (arg == "--idle-timeout-ms" && number(kMaxMillis)) {
      server_options.idle_timeout = Millis(n);
    } else if (arg == "--max-connections" && number(SIZE_MAX)) {
      server_options.max_connections = static_cast<size_t>(n);
    } else if (arg == "--preload" && (v = next()) != nullptr) {
      preload_dir = v;
    } else if (arg == "--persist" && (v = next()) != nullptr) {
      engine_options.persist_dir = v;
    } else if (arg == "--role" && (v = next()) != nullptr) {
      if (std::strcmp(v, "primary") == 0) {
        server_options.role = net::Role::kPrimary;
      } else if (std::strcmp(v, "standby") == 0) {
        server_options.role = net::Role::kStandby;
      } else {
        return Usage();
      }
    } else if (arg == "--replicate-from" && (v = next()) != nullptr) {
      replicate_from = v;
    } else if (arg == "--peer" && (v = next()) != nullptr) {
      peer_spec = v;
    } else if (arg == "--drain-deadline-ms" && number(kMaxMillis)) {
      drain_deadline = Millis(n);
    } else if (arg == "--ready-lag" && number(UINT64_MAX)) {
      server_options.ready_lag_records = n;
    } else if (arg == "--replica-log" && number(SIZE_MAX)) {
      replica_log_capacity = static_cast<size_t>(n);
    } else {
      return Usage();
    }
  }
  const bool standby = server_options.role == net::Role::kStandby;
  if (standby && replicate_from.empty()) {
    std::fprintf(stderr, "qmatchd: --role standby needs --replicate-from\n");
    return Usage();
  }
  // The fencing epoch lives next to the engine's persist state; a standby's
  // primary doubles as its probe peer unless --peer overrides.
  server_options.epoch_dir = engine_options.persist_dir;
  if (peer_spec.empty()) peer_spec = replicate_from;
  if (!peer_spec.empty() &&
      !ParseHostPort(peer_spec, &server_options.peer_host,
                     &server_options.peer_port)) {
    std::fprintf(stderr, "qmatchd: unparseable --peer %s\n",
                 peer_spec.c_str());
    return Usage();
  }

  core::MatchEngine engine(engine_options);
  // Every daemon owns a replication log, whatever role it starts in: a
  // primary ships every durable mutation into it, and a standby needs it
  // the moment a promotion makes it the anchor for the healed old
  // primary. Applied replicated records never echo back into the log, so
  // a standby's log stays quiet until it is promoted. AttachPrimary sets
  // the role to primary; flip it back for a --role standby start.
  replica::ReplicationLog replication_log(replica_log_capacity);
  replica::AttachPrimary(&engine, &server_options, &replication_log);
  if (standby) server_options.role = net::Role::kStandby;
  net::Server server(&engine, server_options);

  if (!preload_dir.empty()) {
    const int loaded = PreloadSchemas(server, preload_dir);
    if (loaded < 0) return 1;
    std::printf("qmatchd: preloaded %d schema(s) from %s\n", loaded,
                preload_dir.c_str());
  }

  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "qmatchd: %s\n", started.ToString().c_str());
    return 1;
  }

  std::unique_ptr<replica::Standby> standby_stream;
  if (standby) {
    replica::StandbyOptions standby_options;
    if (!ParseHostPort(replicate_from, &standby_options.primary_host,
                       &standby_options.primary_port)) {
      std::fprintf(stderr, "qmatchd: unparseable --replicate-from %s\n",
                   replicate_from.c_str());
      return 1;
    }
    standby_stream =
        std::make_unique<replica::Standby>(&engine, &server, standby_options);
    const Status streaming = standby_stream->Start();
    if (!streaming.ok()) {
      std::fprintf(stderr, "qmatchd: %s\n", streaming.ToString().c_str());
      return 1;
    }
  }

  std::printf("qmatchd: %s listening on %s:%u (%zu workers)%s%s\n",
              std::string(net::RoleName(server.role())).c_str(),
              server_options.bind_address.c_str(), server.port(),
              server_options.request_threads,
              standby ? ", replicating from " : "",
              standby ? replicate_from.c_str() : "");
  std::fflush(stdout);

  std::signal(SIGINT, HandleInt);
  std::signal(SIGTERM, HandleTerm);
  std::signal(SIGUSR1, HandlePromote);
  while (true) {
    // Order matters: a pending drain/stop is honoured BEFORE a pending
    // promote, so a SIGUSR1 racing a SIGTERM can never resurrect a
    // draining daemon as primary. (Server::SetRole additionally refuses to
    // leave kDraining — this check just makes the common race quiet.)
    if (g_stop != 0 || g_drain != 0) break;
    if (g_promote != 0) {
      g_promote = 0;
      if (standby_stream != nullptr) {
        standby_stream->Promote();
        std::printf("qmatchd: promoted to primary (epoch %llu)\n",
                    static_cast<unsigned long long>(server.epoch()));
        std::fflush(stdout);
      }
    }
    // A primary that fenced and self-demoted (a peer probe or subscriber
    // showed it a higher epoch) re-joins as a standby of the winner: the
    // stream's first subscribe carries the stale epoch, the winner's typed
    // rejection names the new one, and the stream adopts it and re-anchors.
    if (!standby && standby_stream == nullptr &&
        server.role() == net::Role::kStandby &&
        server_options.peer_port != 0) {
      replica::StandbyOptions rejoin_options;
      rejoin_options.primary_host = server_options.peer_host;
      rejoin_options.primary_port = server_options.peer_port;
      standby_stream = std::make_unique<replica::Standby>(&engine, &server,
                                                          rejoin_options);
      const Status rejoining = standby_stream->Start();
      if (rejoining.ok()) {
        std::printf("qmatchd: demoted; re-joining as standby of %s:%u\n",
                    rejoin_options.primary_host.c_str(),
                    rejoin_options.primary_port);
      } else {
        std::fprintf(stderr, "qmatchd: re-join: %s\n",
                     rejoining.ToString().c_str());
        standby_stream.reset();
      }
      std::fflush(stdout);
    }
    timespec ts{0, 100000000};  // 100ms
    nanosleep(&ts, nullptr);
  }

  if (standby_stream != nullptr) standby_stream->Stop();
  if (g_drain != 0) {
    // Graceful drain: refuse new work typed, finish what is in flight,
    // then make everything the engine learned durable BEFORE exiting —
    // the restart (or the standby taking over) must not replay a torn
    // journal tail.
    std::printf("qmatchd: draining (deadline %lld ms)\n",
                static_cast<long long>(drain_deadline.count()));
    std::fflush(stdout);
    const Status drained = server.Drain(drain_deadline);
    if (!drained.ok()) {
      std::fprintf(stderr, "qmatchd: drain: %s\n",
                   drained.ToString().c_str());
    }
  }
  std::printf("qmatchd: stopping\n");
  server.Stop();
  const Status compacted = engine.CompactPersist();
  if (!compacted.ok()) {
    std::fprintf(stderr, "qmatchd: compact: %s\n",
                 compacted.ToString().c_str());
  }
  const net::ServerStats stats = server.stats();
  std::printf("qmatchd: served %llu request(s) on %llu connection(s)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.accepted));
  return 0;
}
