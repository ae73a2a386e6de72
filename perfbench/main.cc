// qmbench: the served-path benchmark program for qmatchd.
//
//   qmbench --workload <cold_protein|warm_mixed|corpus_query> --seed <n>
//           --seconds <s> --trace <0|1> --qmatchd <binary> --data <dir>
//           --work-dir <dir> [--trace-out <file>]
//
// Launches qmatchd as a child process, drives it over loopback with the
// binary protocol (net::Client), checks every answer against an in-process
// reference and prints, as its last stdout line, one JSON object with
// "correct", "attempted", "failed" and "metrics". --trace 0 reports the
// end-to-end metrics; --trace 1 is the separate traced run that reports
// the per-layer metrics, prints a self-time table and writes the span log
// as Chrome trace_event JSON. perfbench/run.py builds and runs this.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "workloads.h"

namespace qmbench {
namespace {

using qmatch::Result;
using qmatch::StrFormat;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string qmatchd;
  std::string data_dir = "data";
  std::string work_dir = ".bench_build/run";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--qmatchd") {
      args->qmatchd = value;
    } else if (key == "--data") {
      args->data_dir = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->qmatchd.empty() &&
         args->seconds > 0.0;
}

// --- one measured phase -----------------------------------------------------

struct Sample {
  uint64_t index = 0;
  double latency_ms = 0.0;
  bool ok = false;
};

struct Phase {
  std::vector<std::vector<Sample>> samples;  ///< per connection
  Tally tally;
  double seconds = 0.0;
  double cpu_ms = 0.0;  ///< daemon utime + stime over the phase
  std::map<std::string, double> before;  ///< /metrics scrapes around it
  std::map<std::string, double> after;

  uint64_t ops() const { return tally.sent; }
  double Delta(const std::string& name) const {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  }
  /// Latencies with every failed operation at +inf: a failure misses every
  /// latency target.
  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (const auto& conn : samples) {
      for (const Sample& s : conn) {
        out.push_back(s.ok ? s.latency_ms
                           : std::numeric_limits<double>::infinity());
      }
    }
    return out;
  }
};

std::map<std::string, double> ScrapeOrThrow(Link& link) {
  Result<std::map<std::string, double>> values = link.Scrape();
  if (!values.ok()) {
    throw std::runtime_error("metrics scrape: " + values.status().ToString());
  }
  return *values;
}

/// Closed loop on every connection until `seconds` elapse (or the workload
/// runs out of fresh operations). With `log`, each operation is recorded as
/// an "op" span and its layer calls are replayed in-process right after.
Phase RunPhase(Workload& workload, Daemon& daemon, std::vector<Link>& links,
               std::vector<uint64_t>& next, double seconds, SpanLog* log) {
  Phase phase;
  const size_t conns = links.size();
  phase.samples.resize(conns);
  std::vector<Tally> tallies(conns);
  std::vector<std::exception_ptr> errors(conns);
  phase.before = ScrapeOrThrow(links[0]);
  const double cpu_start = daemon.CpuMs();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto loop = [&](size_t c) {
    try {
      const uint32_t tid = static_cast<uint32_t>(c + 1);
      while (Clock::now() < end && workload.HasOp(next[c])) {
        const uint64_t index = next[c]++;
        double latency_ms = 0.0;
        std::string code;
        const uint64_t op_start = NowNs();
        const Outcome outcome =
            workload.RunOp(c, index, links[c], &latency_ms, &code);
        const uint64_t op_end = NowNs();
        tallies[c].Add(outcome, code);
        phase.samples[c].push_back(
            Sample{index, latency_ms, outcome == Outcome::kOk});
        if (log != nullptr) {
          const uint64_t op_id = (uint64_t{c} << 40) | index;
          log->Add("op", op_start, op_end, op_id, tid);
          if (outcome == Outcome::kOk) workload.Replay(c, index, op_id, tid, log);
        }
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < conns; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();
  phase.seconds = MsBetween(start, Clock::now()) / 1000.0;
  phase.cpu_ms = daemon.CpuMs() - cpu_start;
  phase.after = ScrapeOrThrow(links[0]);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const Tally& t : tallies) phase.tally.Merge(t);
  return phase;
}

/// Moves the operations Verify found wrong from "ok" to "wrong answer".
void MarkWrong(const Verdict& verdict, std::vector<Phase*> phases) {
  for (const auto& [conn, index] : verdict.wrong_ops) {
    for (Phase* phase : phases) {
      for (Sample& s : phase->samples[conn]) {
        if (s.index != index || !s.ok) continue;
        s.ok = false;
        --phase->tally.ok;
        ++phase->tally.wrong;
      }
    }
  }
}

// --- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< sample count / base, printed in the table only
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; a failed run's latency saturates instead.
    const double value = std::min(metrics[i].value, 1e300);
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                     metrics[i].unit.c_str());
  }
  return out + "}}";
}

std::vector<Metric> EndToEnd(const Phase& phase,
                             const std::vector<double>& setup_s,
                             double peak_rss_mb) {
  const std::vector<double> latencies = phase.Latencies();
  const size_t n = latencies.size();
  const size_t beyond_p90 =
      n - std::min(n, static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n))));
  if (beyond_p90 < 10) {
    throw std::runtime_error(StrFormat(
        "only %zu samples: p90 needs at least 10 beyond it", n));
  }
  const double ops = static_cast<double>(phase.ops());
  const std::string samples = StrFormat("(n=%zu samples)", n);
  return {
      {"setup_s", "s", Quantile(setup_s, 0.5),
       StrFormat("(median of %zu set-ups)", setup_s.size())},
      {"latency_p50_ms", "ms", Quantile(latencies, 0.5), samples},
      {"latency_p90_ms", "ms", Quantile(latencies, 0.9),
       StrFormat("(n=%zu, %zu beyond)", n, beyond_p90)},
      {"throughput_ops", "1/s",
       static_cast<double>(phase.tally.ok) / phase.seconds,
       StrFormat("(%llu ok ops in %.3f s, closed loop)",
                 static_cast<unsigned long long>(phase.tally.ok),
                 phase.seconds)},
      {"cpu_ms_per_op", "ms", phase.cpu_ms / ops,
       StrFormat("(daemon utime+stime %.0f ms / %.0f ops)", phase.cpu_ms,
                 ops)},
      {"peak_rss_mb", "MiB", peak_rss_mb, "(daemon VmHWM)"},
  };
}

/// Per-layer metrics of the traced phase, plus the self-time table.
std::vector<Metric> PerLayer(const Phase& untraced, const Phase& traced,
                             const SpanLog& log, const ReplayCounts& counts,
                             double floor_us) {
  const double ops = static_cast<double>(traced.ops());
  std::map<std::string, double> ms;  // layer -> total ms over traced ops
  for (const SpanLog::Span& s : log.spans()) {
    ms[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  auto per_op = [&](const std::string& name) { return ms[name] / ops; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const double op_ms = per_op("op");
  const double server_ms = traced.Delta("net_request_ns_sum") / 1e6 / ops;
  const double overhead_ms = op_ms - server_ms;
  const double parse = per_op("xsd.parse");
  const double flatten = per_op("xsd.flatten");
  const double fingerprint = per_op("xsd.fingerprint");
  const double engine = per_op("engine.match");
  const double analyze = per_op("core.analyze");
  const double fill = per_op("match.fill");
  const double label = per_op("lingua.label_matrix");
  const double append = per_op("persist.append");
  const double hits = traced.Delta("engine_cache_hits");
  const double lookups = hits + traced.Delta("engine_cache_misses");
  const double unaccounted = server_ms - parse - flatten - engine - append;

  std::printf("\nself time per operation (ms; %.0f traced ops; the daemon's "
              "own time comes from /metrics, its layers are replayed "
              "in-process)\n",
              ops);
  std::printf("  %-30s %12s %12s\n", "layer", "total", "self");
  auto row = [](const char* name, double total, double self) {
    std::printf("  %-30s %12.4f %12.4f\n", name, total, self);
  };
  std::printf("  %-30s %12.4f %12s\n", "op (client RTT)", op_ms, "-");
  row("  net.overhead (RTT - server)", overhead_ms, overhead_ms);
  row("  net.server", server_ms, unaccounted);
  row("    xsd.parse", parse, parse);
  row("    xsd.flatten", flatten, flatten);
  row("    engine.match", engine, engine - fingerprint - analyze);
  row("      xsd.fingerprint", fingerprint, fingerprint);
  row("      core.analyze", analyze, analyze - fill);
  row("        match.fill", fill, fill - label);
  row("          lingua.label_matrix", label, label);
  row("    persist.append", append, append);
  std::printf("  unaccounted remainder: %.4f ms/op (%.1f%% of RTT) — daemon "
              "time no replayed layer covers\n",
              unaccounted, 100.0 * ratio(unaccounted, op_ms));

  const double traced_p50 = Quantile(traced.Latencies(), 0.5);
  const double untraced_p50 = Quantile(untraced.Latencies(), 0.5);
  std::printf("  tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f "
              "ms (x%.3f)\n",
              traced_p50, untraced_p50, ratio(traced_p50, untraced_p50));

  const std::string base = StrFormat("(per op, %.0f traced ops)", ops);
  return {
      {"net.server_ms", "ms", server_ms, base},
      {"net.overhead_us", "us", overhead_ms * 1e3, base},
      {"net.floor_us", "us", floor_us, "(median GetStats RTT)"},
      {"net.corpus_parallelism", "ratio", ratio(engine, server_ms),
       "(replayed engine.match / net.server)"},
      {"pool.task_wait_ms", "ms",
       ratio(traced.Delta("threadpool_task_wait_ns_sum"),
             traced.Delta("threadpool_task_wait_ns_count")) /
           1e6,
       StrFormat("(mean of %.0f tasks)",
                 traced.Delta("threadpool_task_wait_ns_count"))},
      {"engine.match_ms", "ms", engine, base},
      {"engine.cache_hit_ratio", "ratio", ratio(hits, lookups),
       StrFormat("(%.0f hits / %.0f lookups)", hits, lookups)},
      {"engine.cache_lookups", "count", lookups, "(daemon, traced phase)"},
      {"engine.rehydrate_ms", "ms", ratio(counts.rehydrate_ms, counts.hits),
       StrFormat("(per hit, %.0f hits)", counts.hits)},
      {"engine.rehydrated_per_op", "count",
       traced.Delta("engine_cache_rehydrated_correspondences") / ops, base},
      {"core.analyze_ms", "ms", analyze, base},
      {"core.select_ms", "ms", analyze - fill, base},
      {"match.fill_ms", "ms", fill, base},
      {"match.pairs_per_op", "count", counts.pairs / ops, base},
      {"lingua.label_matrix_ms", "ms", label, base},
      {"lingua.label_pairs", "count", counts.label_pairs / ops, base},
      {"lingua.label_none_share", "ratio",
       ratio(counts.label_none, counts.label_pairs),
       StrFormat("(of %.0f label pairs)", counts.label_pairs)},
      {"xsd.parse_ms", "ms", parse, base},
      {"xsd.flatten_ms", "ms", flatten, base},
      {"xsd.fingerprint_ms", "ms", fingerprint, base},
      {"persist.appends_per_op", "count",
       traced.Delta("persist_journal_appends") / ops, base},
      {"persist.append_ms", "ms", append, base},
      {"trace.latency_ratio", "ratio", ratio(traced_p50, untraced_p50),
       "(traced p50 / untraced p50)"},
  };
}

/// Each workload is built so that every measured request hits the engine
/// cache (warm_mixed) or every one misses (the others); the daemon's
/// counters over the phase must show exactly that.
bool CacheAsDesigned(const Phase& phase, bool all_hits, const char* label) {
  const double hits = phase.Delta("engine_cache_hits");
  const double misses = phase.Delta("engine_cache_misses");
  const bool ok = all_hits ? misses == 0.0 : hits == 0.0;
  std::printf("%s: engine cache %.0f hits, %.0f misses (designed: all %s)%s\n",
              label, hits, misses, all_hits ? "hits" : "misses",
              ok ? "" : "  <-- NOT AS DESIGNED");
  return ok;
}

/// Drains `daemon` and checks its served-request count against the calls
/// the benchmark made on `links`.
bool DrainAndCount(std::unique_ptr<Daemon>& daemon, std::vector<Link>& links,
                   const char* label) {
  uint64_t calls = 0;
  for (const Link& link : links) calls += link.calls();
  Result<uint64_t> served = daemon->Drain();
  daemon.reset();
  links.clear();
  if (!served.ok()) {
    std::fprintf(stderr, "qmbench: %s: %s\n", label,
                 served.status().ToString().c_str());
    return false;
  }
  std::printf("%s: daemon served %llu request(s), client sent %llu%s\n", label,
              static_cast<unsigned long long>(*served),
              static_cast<unsigned long long>(calls),
              *served == calls ? "" : "  <-- MISMATCH");
  return *served == calls;
}

int Run(const Args& args) {
  namespace fs = std::filesystem;
  fs::create_directories(args.work_dir);
  Env env;
  env.seed = args.seed;
  env.data_dir = args.data_dir;
  env.scratch_dir = args.work_dir;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, env);
  if (workload == nullptr) {
    std::fprintf(stderr, "qmbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %.1f s, %s run\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? "traced" : "untraced");

  // Set-up, repeated so setup_s can be a median: each round launches a
  // fresh daemon on a fresh persist directory, generates the inputs and
  // submits/primes them. All rounds but the last are drained; the last one
  // is measured. The traced run reports no setup_s and sets up once.
  bool correct = true;
  const size_t setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  Tally setup_tally;
  std::unique_ptr<Daemon> daemon;
  std::vector<Link> links;
  for (size_t round = 0; round < setups; ++round) {
    const std::string persist = args.work_dir + StrFormat("/persist-%zu", round);
    fs::remove_all(persist);
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<Daemon>> launched =
        Daemon::Launch(args.qmatchd, persist);
    if (!launched.ok()) throw std::runtime_error(launched.status().ToString());
    daemon = std::move(*launched);
    for (size_t c = 0; c < workload->connections(); ++c) {
      Result<Link> link = Link::Connect(daemon->port());
      if (!link.ok()) throw std::runtime_error(link.status().ToString());
      links.push_back(std::move(*link));
    }
    Tally tally;
    workload->Setup(links, &tally);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    setup_tally.Merge(tally);
    if (round + 1 < setups) {
      correct &= DrainAndCount(daemon, links, "set-up round");
      fs::remove_all(persist);
    }
  }

  std::vector<uint64_t> next(links.size(), 0);
  Phase measured;
  Phase traced;
  SpanLog log;
  double floor_us = 0.0;
  if (!args.trace) {
    measured = RunPhase(*workload, *daemon, links, next, args.seconds, nullptr);
  } else {
    // Half untraced (the tracing-overhead baseline), half traced.
    measured =
        RunPhase(*workload, *daemon, links, next, args.seconds / 2, nullptr);
    workload->PrepareReplay(env);
    traced = RunPhase(*workload, *daemon, links, next, args.seconds / 2, &log);
    std::vector<double> rtts;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point start = Clock::now();
      if (links[0].GetStats().ok()) {
        rtts.push_back(MsBetween(start, Clock::now()) * 1e3);
      }
    }
    floor_us = Quantile(rtts, 0.5);
  }

  correct &= CacheAsDesigned(measured, workload->all_hits(), "measured");
  if (args.trace) {
    correct &= CacheAsDesigned(traced, workload->all_hits(), "traced");
  }

  // Correctness: every answer against the in-process reference, outside
  // every timed window.
  qmatch::ThreadPool pool(3);
  const Verdict verdict = workload->Verify(&pool);
  MarkWrong(verdict, {&measured, &traced});
  if (!verdict.report.empty()) {
    std::fprintf(stderr, "qmbench: wrong answers:\n%s", verdict.report.c_str());
  }
  setup_tally.wrong += verdict.wrong_setup;
  setup_tally.ok -= std::min(setup_tally.ok, verdict.wrong_setup);

  const double peak_rss_mb = daemon->PeakRssMb();
  correct &= DrainAndCount(daemon, links, "measured daemon");

  Tally all = measured.tally;
  if (args.trace) all.Merge(traced.tally);
  std::printf("\nfailure accounting\n");
  std::printf("  setup    %s\n", setup_tally.ToString().c_str());
  std::printf("  measured %s\n", measured.tally.ToString().c_str());
  if (args.trace) std::printf("  traced   %s\n", traced.tally.ToString().c_str());
  std::printf("  error_rate %.6g (%llu failed / %llu attempted)\n",
              static_cast<double>(all.failed()) /
                  static_cast<double>(std::max<uint64_t>(1, all.sent)),
              static_cast<unsigned long long>(all.failed()),
              static_cast<unsigned long long>(all.sent));
  correct &= all.failed() == 0 && setup_tally.failed() == 0 && all.sent > 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEnd(measured, setup_s, peak_rss_mb);
    PrintMetrics("end-to-end", metrics);
  } else {
    metrics = PerLayer(measured, traced, log, workload->replay_counts(),
                       floor_us);
    PrintMetrics("per-layer", metrics);
    const std::string out =
        args.trace_out.empty()
            ? args.work_dir + "/trace_" + args.workload + ".json"
            : args.trace_out;
    const qmatch::Status written =
        qmatch::WriteFileAtomic(out, log.ChromeTraceJson());
    std::printf("span log: %zu spans -> %s (%s)\n", log.spans().size(),
                out.c_str(), written.ToString().c_str());
  }
  std::printf("%s\n",
              ResultJson(correct, std::max<uint64_t>(1, all.sent),
                         all.failed(), metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qmbench

int main(int argc, char** argv) {
  qmbench::Args args;
  if (!qmbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qmbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --qmatchd <binary> [--data <dir>] "
                 "[--work-dir <dir>] [--trace-out <file>]\n");
    return 2;
  }
  try {
    return qmbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qmbench: %s\n", e.what());
    return 1;
  }
}
