#include "net/resilient_client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/random.h"
#include "obs/obs.h"

namespace qmatch::net {

namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

}  // namespace

nanoseconds RetryBackoff(milliseconds base, milliseconds cap, uint64_t attempt,
                         uint64_t seed) {
  if (base.count() <= 0) return nanoseconds(0);
  // min(base * 2^attempt, cap), with the shift clamped so it cannot
  // overflow before the cap comparison gets a say.
  const uint64_t shift = std::min<uint64_t>(attempt, 20);
  int64_t span_ms = base.count() << shift;
  if (span_ms <= 0 || (cap.count() > 0 && span_ms > cap.count())) {
    span_ms = cap.count() > 0 ? cap.count() : base.count();
  }
  // Jitter to [span/2, span]: decorrelates a thundering herd while keeping
  // the schedule fully reproducible from (seed, attempt).
  Random jitter(seed ^ (kGolden * (attempt + 1)));
  const int64_t span_ns = span_ms * 1'000'000;
  return nanoseconds(span_ns / 2 +
                     static_cast<int64_t>(jitter.Uniform(
                         static_cast<uint64_t>(span_ns / 2) + 1)));
}

ResilientClient::ResilientClient(ResilientClientOptions options)
    : options_(std::move(options)),
      endpoint_epochs_(options_.endpoints.size(), 0) {}

void ResilientClient::NoteEpoch(size_t endpoint, const ResponseHead& head) {
  if (head.epoch != 0 && endpoint < endpoint_epochs_.size()) {
    endpoint_epochs_[endpoint] = head.epoch;
    max_epoch_ = std::max(max_epoch_, head.epoch);
  }
  // A fenced server's refusal names the epoch that beat it — higher than
  // anything in its own head. "winner_epoch=<N>" is part of the
  // stale_epoch message contract (net::Server::DispatchFrame).
  static constexpr std::string_view kWinnerKey = "winner_epoch=";
  const size_t at = head.message.find(kWinnerKey);
  if (at != std::string::npos) {
    uint64_t winner = 0;
    for (size_t i = at + kWinnerKey.size(); i < head.message.size(); ++i) {
      const char c = head.message[i];
      if (c < '0' || c > '9') break;
      winner = winner * 10 + static_cast<uint64_t>(c - '0');
    }
    max_epoch_ = std::max(max_epoch_, winner);
  }
}

void ResilientClient::Failover() {
  if (options_.endpoints.empty()) return;
  const size_t n = options_.endpoints.size();
  size_t next = (endpoint_index_ + 1) % n;  // plain rotation fallback
  // First choice: an endpoint KNOWN to hold the highest epoch seen (the
  // new primary, once it has answered anything). Second choice: the next
  // endpoint not known to be stale — an unanswered endpoint (epoch 0) may
  // BE the new primary. Known-stale endpoints are never failed back to
  // while a fresher one exists; if every endpoint is stale (heal in
  // progress) plain rotation wins — availability over precision.
  bool chosen = false;
  if (max_epoch_ > 0) {
    for (size_t step = 0; step < n && !chosen; ++step) {
      const size_t cand = (endpoint_index_ + 1 + step) % n;
      if (cand != endpoint_index_ && endpoint_epochs_[cand] == max_epoch_) {
        next = cand;
        chosen = true;
      }
    }
  }
  for (size_t step = 0; step < n && !chosen; ++step) {
    const size_t cand = (endpoint_index_ + 1 + step) % n;
    const uint64_t known = endpoint_epochs_[cand];
    if (known == 0 || known >= max_epoch_) {
      next = cand;
      chosen = true;
    } else {
      ++stats_.stale_endpoint_skips;
      QMATCH_COUNTER_ADD("client.stale_endpoint_skips", 1);
    }
  }
  endpoint_index_ = next;
  ++stats_.failovers;
  QMATCH_COUNTER_ADD("client.failovers", 1);
}

template <class Req>
Result<typename Req::Response> ResilientClient::CallRetry(const Req& req,
                                                          bool idempotent) {
  if (options_.endpoints.empty()) {
    return Status::Unavailable("no endpoints configured");
  }
  const bool bounded = options_.call_deadline.count() > 0;
  const steady_clock::time_point deadline_tp =
      steady_clock::now() + options_.call_deadline;
  Status last_error = Status::Unavailable("retry budget was zero attempts");
  const std::string frame_bytes = EncodeFrame(Req::kType, Encode(req));
  const size_t max_attempts = options_.retry_budget + 1;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      QMATCH_COUNTER_ADD("client.retries", 1);
      nanoseconds pause =
          RetryBackoff(options_.backoff_base, options_.backoff_cap,
                       attempt - 1, options_.backoff_seed ^ attempt_counter_);
      if (bounded) {
        const nanoseconds remaining = deadline_tp - steady_clock::now();
        pause = std::min(pause, std::max(nanoseconds(0), remaining));
      }
      if (pause.count() > 0) std::this_thread::sleep_for(pause);
    }
    ++attempt_counter_;
    // The call deadline bounds TOTAL time: each attempt gets whatever I/O
    // budget is left, and an expired budget returns the last real error,
    // not a fresh generic one.
    milliseconds io_budget = options_.io_timeout;
    if (bounded) {
      const milliseconds remaining =
          std::chrono::duration_cast<milliseconds>(deadline_tp -
                                                   steady_clock::now());
      if (remaining.count() <= 0) break;
      io_budget = std::min(io_budget, std::max(milliseconds(1), remaining));
    }
    if (!client_.connected()) {
      const Endpoint& ep = options_.endpoints[endpoint_index_];
      Result<Client> fresh = Client::Connect(
          ep.host, ep.port, std::min(options_.connect_timeout, io_budget));
      if (!fresh.ok()) {
        // Nothing was sent: every request type may try the next endpoint.
        last_error = fresh.status();
        Failover();
        continue;
      }
      client_ = std::move(*fresh);
      ++stats_.reconnects;
      QMATCH_COUNTER_ADD("client.reconnects", 1);
    }
    // From the send on, a failure is ambiguous: the bytes may have reached
    // the server, which may have executed the request.
    using Resp = typename Req::Response;
    const Status sent = client_.SendBytes(frame_bytes);
    Result<Frame> frame = sent.ok() ? client_.ReadFrame() : Result<Frame>(sent);
    Result<Resp> resp =
        frame.ok() ? DecodeReply<Req>(*frame) : Result<Resp>(frame.status());
    if (!resp.ok()) {
      last_error = resp.status();
      client_.Close();
      Failover();
      if (!idempotent) return last_error;
      continue;
    }
    NoteEpoch(endpoint_index_, resp->head);
    if (frame->type == static_cast<uint32_t>(MsgType::kErrorResp) &&
        resp->head.status_code() == StatusCode::kUnavailable) {
      // The server refused BEFORE any work ran (standby or draining):
      // retrying against the next endpoint is safe for every request
      // type, SubmitSchema included.
      last_error = resp->head.ToStatus();
      client_.Close();
      Failover();
      continue;
    }
    // Any other typed verdict belongs to the caller.
    return resp;
  }
  return last_error;
}

Result<SubmitSchemaResp> ResilientClient::SubmitSchema(
    const std::string& name, std::string_view xsd_text) {
  // NOT idempotent past an ambiguous send: a registration that may have
  // landed is the caller's call to repeat.
  return CallRetry(SubmitSchemaReq{name, std::string(xsd_text)},
                   /*idempotent=*/false);
}

Result<MatchPairResp> ResilientClient::MatchPair(const std::string& source,
                                                 const std::string& target,
                                                 uint64_t deadline_ms) {
  return CallRetry(MatchPairReq{source, target, deadline_ms});
}

Result<MatchCorpusResp> ResilientClient::MatchCorpus(const std::string& query,
                                                     uint64_t deadline_ms) {
  return CallRetry(MatchCorpusReq{query, deadline_ms});
}

Result<StatsResp> ResilientClient::GetStats() { return CallRetry(StatsReq{}); }

Result<MetricsResp> ResilientClient::GetMetrics() {
  return CallRetry(MetricsReq{});
}

Result<HealthResp> ResilientClient::Health() { return CallRetry(HealthReq{}); }

Result<RoleResp> ResilientClient::GetRole() { return CallRetry(RoleReq{}); }

}  // namespace qmatch::net
