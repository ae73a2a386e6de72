#ifndef QMATCH_NET_CLIENT_H_
#define QMATCH_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "net/frame.h"

namespace qmatch::net {

/// Pairs a response frame with a request of type Req: the typed response,
/// or, for kErrorResp (the request never produced a typed body: rejected,
/// shed before execution, ...), a response whose bare head carries the
/// typed verdict. A mispaired or undecodable frame is kDataLoss.
template <class Req>
Result<typename Req::Response> DecodeReply(const Frame& frame) {
  typename Req::Response resp;
  if (frame.type == static_cast<uint32_t>(MsgType::kErrorResp)) {
    if (!Decode(frame.payload, &resp.head)) {
      return Status::DataLoss("undecodable error response head");
    }
    return resp;
  }
  if (frame.type != (static_cast<uint32_t>(Req::kType) | kResponseBit)) {
    return Status::DataLoss("mispaired response type " +
                            std::to_string(frame.type));
  }
  if (!Decode(frame.payload, &resp)) {
    return Status::DataLoss("undecodable response payload");
  }
  return resp;
}

/// Blocking qmatchd client — the conformance/chaos/bench harness's view of
/// the server (and a usable minimal SDK). One socket, strict
/// request-response; pipelining callers use the raw SendBytes/ReadFrame
/// escape hatches instead.
///
/// Two error channels, deliberately distinct:
///   - transport trouble (connect/read/write failure, undecodable or
///     mispaired frames) surfaces as a non-OK Result;
///   - the server's typed verdict rides in the response's ResponseHead —
///     a kOverloaded shed is a *successful* Result whose head says
///     kOverloaded. Tests asserting the typed-status contract read heads.
class Client {
 public:
  /// Connects with a timeout; the same timeout becomes the default I/O
  /// timeout of every call on the connection.
  static Result<Client> Connect(
      const std::string& host, uint16_t port,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  Result<SubmitSchemaResp> SubmitSchema(const std::string& name,
                                        std::string_view xsd_text);
  Result<MatchPairResp> MatchPair(const std::string& source,
                                  const std::string& target,
                                  uint64_t deadline_ms = 0);
  Result<MatchCorpusResp> MatchCorpus(const std::string& query,
                                      uint64_t deadline_ms = 0);
  Result<StatsResp> GetStats();
  Result<MetricsResp> GetMetrics();
  Result<HealthResp> Health();
  Result<RoleResp> GetRole();

  // --- escape hatches for the fuzz and conformance suites ------------------

  /// Writes raw bytes to the socket (full write or error) — the fuzzer's
  /// way of sending deliberately broken frames and partial writes.
  Status SendBytes(std::string_view bytes);

  /// Reads exactly one frame off the socket. IoError on timeout/close,
  /// DataLoss when the bytes cannot be framed.
  Result<Frame> ReadFrame();

  /// Underlying socket, for shutdown()/close() chaos (mid-request
  /// disconnects). -1 after Close.
  int fd() const { return fd_; }

  void Close();

 private:
  /// Sends one request frame and pairs it with the next response frame
  /// (DecodeReply).
  template <class Req>
  Result<typename Req::Response> Call(const Req& req);

  int fd_ = -1;
  std::chrono::milliseconds timeout_{5000};
  std::string in_;  ///< bytes read past the last returned frame
};

}  // namespace qmatch::net

#endif  // QMATCH_NET_CLIENT_H_
