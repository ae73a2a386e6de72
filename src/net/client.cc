#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace qmatch::net {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

void SetIoTimeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, uint16_t port,
                               std::chrono::milliseconds timeout) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("unparseable host address: " + host);
  }
  SetIoTimeout(fd, timeout);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = ErrnoStatus("connect");
    close(fd);
    return status;
  }
  const int enable = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

  Client client;
  client.fd_ = fd;
  client.timeout_ = timeout;
  return client;
}

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      timeout_(other.timeout_),
      in_(std::move(other.in_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    timeout_ = other.timeout_;
    in_ = std::move(other.in_);
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  in_.clear();
}

Status Client::SendBytes(std::string_view bytes) {
  if (fd_ < 0) return Status::IoError("client not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Frame> Client::ReadFrame() {
  if (fd_ < 0) return Status::IoError("client not connected");
  while (true) {
    Frame frame;
    size_t consumed = 0;
    const FrameDecodeResult decoded = DecodeFrame(in_, &frame, &consumed);
    if (decoded == FrameDecodeResult::kFrame) {
      in_.erase(0, consumed);
      return frame;
    }
    if (decoded != FrameDecodeResult::kNeedMore) {
      return Status::DataLoss(std::string("unframeable response bytes: ") +
                              std::string(FrameDecodeResultName(decoded)));
    }
    char buf[65536];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IoError("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IoError("timed out waiting for a response frame");
    }
    return ErrnoStatus("recv");
  }
}

template <class Req>
Result<typename Req::Response> Client::Call(const Req& req) {
  QMATCH_RETURN_IF_ERROR(SendBytes(EncodeFrame(Req::kType, Encode(req))));
  Result<Frame> frame = ReadFrame();
  if (!frame.ok()) return frame.status();
  return DecodeReply<Req>(*frame);
}

Result<SubmitSchemaResp> Client::SubmitSchema(const std::string& name,
                                              std::string_view xsd_text) {
  return Call(SubmitSchemaReq{name, std::string(xsd_text)});
}

Result<MatchPairResp> Client::MatchPair(const std::string& source,
                                        const std::string& target,
                                        uint64_t deadline_ms) {
  return Call(MatchPairReq{source, target, deadline_ms});
}

Result<MatchCorpusResp> Client::MatchCorpus(const std::string& query,
                                            uint64_t deadline_ms) {
  return Call(MatchCorpusReq{query, deadline_ms});
}

Result<StatsResp> Client::GetStats() { return Call(StatsReq{}); }

Result<MetricsResp> Client::GetMetrics() { return Call(MetricsReq{}); }

Result<HealthResp> Client::Health() { return Call(HealthReq{}); }

Result<RoleResp> Client::GetRole() { return Call(RoleReq{}); }

}  // namespace qmatch::net
