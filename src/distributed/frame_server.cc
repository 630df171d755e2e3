#include "src/distributed/frame_server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string_view>
#include <utility>

#include "src/common/little_endian.h"
#include "src/distributed/frame.h"
#include "src/distributed/net.h"
#include "src/distributed/wire_protocol.h"

namespace dynhist::distributed {

using little_endian::GetU32;
using little_endian::GetU64;

FrameServer::FrameServer() : FrameServer(Options()) {}

FrameServer::FrameServer(Options options)
    : options_(std::move(options)), aggregator_(options_.aggregator) {}

FrameServer::~FrameServer() { Stop(); }

bool FrameServer::Start(std::string* error) {
  if (running_.load()) return true;
  stopping_.store(false);
  listen_fd_ = net::ListenTcp(options_.host, options_.port,
                              options_.backlog, &port_, error);
  if (listen_fd_ < 0) return false;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (error != nullptr) *error = "epoll/eventfd setup failed";
    Stop();
    return false;
  }
  struct epoll_event ev;
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  running_.store(true);
  loop_ = std::thread(&FrameServer::RunLoop, this);
  return true;
}

void FrameServer::Stop() {
  if (loop_.joinable()) {
    stopping_.store(true);
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    loop_.join();
  }
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  connections_active_.store(0);
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  running_.store(false);
}

void FrameServer::WriteMetricsPrometheus(std::string* out) const {
  aggregator_.WriteMetricsPrometheus(out);
  aggregator_.engine().WriteMetricsPrometheus(out);
}

void FrameServer::RunLoop() {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  while (!stopping_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        HandleReadable(conn);
        if (connections_.find(fd) == connections_.end()) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !FlushOut(conn)) {
        CloseConnection(fd);
        continue;
      }
      if (conn.close_after_flush && conn.out_pos == conn.out.size()) {
        CloseConnection(fd);
        continue;
      }
      UpdateInterest(conn);
    }
  }
}

void FrameServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained, or transient accept failure
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    struct epoll_event ev;
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1);
    connections_active_.fetch_add(1);
  }
}

void FrameServer::HandleReadable(Connection& conn) {
  for (;;) {
    const std::ptrdiff_t n = net::ReadSome(conn.fd, &conn.in);
    if (n < 0) {
      CloseConnection(conn.fd);
      return;
    }
    if (n == 0) break;  // would block: kernel buffer drained
  }
  ProcessBuffered(conn);
  if (!FlushOut(conn)) CloseConnection(conn.fd);
}

void FrameServer::ProcessBuffered(Connection& conn) {
  while (!conn.close_after_flush) {
    const std::size_t avail = conn.in.size() - conn.in_pos;
    if (avail < 4) break;
    const std::uint32_t len = GetU32(conn.in.data() + conn.in_pos);
    if (len > net::kMaxMessageBytes) {
      // Framing is unrecoverable; answer with a typed error and drop.
      protocol_errors_.fetch_add(1);
      std::string reply(1, wire::kReplyError);
      reply += "oversized envelope";
      net::AppendEnvelope(&conn.out, reply);
      conn.close_after_flush = true;
      break;
    }
    if (avail < 4 + std::size_t{len}) break;  // partial message: wait
    HandleMessage(conn, std::string_view(conn.in.data() + conn.in_pos + 4,
                                         len));
    conn.in_pos += 4 + std::size_t{len};
  }
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer does not grow without bound.
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
}

void FrameServer::HandleMessage(Connection& conn,
                                std::string_view payload) {
  auto protocol_error = [&](std::string_view what) {
    protocol_errors_.fetch_add(1);
    std::string reply(1, wire::kReplyError);
    reply += what;
    net::AppendEnvelope(&conn.out, reply);
    conn.close_after_flush = true;
  };
  if (payload.empty()) {
    protocol_error("empty message");
    return;
  }
  switch (payload[0]) {
    case wire::kMsgFrame: {
      FrameError frame_error = FrameError::kOk;
      const Aggregator::IngestResult result =
          aggregator_.Ingest(payload.substr(1), &frame_error);
      std::string reply(1, wire::kReplyStatus);
      reply.push_back(static_cast<char>(
          result == Aggregator::IngestResult::kApplied
              ? wire::kStatusApplied
              : result == Aggregator::IngestResult::kDuplicate
                    ? wire::kStatusDuplicate
                    : wire::kStatusRejected));
      reply.push_back(static_cast<char>(frame_error));
      net::AppendEnvelope(&conn.out, reply);
      return;
    }
    case wire::kMsgQuery: {
      if (payload.size() < 5) {
        protocol_error("short query");
        return;
      }
      const std::uint32_t key_len = GetU32(payload.data() + 1);
      if (payload.size() != 5 + std::size_t{key_len} + 16) {
        protocol_error("malformed query");
        return;
      }
      const std::string_view key = payload.substr(5, key_len);
      const auto lo = static_cast<std::int64_t>(
          GetU64(payload.data() + 5 + key_len));
      const auto hi = static_cast<std::int64_t>(
          GetU64(payload.data() + 5 + key_len + 8));
      // Known keys read through a handle (lease and query counters as
      // for any handle reader); Find is a reader-table hit on this loop
      // thread once the key is warm. Lookups never create keys, so a peer
      // cannot grow the registry or the metric series by naming keys: an
      // unknown key is answered 0.0 by the string path (counted in
      // unknown_queries), and a later frame creating it still resolves.
      engine::HistogramEngine& global = aggregator_.engine();
      const engine::KeyHandle handle = global.Find(key);
      const double estimate = handle.valid()
                                  ? global.EstimateRange(handle, lo, hi)
                                  : global.EstimateRange(key, lo, hi);
      std::string reply(1, wire::kReplyEstimate);
      little_endian::PutF64(&reply, estimate);
      net::AppendEnvelope(&conn.out, reply);
      return;
    }
    case wire::kMsgMetrics: {
      std::string reply(1, wire::kReplyMetrics);
      WriteMetricsPrometheus(&reply);
      net::AppendEnvelope(&conn.out, reply);
      return;
    }
    default:
      protocol_error("unknown message type");
  }
}

bool FrameServer::FlushOut(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    const std::ptrdiff_t n = net::WriteSome(
        conn.fd, conn.out.data() + conn.out_pos,
        conn.out.size() - conn.out_pos);
    if (n < 0) return false;
    if (n == 0) break;  // kernel buffer full: EPOLLOUT resumes
    conn.out_pos += static_cast<std::size_t>(n);
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
  return true;
}

void FrameServer::UpdateInterest(Connection& conn) {
  struct epoll_event ev;
  ev.events = EPOLLIN;
  if (conn.out_pos < conn.out.size()) ev.events |= EPOLLOUT;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void FrameServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  connections_active_.fetch_sub(1);
}

}  // namespace dynhist::distributed
