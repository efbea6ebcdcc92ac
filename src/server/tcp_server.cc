#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "server/binary_protocol.h"

namespace ah::server {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// The server whose I/O thread this is (null on every other thread): a
/// reply callback reads it to tell whether it runs on that I/O thread.
thread_local const TcpServer* io_thread_server = nullptr;

}  // namespace

TcpServer::TcpServer(ServerStack& stack, const TcpServerConfig& config)
    : stack_(stack), config_(config) {}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = ErrnoMessage(what);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return false;
  };
  if (Running()) {
    if (error != nullptr) *error = "already running";
    return false;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  addr.sin_addr.s_addr = htonl(config_.bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, config_.backlog) != 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_)) return fail("fcntl(listen)");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) != 0) return fail("pipe");
  if (!SetNonBlocking(wake_pipe_[0]) || !SetNonBlocking(wake_pipe_[1])) {
    return fail("fcntl(pipe)");
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  return true;
}

void TcpServer::Stop() {
  if (!Running()) return;
  stop_.store(true, std::memory_order_release);
  WakeIoThread();
  io_thread_.join();
  // No new submissions can happen (the I/O thread is gone); wait for every
  // in-flight request so no engine worker calls EnqueueReply on a dead
  // server, then tear the sockets down.
  stack_.WaitIdle();
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  conn_fd_by_id_.clear();
  num_connections_.store(0, std::memory_order_relaxed);
  io_replies_.clear();
  {
    MutexLock lock(replies_mu_);
    pending_replies_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  running_.store(false, std::memory_order_release);
}

void TcpServer::IoLoop() {
  io_thread_server = this;
  std::vector<pollfd> fds;
  std::vector<std::pair<int, std::uint64_t>> event_conns;  // (fd, conn id)
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    event_conns.clear();
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      // A closing connection is only flushed, never read again — polling
      // POLLIN after EOF would spin until its last replies drain. A
      // connection at its pipelining bound (queued v1 lines or in-flight
      // v2 frames) stops being read too (backpressure): the socket buffer,
      // and eventually the client, absorb the overflow instead of server
      // memory.
      const bool throttled =
          conn.pending_lines.size() >= config_.max_pending_lines ||
          conn.inflight_frames >= config_.max_pending_lines;
      short events = conn.closing || throttled ? 0 : POLLIN;
      if (!conn.outbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
      event_conns.emplace_back(fd, conn.id);
    }

    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if ((fds[1].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      DrainReplies();
    }
    if ((fds[0].revents & POLLIN) != 0) AcceptNew();

    for (std::size_t i = 0; i < event_conns.size(); ++i) {
      const pollfd& pfd = fds[i + 2];
      const auto it = connections_.find(event_conns[i].first);
      if (it == connections_.end()) continue;  // closed while draining
      Connection& conn = it->second;
      // DrainReplies/AcceptNew above may have closed the polled connection
      // and accepted a new one onto the same (reused) fd — these revents
      // belong to the old connection, so skip them.
      if (conn.id != event_conns[i].second) continue;
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        CloseConnection(conn.fd);
        continue;
      }
      if ((pfd.revents & POLLOUT) != 0 && !SettleConnection(conn)) continue;
      if ((pfd.revents & POLLIN) != 0) HandleReadable(conn);
    }
  }
}

void TcpServer::AcceptNew() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: back to poll
    if (connections_.size() >= config_.max_connections) {
      const std::string reply =
          FormatError(ErrorCode::kOverload,
                      "connection limit (" +
                          std::to_string(config_.max_connections) +
                          ") reached") +
          "\n";
      // Count before replying: a client that has read the overload reply
      // must already observe the incremented counter.
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    // Replies are small and latency-bound; without this, Nagle holding a
    // reply segment for the peer's delayed ACK adds ~40ms to every
    // serialized request/reply round trip on an otherwise idle link.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    Connection conn;
    conn.id = next_conn_id_++;
    conn.fd = fd;
    conn.outbuf = stack_.Greeting() + "\n";
    conn_fd_by_id_.emplace(conn.id, fd);
    auto [it, inserted] = connections_.emplace(fd, std::move(conn));
    num_connections_.store(connections_.size(), std::memory_order_relaxed);
    if (!FlushWrites(it->second)) CloseConnection(fd);
  }
}

void TcpServer::HandleReadable(Connection& conn) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.inbuf.append(buf, static_cast<std::size_t>(n));
      stack_.wire().bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
      // A short read drained the socket; poll() is level-triggered and
      // reports any later bytes, so a second recv would only see EAGAIN.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer closed (or hard error). Serve what was already buffered, then
    // close once in-flight replies drain.
    conn.closing = true;
    break;
  }

  if (conn.mode == WireMode::kUndecided && !DecideMode(conn)) {
    SettleConnection(conn);
    return;
  }

  if (conn.mode == WireMode::kBinary) {
    PumpFrames(conn);
    DeliverReplies({}, conn.fd);
    return;
  }

  std::size_t begin = 0;
  while (true) {
    const std::size_t newline = conn.inbuf.find('\n', begin);
    if (newline == std::string::npos) break;
    std::string line = conn.inbuf.substr(begin, newline - begin);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    conn.pending_lines.push_back(std::move(line));
    begin = newline + 1;
  }
  conn.inbuf.erase(0, begin);

  if (conn.inbuf.size() > config_.max_line_bytes) {
    // The error is deferred until the already-parsed requests above have
    // been answered, keeping the reply stream one-per-request until close.
    conn.deferred_error =
        FormatError(ErrorCode::kBadRequest, "request line too long") + "\n";
    conn.closing = true;
    conn.inbuf.clear();
  }

  PumpRequests(conn);
  DeliverReplies({}, conn.fd);
}

bool TcpServer::DecideMode(Connection& conn) {
  if (conn.inbuf.size() >= kBinaryMagic.size()) {
    if (std::string_view(conn.inbuf).substr(0, kBinaryMagic.size()) ==
        kBinaryMagic) {
      conn.mode = WireMode::kBinary;
      conn.inbuf.erase(0, kBinaryMagic.size());
      conn.outbuf += EncodeHelloFrame(stack_.NumNodes(), stack_.NumArcs());
    } else {
      conn.mode = WireMode::kText;
    }
    return true;
  }
  // Fewer than 4 bytes buffered. Only a proper prefix of the magic is
  // still ambiguous ("AH" could become "AHB2" or the text "AH/1 ..."
  // version selector) — anything else is already text.
  if (kBinaryMagic.substr(0, conn.inbuf.size()) != conn.inbuf) {
    conn.mode = WireMode::kText;
    return true;
  }
  return false;  // wait for more bytes
}

void TcpServer::PumpRequests(Connection& conn) {
  // One in-flight request per connection keeps replies in request order
  // without sequence numbers; pipelined lines wait in pending_lines.
  if (conn.awaiting_reply || conn.pending_lines.empty()) return;
  std::string line = std::move(conn.pending_lines.front());
  conn.pending_lines.pop_front();
  conn.awaiting_reply = true;
  const std::uint64_t id = conn.id;
  // NOTE: `conn` may be gone by the time the callback runs; only the id is
  // captured. A reply answered inline on this thread is only listed here
  // and delivered after the pump returns, so delivery never re-enters it.
  stack_.Submit(line, id, [this, id](std::string reply, bool close) {
    reply += '\n';
    EnqueueReply(id, std::move(reply), close);
  });
}

void TcpServer::PumpFrames(Connection& conn) {
  // Unlike v1's one-at-a-time pumping, every complete buffered frame is
  // submitted immediately (up to the in-flight cap) — the request id in
  // each reply frame is the client's correlator, so completion order is
  // free to differ from arrival order.
  while (!conn.closing && conn.inflight_frames < config_.max_pending_lines) {
    if (conn.inbuf.size() < sizeof(std::uint32_t)) return;
    FrameHeader header;
    const bool have_header = TryReadHeader(conn.inbuf, &header);
    const std::uint32_t len = GetU32(conn.inbuf.data());
    // Both rejections happen before the frame is buffered in full: the
    // announced length alone convicts it. The error frame echoes the
    // opcode/id when the 16 header bytes made it, else opcode kHello id 0.
    const Opcode opcode = have_header ? header.opcode : Opcode::kHello;
    const std::uint64_t rid = have_header ? header.request_id : 0;
    if (len < kFrameLenMin) {
      conn.deferred_error = EncodeErrorFrame(
          opcode, rid, ErrorCode::kBadRequest,
          "frame length " + std::to_string(len) + " below the header minimum " +
              std::to_string(kFrameLenMin));
      conn.closing = true;
      conn.inbuf.clear();
      return;
    }
    if (sizeof(std::uint32_t) + static_cast<std::uint64_t>(len) >
        config_.max_frame_bytes) {
      conn.deferred_error = EncodeErrorFrame(
          opcode, rid, ErrorCode::kTooLarge,
          "frame of " +
              std::to_string(sizeof(std::uint32_t) +
                             static_cast<std::uint64_t>(len)) +
              " bytes exceeds the limit of " +
              std::to_string(config_.max_frame_bytes));
      conn.closing = true;
      conn.inbuf.clear();
      return;
    }
    std::string_view payload;
    const std::size_t total = TryReadFrame(conn.inbuf, &header, &payload);
    if (total == 0) return;  // incomplete: wait for more bytes
    ParseResult parsed = DecodeRequest(header, payload, stack_.Limits());
    conn.inbuf.erase(0, total);
    ++conn.inflight_frames;
    const std::uint64_t id = conn.id;
    // As in PumpRequests: only the id outlives this scope; a reply made on
    // an engine worker is encoded there, keeping the I/O thread out of it.
    stack_.SubmitDecoded(
        std::move(parsed), id,
        [this, id, op = header.opcode, rid = header.request_id](Reply reply) {
          const bool close = reply.close;
          EnqueueReply(id, EncodeReplyFrame(reply, op, rid), close);
        });
  }
}

bool TcpServer::SettleConnection(Connection& conn) {
  const bool quiescent = !conn.awaiting_reply && conn.pending_lines.empty() &&
                         conn.inflight_frames == 0;
  if (quiescent && !conn.deferred_error.empty()) {
    conn.outbuf += conn.deferred_error;
    conn.deferred_error.clear();
  }
  if (!FlushWrites(conn)) {
    CloseConnection(conn.fd);
    return false;
  }
  // A client that pipelines requests but never drains replies would grow
  // outbuf without limit — cut it off (no error reply can reach it).
  if (conn.outbuf.size() > config_.max_outbuf_bytes) {
    CloseConnection(conn.fd);
    return false;
  }
  if (conn.closing && quiescent && conn.deferred_error.empty() &&
      conn.outbuf.empty()) {
    CloseConnection(conn.fd);
    return false;
  }
  return true;
}

bool TcpServer::FlushWrites(Connection& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
      stack_.wire().bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                        std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  return true;
}

void TcpServer::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  conn_fd_by_id_.erase(it->second.id);
  ::close(fd);
  connections_.erase(it);
  num_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void TcpServer::EnqueueReply(std::uint64_t conn_id, std::string reply,
                             bool close) {
  if (io_thread_server == this) {
    io_replies_.push_back(PendingReply{conn_id, std::move(reply), close});
    return;
  }
  {
    MutexLock lock(replies_mu_);
    pending_replies_.push_back(PendingReply{conn_id, std::move(reply), close});
  }
  WakeIoThread();
}

void TcpServer::DrainReplies() {
  std::vector<PendingReply> replies;
  {
    MutexLock lock(replies_mu_);
    replies.swap(pending_replies_);
  }
  DeliverReplies(std::move(replies));
}

void TcpServer::DeliverReplies(std::vector<PendingReply> replies,
                               int settle_fd) {
  // Two passes: append every ready reply to its connection's buffer first,
  // then flush each touched connection once. A pipelined client with many
  // replies in this drain gets them in one send() instead of one per
  // reply. Safe to defer the flush: nothing in the first pass closes a
  // connection, so the fds collected stay valid.
  std::vector<int> touched;
  if (settle_fd >= 0) touched.push_back(settle_fd);
  while (true) {
    for (PendingReply& reply : replies) {
      const auto id_it = conn_fd_by_id_.find(reply.conn_id);
      if (id_it == conn_fd_by_id_.end()) continue;  // already closed
      const auto it = connections_.find(id_it->second);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      conn.outbuf += reply.reply;
      if (conn.mode == WireMode::kBinary) {
        if (conn.inflight_frames > 0) --conn.inflight_frames;
      } else {
        conn.awaiting_reply = false;
      }
      if (reply.close) {
        conn.closing = true;
        conn.pending_lines.clear();
        conn.inbuf.clear();
      } else if (conn.mode == WireMode::kBinary) {
        PumpFrames(conn);  // a freed in-flight slot may admit buffered frames
      } else {
        PumpRequests(conn);
      }
      touched.push_back(it->first);
    }
    // The pumps above may have answered requests inline, onto io_replies_:
    // deliver those in the next round (a loop, however long the pipeline).
    if (io_replies_.empty()) break;
    replies.clear();
    replies.swap(io_replies_);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const int fd : touched) {
    const auto it = connections_.find(fd);
    if (it != connections_.end()) SettleConnection(it->second);
  }
}

void TcpServer::WakeIoThread() {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

}  // namespace ah::server
