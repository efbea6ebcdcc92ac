// TCP front-end over a ServerStack: one poll()-driven I/O thread, plain
// POSIX sockets, no external dependencies. The I/O thread blocks on nothing;
// complete requests are handed to the ServerStack. The replies it answers
// on this thread (errors, cache hits, admin verbs, `hl` distances — see
// server_stack.h) go on an I/O-thread-only list and are delivered as soon
// as the submitting pass returns, with no lock and no wake-up. Replies made
// on the engine workers come back through a self-pipe-woken queue, so slow
// queries cannot stall accepting connections or reading other clients.
//
// Both wire protocols share the port. Every connection is greeted with the
// v1 text banner; its first bytes then pick the mode (binary_protocol.h):
// the "AHB2" magic switches it to v2 length-prefixed frames for the rest of
// the session, anything else is v1 newline-delimited text.
//
// Ordering differs by mode. v1 keeps one request in flight per connection
// and answers in arrival order (further pipelined lines queue). v2 frames
// carry client-chosen request ids, so up to `max_pending_lines` frames per
// connection execute concurrently on the engine workers and replies are
// written in completion order — the id, not the position, correlates them.
// Replies of both modes are coalesced: everything ready in one drain pass
// is appended to the connection's buffer and flushed with one send when it
// fits, so a pipelining client costs one syscall per drain, not per reply.
//
// Connections beyond `max_connections` are greeted with an ERR overload
// reply and closed — front-end load shedding, the same policy admission
// control applies per request behind it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/server_stack.h"
#include "util/thread_annotations.h"

namespace ah::server {

struct TcpServerConfig {
  /// Port to bind; 0 picks an ephemeral port (read it back via Port()).
  std::uint16_t port = 0;
  /// Bind loopback only by default; set true to serve on all interfaces.
  bool bind_any = false;
  int backlog = 64;
  /// Connections beyond this are rejected with ERR overload.
  std::size_t max_connections = 64;
  /// A connection sending a longer unterminated line is errored and closed.
  std::size_t max_line_bytes = 1 << 20;
  /// A v2 connection announcing a frame larger than this is answered with
  /// an ERR too-large frame and closed before the frame is buffered.
  std::size_t max_frame_bytes = 4 << 20;
  /// Backpressure for pipelining clients: a v1 connection stops being read
  /// while it has this many parsed-but-unanswered lines queued (a v2 one,
  /// this many frames in flight), and one that will not drain its replies
  /// (outbuf beyond max_outbuf_bytes) is closed — so one client cannot
  /// grow server memory without limit.
  std::size_t max_pending_lines = 128;
  std::size_t max_outbuf_bytes = 4 << 20;
};

class TcpServer {
 public:
  /// The stack must outlive the server. Construction does not bind —
  /// call Start().
  TcpServer(ServerStack& stack, const TcpServerConfig& config = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the I/O thread. On failure returns false
  /// and fills *error (when non-null) with the failing call and errno text.
  bool Start(std::string* error = nullptr);

  /// Stops accepting, waits for in-flight requests to finish, closes every
  /// connection, and joins the I/O thread. Idempotent; also run by the
  /// destructor.
  void Stop();

  bool Running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the ephemeral one when config.port was 0); 0 before
  /// Start() succeeds.
  std::uint16_t Port() const { return port_; }
  std::size_t NumConnections() const {
    return num_connections_.load(std::memory_order_relaxed);
  }
  /// Connections rejected because max_connections was reached.
  std::uint64_t RejectedConnections() const {
    return rejected_connections_.load(std::memory_order_relaxed);
  }

 private:
  /// What the connection's first bytes turned out to be. Undecided lasts
  /// only while the buffered bytes are a proper prefix of the v2 magic.
  enum class WireMode { kUndecided, kText, kBinary };

  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    WireMode mode = WireMode::kUndecided;
    std::string inbuf;
    std::string outbuf;
    std::deque<std::string> pending_lines;  // v1: parsed-off, not submitted
    /// Error reply (already wire-encoded) held back until every
    /// already-accepted request has been answered, so the
    /// one-reply-per-request stream stays in sync.
    std::string deferred_error;
    bool awaiting_reply = false;            // v1: one request in flight
    std::size_t inflight_frames = 0;        // v2: submitted, not yet replied
    bool closing = false;                   // close once outbuf drains
  };

  struct PendingReply {
    std::uint64_t conn_id = 0;
    /// Final wire bytes — a newline-terminated v1 line or a complete v2
    /// frame; DeliverReplies appends it verbatim.
    std::string reply;
    bool close = false;
  };

  void IoLoop();
  void AcceptNew();
  void HandleReadable(Connection& conn);
  /// Resolves an undecided connection's mode from its first buffered
  /// bytes; may emit the v2 hello frame. Returns false while still
  /// undecided (need more bytes).
  bool DecideMode(Connection& conn);
  /// v1: submits queued lines while the connection has no request in
  /// flight.
  void PumpRequests(Connection& conn);
  /// v2: decodes and submits every complete buffered frame up to the
  /// in-flight cap; rejects malformed or oversized frames.
  void PumpFrames(Connection& conn);
  /// Non-blocking flush of outbuf; returns false if the conn must close.
  bool FlushWrites(Connection& conn);
  /// Emits any deferred error once pending requests are answered, flushes,
  /// and closes the connection when it is finished or misbehaving. Returns
  /// false when the connection was closed (the reference is then dangling).
  bool SettleConnection(Connection& conn);
  void CloseConnection(int fd);
  /// Reply callbacks end here. On the I/O thread the reply goes on
  /// io_replies_; from an engine worker it is queued and poll is woken.
  void EnqueueReply(std::uint64_t conn_id, std::string reply, bool close)
      AH_EXCLUDES(replies_mu_);
  /// Delivers the worker replies queued since the last drain.
  void DrainReplies() AH_EXCLUDES(replies_mu_);
  /// Appends each reply to its connection's buffer and submits the next
  /// request the freed slot admits; replies answered inline by those
  /// submissions are delivered in the same loop. Then settles each touched
  /// connection once, plus `settle_fd` (when open) — the caller must not
  /// settle it again, as settling may close it.
  void DeliverReplies(std::vector<PendingReply> replies, int settle_fd = -1);
  void WakeIoThread();

  ServerStack& stack_;
  TcpServerConfig config_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Owned by the I/O thread exclusively.
  std::unordered_map<int, Connection> connections_;        // by fd
  std::unordered_map<std::uint64_t, int> conn_fd_by_id_;
  std::uint64_t next_conn_id_ = 1;
  std::vector<PendingReply> io_replies_;  // made on this thread, undelivered

  // Crossed between engine workers and the I/O thread.
  Mutex replies_mu_;
  std::vector<PendingReply> pending_replies_ AH_GUARDED_BY(replies_mu_);

  std::atomic<std::size_t> num_connections_{0};
  std::atomic<std::uint64_t> rejected_connections_{0};
};

}  // namespace ah::server
