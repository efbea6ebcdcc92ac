// The load generator's own loopback clients for both wire protocols. They
// follow the documented wire format (src/server/protocol.h for v1 text,
// src/server/binary_protocol.h for v2 frames) but share no code with the
// server, so a change to the program's codecs is measured, not mirrored.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// v2 opcodes, from the documented frame layout.
enum class Op : std::uint8_t {
  kHello = 0x01,
  kDistance = 0x02,
  kPath = 0x03,
  kMatrix = 0x06,
  kStats = 0x07,
  kUpdate = 0x0a,
  kReload = 0x0c,
};

inline constexpr std::size_t kHeaderBytes = 16;

inline void PutU32(std::string* out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

inline void PutU64(std::string* out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

inline std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

inline std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

/// One request frame: header (len, opcode, status 0, no backend prefix,
/// reserved 0, id) followed by `body`.
inline std::string EncodeFrame(Op op, std::uint64_t id, std::string_view body) {
  std::string out;
  out.reserve(kHeaderBytes + body.size());
  PutU32(&out, static_cast<std::uint32_t>(12 + body.size()));
  out.push_back(static_cast<char>(op));
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  PutU64(&out, id);
  out.append(body);
  return out;
}

/// v1 request line of a point query (`p s t` or `d s t`), without the
/// newline.
inline std::string PointLine(char verb, std::uint32_t s, std::uint32_t t) {
  std::string line(1, verb);
  line += ' ';
  line += std::to_string(s);
  line += ' ';
  line += std::to_string(t);
  return line;
}

/// v2 request frame of a point query (kDistance or kPath).
inline std::string PointFrame(Op op, std::uint32_t s, std::uint32_t t,
                              std::uint64_t id) {
  std::string body;
  PutU32(&body, s);
  PutU32(&body, t);
  return EncodeFrame(op, id, body);
}

/// v2 request frame of a sources x targets distance matrix.
inline std::string MatrixFrame(const std::vector<std::uint32_t>& sources,
                               const std::vector<std::uint32_t>& targets,
                               std::uint64_t id) {
  std::string body;
  PutU32(&body, static_cast<std::uint32_t>(sources.size()));
  PutU32(&body, static_cast<std::uint32_t>(targets.size()));
  for (std::uint32_t v : sources) PutU32(&body, v);
  for (std::uint32_t v : targets) PutU32(&body, v);
  return EncodeFrame(Op::kMatrix, id, body);
}

/// v2 request frame of one arc weight update.
inline std::string UpdateFrame(std::uint32_t tail, std::uint32_t head,
                               std::uint32_t weight, std::uint64_t id) {
  std::string body;
  PutU32(&body, tail);
  PutU32(&body, head);
  PutU32(&body, weight);
  return EncodeFrame(Op::kUpdate, id, body);
}

/// A blocking loopback TCP connection with a read buffer.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(std::string_view bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line, without the newline. The view stays valid
  /// until the next read.
  bool ReadLine(std::string_view* line) {
    Compact();
    while (true) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        *line = std::string_view(buf_).substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (!Fill()) return false;
    }
  }

  /// Next complete v2 frame. `payload` views the bytes after the 16-byte
  /// header and stays valid until the next read.
  bool ReadFrame(Op* op, std::uint8_t* status, std::uint64_t* id,
                 std::string_view* payload) {
    Compact();
    while (buf_.size() - pos_ < 4) {
      if (!Fill()) return false;
    }
    const std::uint32_t len = GetU32(buf_.data() + pos_);
    if (len < 12 || len > (64u << 20)) return false;
    while (buf_.size() - pos_ < 4 + std::size_t{len}) {
      if (!Fill()) return false;
    }
    const char* p = buf_.data() + pos_;
    *op = static_cast<Op>(p[4]);
    *status = static_cast<std::uint8_t>(p[5]);
    *id = GetU64(p + 8);
    *payload = std::string_view(p + kHeaderBytes, len - 12);
    pos_ += 4 + std::size_t{len};
    return true;
  }

  /// Connects and reads the v1 banner; with `v2`, switches the session to
  /// v2 frames.
  bool Open(std::uint16_t port, bool v2) {
    std::string_view banner;
    return Connect(port) && (v2 ? NegotiateV2() : ReadLine(&banner));
  }

  /// Reads the v1 banner line and switches the session to v2 frames.
  bool NegotiateV2() {
    std::string_view banner;
    if (!ReadLine(&banner) || !Send("AHB2")) return false;
    Op op;
    std::uint8_t status;
    std::uint64_t id;
    std::string_view payload;
    return ReadFrame(&op, &status, &id, &payload) && op == Op::kHello &&
           status == 0;
  }

 private:
  bool Fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  void Compact() {
    if (pos_ == 0) return;
    buf_.erase(0, pos_);
    pos_ = 0;
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
