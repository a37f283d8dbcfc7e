#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// Closes the socket on every path.
struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) close(fd);
  }
};

HttpReply Fail(const char* what) {
  HttpReply r;
  r.error = std::string(what) + ": " + std::strerror(errno);
  return r;
}

}  // namespace

HttpReply Post(uint16_t port, const std::string& target,
               const std::string& body) {
  Fd s{socket(AF_INET, SOCK_STREAM, 0)};
  if (s.fd < 0) return Fail("socket");
  int one = 1;
  setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{30, 0};  // a hung server fails the request instead of the run
  setsockopt(s.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(s.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return Fail("connect");

  std::string req = "POST " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Content-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  for (size_t sent = 0; sent < req.size();) {
    ssize_t n = send(s.fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return Fail("send");
    sent += size_t(n);
  }
  std::string resp;
  char buf[16384];
  while (true) {
    ssize_t n = recv(s.fd, buf, sizeof(buf), 0);
    if (n < 0) return Fail("recv");
    if (n == 0) break;
    resp.append(buf, size_t(n));
  }
  HttpReply r;
  size_t head_end = resp.find("\r\n\r\n");
  if (resp.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    r.error = "malformed response";
    return r;
  }
  r.status = std::atoi(resp.c_str() + 9);
  r.body = resp.substr(head_end + 4);
  return r;
}

}  // namespace perfbench
