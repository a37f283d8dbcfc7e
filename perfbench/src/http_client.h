// Minimal blocking HTTP/1.1 client for loopback POSTs to the in-process
// stats server (which answers one request per connection).

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;     ///< 0 when the exchange failed
  std::string body;
  std::string error;  ///< set when status == 0
};

/// POSTs `body` as JSON to http://127.0.0.1:<port><target> and reads the
/// whole response.
HttpReply Post(uint16_t port, const std::string& target,
               const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
