// resp_client: a minimal blocking RESP2 client for the ditto_server front
// end — the smallest complete example of speaking the wire protocol without
// the epoll machinery of net::RunLoadgen.
//
//   ./ditto_server --port=6399 &
//   ./resp_client --port=6399
//
// Connects, then runs a scripted session (PING, SET, GET hit, DEL, GET miss,
// EXPIRE, MGET) printing each command and its decoded reply. Exits nonzero
// if any round trip fails, so it doubles as a hand-run conformance probe.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/flags.h"
#include "net/resp.h"
#include "net/ring_buffer.h"

namespace {

using namespace ditto;

class BlockingClient {
 public:
  bool Connect(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      std::perror("socket");
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::perror("connect");
      return false;
    }
    return true;
  }

  ~BlockingClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  // Sends one command and blocks for its reply; prints both. Returns false
  // on transport or protocol failure (an -ERR reply is a valid round trip).
  bool RoundTrip(std::initializer_list<std::string_view> args) {
    net::RingBuffer request;
    net::AppendCommand(&request, args);
    std::string rendered;
    for (const auto arg : args) {
      rendered.append(arg).push_back(' ');
    }
    while (!request.empty()) {
      const ssize_t n = ::write(fd_, request.data(), request.size());
      if (n <= 0) {
        std::perror("write");
        return false;
      }
      request.Consume(static_cast<size_t>(n));
    }
    while (true) {
      net::RespReply reply;
      std::vector<net::RespReply> elems;
      std::string error;
      const net::ParseStatus status = net::ParseReply(&in_, &reply, &elems, &error);
      if (status == net::ParseStatus::kOk) {
        std::printf("%-40s -> %s\n", rendered.c_str(), Render(reply, elems).c_str());
        return true;
      }
      if (status == net::ParseStatus::kError) {
        std::fprintf(stderr, "protocol error: %s\n", error.c_str());
        return false;
      }
      char* dst = in_.Reserve(4096);
      const ssize_t n = ::read(fd_, dst, 4096);
      if (n <= 0) {
        std::fprintf(stderr, "server closed the connection\n");
        return false;
      }
      in_.Commit(static_cast<size_t>(n));
    }
  }

 private:
  static std::string Render(const net::RespReply& reply,
                            const std::vector<net::RespReply>& elems) {
    switch (reply.type) {
      case net::RespReply::Type::kSimple:
        return "+" + std::string(reply.text);
      case net::RespReply::Type::kError:
        return "-" + std::string(reply.text);
      case net::RespReply::Type::kInteger:
        return ":" + std::to_string(reply.integer);
      case net::RespReply::Type::kBulk: {
        std::string text(reply.text.size() <= 32 ? reply.text : reply.text.substr(0, 29));
        if (reply.text.size() > 32) {
          text += "...";
        }
        return "\"" + text + "\" (" + std::to_string(reply.text.size()) + " bytes)";
      }
      case net::RespReply::Type::kNil:
        return "(nil)";
      case net::RespReply::Type::kArray: {
        std::string out = "[";
        for (size_t i = 0; i < elems.size(); ++i) {
          out += Render(elems[i], {});
          if (i + 1 < elems.size()) {
            out += ", ";
          }
        }
        return out + "]";
      }
    }
    return "?";
  }

  int fd_ = -1;
  net::RingBuffer in_;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv, {"host", "port"});
  const std::string host = flags.GetString("host", "127.0.0.1");
  const auto port = flags.GetInt<uint16_t>("port", 6399, 1, UINT16_MAX);

  BlockingClient client;
  if (!client.Connect(host, port)) {
    std::fprintf(stderr, "resp_client: cannot reach %s:%u — is ditto_server running?\n",
                 host.c_str(), port);
    return 1;
  }

  const bool ok = client.RoundTrip({"PING"}) &&
                  client.RoundTrip({"SET", "greeting", "hello from resp_client"}) &&
                  client.RoundTrip({"GET", "greeting"}) &&
                  client.RoundTrip({"SET", "short-lived", "v", "EX", "8"}) &&
                  client.RoundTrip({"EXPIRE", "greeting", "16"}) &&
                  client.RoundTrip({"MGET", "greeting", "short-lived", "absent"}) &&
                  client.RoundTrip({"DEL", "greeting", "short-lived"}) &&
                  client.RoundTrip({"GET", "greeting"}) &&
                  client.RoundTrip({"QUIT"});
  return ok ? 0 : 1;
}
