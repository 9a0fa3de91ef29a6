#include "middleware/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>

#include "util/clock.h"
#include "util/logging.h"

namespace marlin {
namespace {

// Connections are handled inline on the accept loop, so a client that
// stalls mid-request must not hold the loop (and with it every later client
// and Stop()) for long: this bounds each recv/send on an accepted socket and
// the whole request-head read.
constexpr int kIoTimeoutMillis = 2000;
constexpr size_t kMaxHeadBytes = 16384;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Internal Server Error";
  }
}

}  // namespace

HttpServer::HttpServer(ApiService* api, int port) : api_(api), port_(port) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<uint16_t>(port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("bind() failed on port " +
                               std::to_string(port_));
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  // Discover the OS-assigned port when 0 was requested.
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) == 0) {
    port_ = ntohs(address.sin_port);
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // Claim the fd before closing so the accept loop never touches a stale
  // (or reused) descriptor number.
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // Shut the listening socket down to unblock accept().
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
}

void HttpServer::AcceptLoop() {
  while (running_.load()) {
    const int fd = listen_fd_.load();
    if (fd < 0) return;
    const int client_fd = ::accept(fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (!running_.load()) return;
      continue;
    }
    timeval timeout{};
    timeout.tv_sec = kIoTimeoutMillis / 1000;
    timeout.tv_usec = (kIoTimeoutMillis % 1000) * 1000;
    ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                 sizeof(timeout));
    HandleConnection(client_fd);
    ::close(client_fd);
  }
}

void HttpServer::HandleConnection(int client_fd) {
  // Read until the end of the request head, the cap, or the deadline.
  std::string head;
  char buffer[2048];
  const Stopwatch read_time;
  while (head.size() < kMaxHeadBytes &&
         read_time.ElapsedMillis() < kIoTimeoutMillis &&
         head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(client_fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    head.append(buffer, static_cast<size_t>(n));
    // A bare GET has no body; a complete request line is enough once a
    // newline arrived.
    if (head.find('\n') != std::string::npos &&
        head.rfind("GET ", 0) == 0) {
      break;
    }
  }
  // Parse "METHOD target HTTP/x.y". A request line cut off by EOF, the
  // deadline or the cap names no target we can trust.
  const size_t line_end = head.find('\n');
  ApiResponse response{400, "{\"error\":\"incomplete request line\"}"};
  if (line_end != std::string::npos) {
    std::string method = "GET", target = "/";
    const std::string line = head.substr(0, line_end);
    const size_t first_space = line.find(' ');
    const size_t second_space =
        first_space == std::string::npos ? std::string::npos
                                         : line.find(' ', first_space + 1);
    if (first_space != std::string::npos) {
      method = line.substr(0, first_space);
      target = second_space == std::string::npos
                   ? line.substr(first_space + 1)
                   : line.substr(first_space + 1,
                                 second_space - first_space - 1);
    }
    response = api_->Handle(method, target);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\nContent-Type: " +
                    response.content_type + "\r\nContent-Length: " +
                    std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + response.body;
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(client_fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace marlin
