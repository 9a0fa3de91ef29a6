#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "middleware/api_service.h"
#include "middleware/http_server.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

/// Client-side receive timeout: a test against a server that never answers
/// fails on it instead of hanging.
constexpr int kClientTimeoutSec = 6;

/// Connects a blocking client socket to the loopback server; -1 on failure.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = kClientTimeoutSec;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads until EOF, error or the client timeout, then closes `fd`.
std::string ReadAllAndClose(int fd) {
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// The status code of a raw response, or -1 when there is none.
int StatusOf(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0) return -1;
  return std::atoi(response.c_str() + 9);
}

/// Full response (status line + headers + body) to a GET of `target`.
std::string HttpGetRaw(int port, const std::string& target) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  return ReadAllAndClose(fd);
}

/// Tiny blocking HTTP GET client for the tests: the body, and the status
/// (-1 when there is no response).
std::string HttpGet(int port, const std::string& target, int* status) {
  const std::string response = HttpGetRaw(port, target);
  *status = StatusOf(response);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PipelineConfig config;
    config.actor_system.num_threads = 2;
    pipeline_ = std::make_unique<MaritimePipeline>(
        std::make_shared<LinearKinematicModel>(), config);
    ASSERT_TRUE(pipeline_->Start().ok());
    api_ = std::make_unique<ApiService>(pipeline_.get());
    server_ = std::make_unique<HttpServer>(api_.get(), 0);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<MaritimePipeline> pipeline_;
  std::unique_ptr<ApiService> api_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesStatsOverTcp) {
  AisPosition report;
  report.mmsi = 1;
  report.timestamp = kMicrosPerSecond;
  report.position = LatLng{38.0, 24.0};
  ASSERT_TRUE(pipeline_->Ingest(report).ok());
  pipeline_->AwaitQuiescence();

  int status = 0;
  const std::string body = HttpGet(server_->port(), "/stats", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"positions_ingested\":1"), std::string::npos);
  EXPECT_GE(server_->requests_served(), 1);
}

TEST_F(HttpServerTest, Returns404And400OverTcp) {
  int status = 0;
  HttpGet(server_->port(), "/nope", &status);
  EXPECT_EQ(status, 404);
  HttpGet(server_->port(), "/traffic/0", &status);
  EXPECT_EQ(status, 400);
}

TEST_F(HttpServerTest, ConcurrentClients) {
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, &ok] {
      for (int j = 0; j < 5; ++j) {
        int status = 0;
        HttpGet(server_->port(), "/stats", &status);
        if (status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * 5);
}

TEST_F(HttpServerTest, MetricsServedAsPrometheusText) {
  AisPosition report;
  report.mmsi = 9;
  report.timestamp = kMicrosPerSecond;
  report.position = LatLng{38.0, 24.0};
  ASSERT_TRUE(pipeline_->Ingest(report).ok());
  pipeline_->AwaitQuiescence();

  const std::string metrics = HttpGetRaw(server_->port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE marlin_actor_messages_processed_total"),
            std::string::npos);

  // JSON routes keep their original content type.
  const std::string stats = HttpGetRaw(server_->port(), "/stats");
  EXPECT_NE(stats.find("Content-Type: application/json"), std::string::npos);
}

TEST_F(HttpServerTest, StopUnblocksAndIsIdempotent) {
  server_->Stop();
  server_->Stop();
  int status = 0;
  HttpGet(server_->port(), "/stats", &status);
  EXPECT_EQ(status, -1);  // connection refused
}

// Regression: Stop() used to write the (plain int) listen fd while the
// accept loop was still reading it — a data race under TSan, and a window
// where the loop could accept() on a stale or reused descriptor. Rapid
// start/stop cycles with live clients keep that window exercised.
TEST_F(HttpServerTest, StopRacingAcceptLoopIsClean) {
  for (int cycle = 0; cycle < 10; ++cycle) {
    int status = 0;
    HttpGet(server_->port(), "/stats", &status);
    server_->Stop();
    server_->Stop();  // idempotent while the loop is tearing down
    ASSERT_TRUE(server_->Start().ok());
  }
  int status = 0;
  HttpGet(server_->port(), "/stats", &status);
  EXPECT_EQ(status, 200);
}

// Untrusted input: a client that sends a partial request line and then
// nothing (here `GET /vess`, no newline) used to hold the inline accept loop
// in recv() forever, starving every later client.
TEST_F(HttpServerTest, StalledClientDoesNotBlockOthers) {
  const int stalled = Connect(server_->port());
  ASSERT_GE(stalled, 0);
  ASSERT_EQ(::send(stalled, "GET /vess", 9, MSG_NOSIGNAL), 9);

  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  HttpGet(server_->port(), "/stats", &status);
  const double waited_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ::close(stalled);
  EXPECT_EQ(status, 200);
  EXPECT_LT(waited_sec, 5.0);
}

// The same stall used to make Stop() hang: shutting the listening socket
// does not wake a recv() on an accepted one.
TEST_F(HttpServerTest, StopReturnsWhileClientStalled) {
  const int stalled = Connect(server_->port());
  ASSERT_GE(stalled, 0);
  ASSERT_EQ(::send(stalled, "GET /vess", 9, MSG_NOSIGNAL), 9);

  auto stopped = std::async(std::launch::async, [this] { server_->Stop(); });
  if (stopped.wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    ::close(stalled);  // unblocks the server so the test can finish
    stopped.wait();
    FAIL() << "Stop() still blocked 5 s after a client stalled mid-request";
  }
  ::close(stalled);
}

TEST_F(HttpServerTest, RequestSentOneByteAtATimeIsServed) {
  const int fd = Connect(server_->port());
  ASSERT_GE(fd, 0);
  const int no_delay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
  const std::string request = "GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n";
  // TCP_NODELAY puts every byte in its own segment. The server may answer
  // and close as soon as the request line is complete, so a later send can
  // fail; the response is still readable.
  for (const char byte : request) {
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) break;
  }
  EXPECT_EQ(StatusOf(ReadAllAndClose(fd)), 200);
}

TEST_F(HttpServerTest, TruncatedRequestGetsResponse) {
  const int fd = Connect(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, "GET /sta", 8, MSG_NOSIGNAL), 8);
  ::shutdown(fd, SHUT_WR);
  EXPECT_EQ(StatusOf(ReadAllAndClose(fd)), 400);

  int status = 0;
  HttpGet(server_->port(), "/stats", &status);
  EXPECT_EQ(status, 200);
}

TEST_F(HttpServerTest, OversizedRequestsGetResponses) {
  const std::string padding(20000, 'a');
  const std::string long_line = "GET /" + padding + " HTTP/1.1\r\n\r\n";
  const std::string long_headers =
      "GET /stats HTTP/1.1\r\nX-Pad: " + padding + "\r\n\r\n";
  for (const std::string& request : {long_line, long_headers}) {
    const int fd = Connect(server_->port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    EXPECT_GT(StatusOf(ReadAllAndClose(fd)), 0) << request.substr(0, 32);
  }

  int status = 0;
  HttpGet(server_->port(), "/stats", &status);
  EXPECT_EQ(status, 200);
}

TEST(HttpServerStandaloneTest, DoubleStartRejected) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  ApiService api(&pipeline);
  HttpServer server(&api, 0);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
}

}  // namespace
}  // namespace marlin
