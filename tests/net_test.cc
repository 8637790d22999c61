// Epoll front end under hostile clients and overload: pipelined replies must
// stay in request order, overlong lines and slowloris dribbles must be cut
// off with a structured reply, clients that stop reading must be
// disconnected once the write-buffer cap is hit, mid-request disconnects
// must never crash or leak, the per-connection inflight cap and max_conns
// must reject with structured codes, and the deadline/admission machinery in
// the serving layer must shed exactly the requests that can no longer make
// their budget.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/event_loop.h"
#include "net/front_end.h"
#include "serve/batcher.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "util/logging.h"

namespace bootleg {
namespace {

using namespace std::chrono_literals;

// --- Socket helpers ----------------------------------------------------------

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BOOTLEG_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  BOOTLEG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) == 0);
  return fd;
}

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

/// Reads one newline-terminated reply. Empty string = EOF or timeout.
std::string ReadReplyLine(int fd) {
  std::string reply;
  char c;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n != 1) return "";
    if (c == '\n') return reply;
    reply.push_back(c);
  }
}

/// Reads until EOF (recv returns 0) or timeout; true on clean EOF.
bool ReadUntilEof(int fd) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0) return false;
  }
}

// --- Transport-level handler -------------------------------------------------

/// Protocol stub for transport tests: echoes lines (optionally with a fixed
/// large payload), or holds completions so tests control reply timing and
/// ordering.
class EchoHandler : public net::LineHandler {
 public:
  void HandleLineAsync(std::string line, Done done) override {
    received.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (hold.load(std::memory_order_relaxed)) {
        held.emplace_back(std::move(line), std::move(done));
        held_cv.notify_all();
        return;
      }
      reply = payload.empty() ? "echo:" + line : payload;
    }
    done(std::move(reply));
  }

  /// `payload` is read by the I/O threads; tests must set it through here.
  void SetPayload(std::string p) {
    std::lock_guard<std::mutex> lock(mu);
    payload = std::move(p);
  }

  std::string TransportErrorReply(net::TransportError error) override {
    switch (error) {
      case net::TransportError::kLineTooLong:
        return R"({"ok":false,"code":"line_too_long"})";
      case net::TransportError::kTooManyInflight:
        return R"({"ok":false,"code":"too_many_inflight"})";
      case net::TransportError::kServerFull:
        return R"({"ok":false,"code":"server_full"})";
    }
    return R"({"ok":false,"code":"error"})";
  }

  void WaitForHeld(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    held_cv.wait_for(lock, 5s, [&] { return held.size() >= n; });
    ASSERT_GE(held.size(), n);
  }

  /// Completes every held request, optionally in reverse arrival order (the
  /// transport must still reply in request order).
  void ReleaseHeld(bool reverse) {
    std::vector<std::pair<std::string, Done>> batch;
    {
      std::lock_guard<std::mutex> lock(mu);
      batch.swap(held);
    }
    if (reverse) std::reverse(batch.begin(), batch.end());
    for (auto& [line, done] : batch) done("echo:" + line);
  }

  std::atomic<int> received{0};
  std::atomic<bool> hold{false};
  std::string payload;  // when set, every reply is this string

  std::mutex mu;
  std::condition_variable held_cv;
  std::vector<std::pair<std::string, Done>> held;
};

struct FrontEndFixture {
  explicit FrontEndFixture(net::FrontEndOptions options) {
    options.port = 0;
    fe = std::make_unique<net::FrontEnd>(options, &handler);
    BOOTLEG_CHECK(fe->Start().ok());
  }
  ~FrontEndFixture() { fe->Stop(); }

  EchoHandler handler;
  std::unique_ptr<net::FrontEnd> fe;
};

// --- Event loop --------------------------------------------------------------

TEST(EventLoopTest, PostRunsClosuresOnLoopThread) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&] { loop.Run(); });

  std::atomic<bool> on_loop{false};
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    loop.Post([&] {
      on_loop.store(loop.InLoopThread());
      ran.fetch_add(1);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (ran.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 10);
  EXPECT_TRUE(on_loop.load());
  EXPECT_FALSE(loop.InLoopThread());

  loop.Stop();
  runner.join();
}

TEST(EventLoopTest, RunAfterFiresInDueOrder) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&] { loop.Run(); });

  std::mutex mu;
  std::vector<int> order;
  std::condition_variable cv;
  loop.Post([&] {
    // Armed out of order on purpose; firing order must follow due times,
    // with insertion order breaking ties.
    loop.RunAfter(60, [&] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(3);
      cv.notify_all();
    });
    loop.RunAfter(10, [&] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(1);
    });
    loop.RunAfter(30, [&] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(2);
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, 5s, [&] { return order.size() == 3; });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
  loop.Stop();
  runner.join();
}

// --- Pipelining and reply ordering -------------------------------------------

TEST(NetFrontEndTest, PipelinedRequestsGetInOrderReplies) {
  FrontEndFixture fx{net::FrontEndOptions{}};
  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);

  // All 50 requests in one write: the transport must frame and reply to
  // each, in order, on the same connection.
  std::string burst;
  for (int i = 0; i < 50; ++i) burst += "req" + std::to_string(i) + "\n";
  ASSERT_TRUE(SendAll(fd, burst));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ReadReplyLine(fd), "echo:req" + std::to_string(i));
  }
  ::close(fd);
}

TEST(NetFrontEndTest, OutOfOrderCompletionsStillReplyInRequestOrder) {
  net::FrontEndOptions options;
  FrontEndFixture fx{options};
  fx.handler.hold.store(true);

  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);
  ASSERT_TRUE(SendAll(fd, "a\nb\nc\nd\n"));
  fx.handler.WaitForHeld(4);
  fx.handler.ReleaseHeld(/*reverse=*/true);

  EXPECT_EQ(ReadReplyLine(fd), "echo:a");
  EXPECT_EQ(ReadReplyLine(fd), "echo:b");
  EXPECT_EQ(ReadReplyLine(fd), "echo:c");
  EXPECT_EQ(ReadReplyLine(fd), "echo:d");
  ::close(fd);
}

// --- Hostile clients ---------------------------------------------------------

TEST(NetFrontEndTest, GiantLineGetsStructuredErrorThenDisconnect) {
  net::FrontEndOptions options;
  options.max_line_bytes = 1024;
  FrontEndFixture fx{options};

  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);
  // 8 KiB with the newline at the end: the line itself exceeds the cap.
  std::string giant(8 * 1024, 'x');
  giant += '\n';
  ASSERT_TRUE(SendAll(fd, giant));

  const std::string reply = ReadReplyLine(fd);
  EXPECT_NE(reply.find("line_too_long"), std::string::npos) << reply;
  EXPECT_TRUE(ReadUntilEof(fd));
  ::close(fd);
  EXPECT_EQ(fx.fe->stats().overlong_line_disconnects, 1);
  EXPECT_EQ(fx.handler.received.load(), 0);  // never reached the protocol
}

TEST(NetFrontEndTest, SlowlorisDribbleIsCutOffAtCap) {
  net::FrontEndOptions options;
  options.max_line_bytes = 1024;
  FrontEndFixture fx{options};

  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);
  // Dribble newline-free chunks; the unterminated line must be cut off once
  // it outgrows the cap, no matter how slowly it arrives.
  const std::string chunk(128, 'y');
  for (int i = 0; i < 12 && SendAll(fd, chunk); ++i) {
    std::this_thread::sleep_for(5ms);
  }
  const std::string reply = ReadReplyLine(fd);
  EXPECT_NE(reply.find("line_too_long"), std::string::npos) << reply;
  EXPECT_TRUE(ReadUntilEof(fd));
  ::close(fd);

  // The front end survives: a well-behaved client is still served.
  const int fd2 = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd2, 5000);
  ASSERT_TRUE(SendAll(fd2, "hello\n"));
  EXPECT_EQ(ReadReplyLine(fd2), "echo:hello");
  ::close(fd2);
}

TEST(NetFrontEndTest, DeadReaderIsDisconnectedAtWriteBufferCap) {
  net::FrontEndOptions options;
  options.write_buf_bytes = 64 * 1024;
  options.max_inflight_per_conn = 4;  // keep the reply pipeline tight
  FrontEndFixture fx{options};
  fx.handler.SetPayload(std::string(32 * 1024, 'z'));  // every reply is 32 KiB

  const int fd = ConnectLoopback(fx.fe->port());
  // Request replies but never read them. Once more than write_buf_bytes of
  // replies are stuck, the server must cut this connection loose instead of
  // buffering without bound.
  bool cut_off = false;
  for (int i = 0; i < 5000; ++i) {
    if (!SendAll(fd, "gimme\n")) {
      cut_off = true;
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(cut_off);
  ::close(fd);
  EXPECT_GE(fx.fe->stats().slow_client_disconnects, 1);

  // Server is healthy afterwards.
  fx.handler.SetPayload("");
  const int fd2 = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd2, 5000);
  ASSERT_TRUE(SendAll(fd2, "ping\n"));
  EXPECT_EQ(ReadReplyLine(fd2), "echo:ping");
  ::close(fd2);
}

TEST(NetFrontEndTest, MidRequestDisconnectDropsLateReplySafely) {
  FrontEndFixture fx{net::FrontEndOptions{}};
  fx.handler.hold.store(true);

  const int fd = ConnectLoopback(fx.fe->port());
  ASSERT_TRUE(SendAll(fd, "orphan\n"));
  fx.handler.WaitForHeld(1);
  ::close(fd);  // client vanishes while its request is in flight

  // Give the loop a moment to observe the EOF/reset, then complete the
  // request — the reply must be dropped, not delivered to a freed
  // connection.
  std::this_thread::sleep_for(50ms);
  fx.handler.ReleaseHeld(/*reverse=*/false);
  std::this_thread::sleep_for(50ms);

  const int fd2 = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd2, 5000);
  fx.handler.hold.store(false);
  ASSERT_TRUE(SendAll(fd2, "still-up\n"));
  EXPECT_EQ(ReadReplyLine(fd2), "echo:still-up");
  ::close(fd2);
}

// --- Fairness and connection caps --------------------------------------------

TEST(NetFrontEndTest, InflightCapRejectsExcessPipelining) {
  net::FrontEndOptions options;
  options.max_inflight_per_conn = 4;
  FrontEndFixture fx{options};
  fx.handler.hold.store(true);

  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    burst += 'r';
    burst += std::to_string(i);
    burst += '\n';
  }
  ASSERT_TRUE(SendAll(fd, burst));
  fx.handler.WaitForHeld(4);  // only the cap's worth reach the protocol
  EXPECT_EQ(fx.handler.received.load(), 4);
  fx.handler.ReleaseHeld(/*reverse=*/false);

  // In-order replies: the 4 accepted requests, then 6 structured rejects.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadReplyLine(fd), "echo:r" + std::to_string(i));
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(ReadReplyLine(fd).find("too_many_inflight"), std::string::npos);
  }
  // The connection survives the rejects.
  fx.handler.hold.store(false);
  ASSERT_TRUE(SendAll(fd, "after\n"));
  EXPECT_EQ(ReadReplyLine(fd), "echo:after");
  ::close(fd);
}

TEST(NetFrontEndTest, MaxConnsRefusesWithServerFull) {
  net::FrontEndOptions options;
  options.max_conns = 2;
  FrontEndFixture fx{options};

  const int fd1 = ConnectLoopback(fx.fe->port());
  const int fd2 = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd1, 5000);
  SetRecvTimeout(fd2, 5000);
  ASSERT_TRUE(SendAll(fd1, "a\n"));
  ASSERT_TRUE(SendAll(fd2, "b\n"));
  EXPECT_EQ(ReadReplyLine(fd1), "echo:a");
  EXPECT_EQ(ReadReplyLine(fd2), "echo:b");

  const int fd3 = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd3, 5000);
  const std::string refusal = ReadReplyLine(fd3);
  EXPECT_NE(refusal.find("server_full"), std::string::npos) << refusal;
  EXPECT_TRUE(ReadUntilEof(fd3));
  ::close(fd3);
  EXPECT_EQ(fx.fe->stats().rejected_connections, 1);

  // Closing one admitted connection frees a slot.
  ::close(fd1);
  std::this_thread::sleep_for(50ms);
  const int fd4 = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd4, 5000);
  ASSERT_TRUE(SendAll(fd4, "c\n"));
  EXPECT_EQ(ReadReplyLine(fd4), "echo:c");
  ::close(fd4);
  ::close(fd2);
}

// --- Idle reaper and reply coalescing ----------------------------------------

TEST(NetFrontEndTest, IdleConnectionsAreReapedActiveOnesSurvive) {
  net::FrontEndOptions options;
  // Generous timeout relative to the 30ms heartbeat below: the busy
  // connection must never look idle even when a sanitized build on a loaded
  // host stalls the pinging thread for a few hundred milliseconds.
  options.idle_timeout_ms = 400;
  FrontEndFixture fx{options};

  const int idle_fd = ConnectLoopback(fx.fe->port());
  const int busy_fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(idle_fd, 5000);
  SetRecvTimeout(busy_fd, 5000);

  // The busy connection keeps talking well past the timeout; every request
  // refreshes its activity clock, so only the silent one gets reaped.
  const auto deadline = std::chrono::steady_clock::now() + 1200ms;
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(SendAll(busy_fd, "ping\n"));
    ASSERT_EQ(ReadReplyLine(busy_fd), "echo:ping");
    std::this_thread::sleep_for(30ms);
  }
  EXPECT_TRUE(ReadUntilEof(idle_fd));  // reaper closed it
  EXPECT_EQ(fx.fe->stats().idle_disconnects, 1);

  // The survivor still works.
  ASSERT_TRUE(SendAll(busy_fd, "still\n"));
  EXPECT_EQ(ReadReplyLine(busy_fd), "echo:still");
  ::close(busy_fd);
  ::close(idle_fd);
}

TEST(NetFrontEndTest, RequestWithSlowHandlerIsNotReaped) {
  net::FrontEndOptions options;
  options.idle_timeout_ms = 100;
  FrontEndFixture fx{options};
  fx.handler.hold.store(true);

  // The connection goes quiet for several timeout periods, but its request
  // is still in flight — reaping it would drop a reply the client is owed.
  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);
  ASSERT_TRUE(SendAll(fd, "slow\n"));
  fx.handler.WaitForHeld(1);
  std::this_thread::sleep_for(400ms);
  EXPECT_EQ(fx.fe->stats().idle_disconnects, 0);
  fx.handler.ReleaseHeld(/*reverse=*/false);
  EXPECT_EQ(ReadReplyLine(fd), "echo:slow");
  ::close(fd);
}

TEST(NetFrontEndTest, CoalescedLargeRepliesSurvivePartialWrites) {
  // Replies far larger than a socket buffer force the coalesced writev to
  // stop mid-stream repeatedly; the unsent tail must land in the write
  // buffer byte-exactly, in request order.
  net::FrontEndOptions options;
  options.write_buf_bytes = 64 << 20;
  FrontEndFixture fx{options};
  fx.handler.hold.store(true);

  constexpr int kReplies = 6;
  constexpr size_t kPayload = 196 * 1024;
  const int fd = ConnectLoopback(fx.fe->port());
  SetRecvTimeout(fd, 5000);
  std::string burst;
  for (int i = 0; i < kReplies; ++i) {
    burst += 'q';
    burst += std::to_string(i);
    burst += '\n';
  }
  ASSERT_TRUE(SendAll(fd, burst));
  fx.handler.WaitForHeld(kReplies);

  // Complete all held requests with distinct large payloads; they become
  // ready in the same event-loop pass and flush through one coalesced path.
  {
    std::vector<std::pair<std::string, net::LineHandler::Done>> batch;
    {
      std::lock_guard<std::mutex> lock(fx.handler.mu);
      batch.swap(fx.handler.held);
    }
    for (auto& [line, done] : batch) {
      done(line + ":" + std::string(kPayload, 'a' + (line.back() - '0')));
    }
  }
  for (int i = 0; i < kReplies; ++i) {
    const std::string reply = ReadReplyLine(fd);
    ASSERT_EQ(reply.size(), 3 + kPayload) << "reply " << i;
    EXPECT_EQ(reply.substr(0, 3), 'q' + std::to_string(i) + ':');
    EXPECT_EQ(reply.back(), static_cast<char>('a' + i));
  }
  ::close(fd);
}

// --- Serving layer: deadlines and admission control --------------------------

/// A batch function whose first call blocks until released; everything the
/// worker cannot reach in the meantime piles up in the batcher queue.
struct GatedBatch {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  serve::MicroBatcher::BatchFn Fn() {
    return [this](const std::vector<serve::BatchItem>& items, int) {
      {
        std::unique_lock<std::mutex> lock(mu);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
      }
      return std::vector<serve::SentenceResult>(items.size());
    };
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, 5s, [this] { return entered; });
    ASSERT_TRUE(entered);
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

std::string CodeOf(const std::string& reply) {
  util::StatusOr<serve::Json> parsed = serve::Json::Parse(reply);
  if (!parsed.ok() || !parsed.value().is_object()) return "unparseable";
  const serve::Json* ok = parsed.value().Find("ok");
  if (ok != nullptr && ok->bool_value()) return "ok";
  return parsed.value().GetString("code", "missing");
}

TEST(ServerDeadlineTest, QueuedRequestsPastDeadlineAreShed) {
  serve::BatcherOptions options;
  options.max_batch = 1;
  options.max_queue = 64;
  GatedBatch gate;
  serve::ServerCounters counters;
  serve::MicroBatcher batcher(options, gate.Fn(), nullptr, &counters);
  serve::Server server(nullptr, &batcher, &counters, nullptr);

  std::mutex mu;
  std::vector<std::string> replies;
  auto collect = [&](std::string reply) {
    std::lock_guard<std::mutex> lock(mu);
    replies.push_back(std::move(reply));
  };

  // Occupy the only worker, then queue requests with a 30ms budget.
  server.HandleLineAsync(R"({"op":"disambiguate","text":"warm"})", collect);
  gate.WaitEntered();
  for (int i = 0; i < 4; ++i) {
    server.HandleLineAsync(
        R"({"op":"disambiguate","text":"hurry","deadline_ms":30})", collect);
  }
  // Let every queued budget expire, then release the worker.
  std::this_thread::sleep_for(100ms);
  gate.Release();
  batcher.Shutdown();  // drains: every callback has fired after this

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(replies.size(), 5u);
  int ok = 0, shed = 0;
  for (const std::string& r : replies) {
    if (CodeOf(r) == "ok") ++ok;
    if (CodeOf(r) == "deadline_exceeded") ++shed;
  }
  EXPECT_EQ(ok, 1);    // the warm request had no deadline
  EXPECT_EQ(shed, 4);  // every budgeted request expired in the queue
  EXPECT_EQ(counters.shed.load(), 4);
}

TEST(ServerDeadlineTest, InvalidDeadlineIsBadRequest) {
  serve::BatcherOptions options;
  serve::ServerCounters counters;
  serve::MicroBatcher batcher(
      options,
      [](const std::vector<serve::BatchItem>& items, int) {
        return std::vector<serve::SentenceResult>(items.size());
      },
      nullptr, &counters);
  serve::Server server(nullptr, &batcher, &counters, nullptr);
  const std::string reply = server.HandleLine(
      R"({"op":"disambiguate","text":"x","deadline_ms":-5})");
  EXPECT_EQ(CodeOf(reply), "bad_request");
  batcher.Shutdown();
}

TEST(ServerAdmissionTest, WatermarkRejectsWithOverloaded) {
  serve::BatcherOptions options;
  options.max_batch = 1;
  options.max_queue = 64;
  GatedBatch gate;
  serve::ServerCounters counters;
  serve::MicroBatcher batcher(options, gate.Fn(), nullptr, &counters);
  serve::ServerOptions sopts;
  sopts.admission_watermark = 2;
  serve::Server server(nullptr, &batcher, &counters, nullptr, sopts);

  std::mutex mu;
  std::vector<std::string> replies;
  auto collect = [&](std::string reply) {
    std::lock_guard<std::mutex> lock(mu);
    replies.push_back(std::move(reply));
  };

  server.HandleLineAsync(R"({"op":"disambiguate","text":"w"})", collect);
  gate.WaitEntered();  // worker busy; the queue is now under our control
  server.HandleLineAsync(R"({"op":"disambiguate","text":"q1"})", collect);
  server.HandleLineAsync(R"({"op":"disambiguate","text":"q2"})", collect);
  // Queue depth is at the watermark: admission control turns these away
  // synchronously with a structured reply.
  int overloaded_now = 0;
  for (int i = 0; i < 3; ++i) {
    std::string reply;
    server.HandleLineAsync(R"({"op":"disambiguate","text":"late"})",
                           [&](std::string r) { reply = std::move(r); });
    if (CodeOf(reply) == "overloaded") ++overloaded_now;
  }
  EXPECT_EQ(overloaded_now, 3);
  EXPECT_EQ(counters.overloaded.load(), 3);

  gate.Release();
  batcher.Shutdown();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(replies.size(), 3u);  // w, q1, q2 all served
  for (const std::string& r : replies) EXPECT_EQ(CodeOf(r), "ok");
}

TEST(ServerNetTest, TcpStatsExposeNetAndSheddingFields) {
  serve::BatcherOptions options;
  serve::ServerCounters counters;
  serve::MicroBatcher batcher(
      options,
      [](const std::vector<serve::BatchItem>& items, int) {
        return std::vector<serve::SentenceResult>(items.size());
      },
      nullptr, &counters);
  serve::ServerOptions sopts;
  sopts.io_threads = 2;
  serve::Server server(nullptr, &batcher, &counters, nullptr, sopts);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const int fd = ConnectLoopback(server.port());
  SetRecvTimeout(fd, 5000);
  ASSERT_TRUE(SendAll(fd, R"({"op":"disambiguate","text":"hi"})" "\n"));
  EXPECT_EQ(CodeOf(ReadReplyLine(fd)), "ok");

  ASSERT_TRUE(SendAll(fd, R"({"op":"stats"})" "\n"));
  util::StatusOr<serve::Json> stats = serve::Json::Parse(ReadReplyLine(fd));
  ASSERT_TRUE(stats.ok());
  const serve::Json& s = stats.value();
  EXPECT_EQ(s.GetNumber("requests"), 1.0);
  EXPECT_EQ(s.GetNumber("shed"), 0.0);
  EXPECT_EQ(s.GetNumber("overloaded"), 0.0);
  const serve::Json* jnet = s.Find("net");
  ASSERT_NE(jnet, nullptr);
  EXPECT_GE(jnet->GetNumber("connections"), 1.0);
  EXPECT_GE(jnet->GetNumber("accepted"), 1.0);
  EXPECT_EQ(jnet->GetNumber("accept_errors"), 0.0);
  EXPECT_EQ(jnet->GetNumber("slow_client_disconnects"), 0.0);
  EXPECT_EQ(jnet->GetNumber("idle_disconnects"), 0.0);
  ::close(fd);

  server.Stop();
  batcher.Shutdown();
}

TEST(ServerNetTest, ManyConnectionsAcrossLoopsAllServed) {
  serve::BatcherOptions options;
  options.max_batch = 16;
  options.max_queue = 512;
  serve::ServerCounters counters;
  serve::MicroBatcher batcher(
      options,
      [](const std::vector<serve::BatchItem>& items, int) {
        return std::vector<serve::SentenceResult>(items.size());
      },
      nullptr, &counters);
  serve::ServerOptions sopts;
  sopts.io_threads = 2;
  serve::Server server(nullptr, &batcher, &counters, nullptr, sopts);
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kConns = 64;
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    const int fd = ConnectLoopback(server.port());
    SetRecvTimeout(fd, 10000);
    fds.push_back(fd);
    ASSERT_TRUE(SendAll(fd, R"({"op":"disambiguate","text":"hi"})" "\n"));
  }
  for (const int fd : fds) {
    EXPECT_EQ(CodeOf(ReadReplyLine(fd)), "ok");
    ::close(fd);
  }
  server.Stop();
  batcher.Shutdown();
}

}  // namespace
}  // namespace bootleg
