// Open-loop load generator: one process, one thread, four pipelined TCP
// connections. Arrivals are a seeded Poisson process; every request is timed
// from its scheduled send time, so a stall in the server (or in this
// generator) is charged to every request it delays, and the generator's own
// lateness is reported next to the latencies.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "probe.h"

namespace bootleg::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 4;
/// A read of a freshly added entity is scheduled this long after its add,
/// and is held back further until the add's reply has arrived.
constexpr int64_t kReadAfterAddUs = 50000;
/// After the last scheduled request, replies are awaited this long; a
/// request still unanswered then counts as missing.
constexpr int64_t kDrainUs = 5000000;

enum Status : int { kOk = 0, kErrorReply = 1, kWrong = 2, kMissing = 3, kConnError = 4 };

struct Item {
  int64_t t_us = 0;
  char kind = 'r';  // r read, a add, n read of an added entity, h health
  int64_t index = 0;  // request line (r) or add number (a, n)
};

struct Record {
  int64_t sent_us = -1;
  int64_t recv_us = -1;
  int status = kMissing;
  std::string code;
};

struct Connection {
  int fd = -1;
  std::deque<size_t> pending;  // item indices awaiting replies, in send order
  std::string buf;
  bool dead = false;
};

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Entity ids of every mention in a disambiguate reply, in order, as the
/// oracle writes them ("-" for none). A plain scan, independent of the
/// server's JSON code.
std::string EntityIds(const std::string& reply) {
  std::string ids;
  const std::string key = "\"entity\":";
  for (size_t pos = reply.find(key); pos != std::string::npos;
       pos = reply.find(key, pos + 1)) {
    size_t p = pos + key.size();
    while (p < reply.size() && reply[p] == ' ') ++p;
    size_t q = p;
    while (q < reply.size() && (reply[q] == '-' || std::isdigit(static_cast<unsigned char>(reply[q])))) ++q;
    if (!ids.empty()) ids += ',';
    ids.append(reply, p, q - p);
  }
  return ids.empty() ? "-" : ids;
}

std::string ErrorCode(const std::string& reply) {
  const std::string key = "\"code\":\"";
  const size_t pos = reply.find(key);
  if (pos == std::string::npos) return "error";
  const size_t end = reply.find('"', pos + key.size());
  return reply.substr(pos + key.size(), end - pos - key.size());
}

bool IsOk(const std::string& reply) {
  return reply.find("\"ok\":true") != std::string::npos;
}

std::string AddTitle(int64_t k) { return "pbnew" + std::to_string(k); }

}  // namespace

int CmdLoad(const Args& args) {
  const int port = static_cast<int>(args.Int("port", 0));
  const double rate = args.Num("rate", 100.0);
  const double seconds = args.Num("seconds", 1.0);
  const double adds_per_s = args.Num("adds_per_s", 0.0);
  const int64_t add_base = args.Int("add_base", 0);
  const int64_t health_every = args.Int("health_every", 0);
  std::mt19937_64 rng(static_cast<uint64_t>(args.Int("seed", 1)));

  const std::vector<std::string> lines = ReadLines(args.Get("requests"));
  const std::vector<std::string> expected = ReadLines(args.Get("expected"));
  if (lines.size() != expected.size()) {
    std::fprintf(stderr, "error: %zu requests but %zu expectations\n",
                 lines.size(), expected.size());
    return 1;
  }
  std::vector<int64_t> reads;
  std::vector<int64_t> add_templates;
  for (size_t i = 0; i < lines.size(); ++i) {
    const bool add = lines[i].find("\"op\":\"add_entity\"") != std::string::npos;
    (add ? add_templates : reads).push_back(static_cast<int64_t>(i));
  }
  if (reads.empty()) {
    std::fprintf(stderr, "error: no read requests in %s\n", args.Get("requests").c_str());
    return 1;
  }

  // The schedule: Poisson reads, plus adds at a fixed rate, each followed by
  // a read of the new entity's alias.
  std::vector<Item> items;
  const int64_t end_us = static_cast<int64_t>(seconds * 1e6);
  std::exponential_distribution<double> gap(rate);
  const size_t first = static_cast<size_t>(rng() % reads.size());
  double t = gap(rng);
  for (int64_t i = 0; t * 1e6 < static_cast<double>(end_us); ++i, t += gap(rng)) {
    const int64_t t_us = static_cast<int64_t>(t * 1e6);
    items.push_back({t_us, 'r', reads[(first + static_cast<size_t>(i)) % reads.size()]});
    if (health_every > 0 && i % health_every == health_every / 2) {
      items.push_back({t_us + 1, 'h', 0});
    }
  }
  int64_t adds = 0;
  if (adds_per_s > 0.0 && !add_templates.empty()) {
    for (int64_t k = 0;; ++k) {
      const int64_t t_us = static_cast<int64_t>((k + 0.5) / adds_per_s * 1e6);
      if (t_us + kReadAfterAddUs >= end_us) break;
      items.push_back({t_us, 'a', k});
      items.push_back({t_us + kReadAfterAddUs, 'n', k});
      adds = k + 1;
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.t_us < b.t_us; });

  Connection conns[kConnections];
  for (Connection& c : conns) {
    c.fd = Connect(port);
    if (c.fd < 0) {
      std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%d\n", port);
      return 1;
    }
  }

  std::vector<Record> records(items.size());
  // The server's replies to workload reads, kept for the traced run's
  // serve.json.dump timing when --replies names a file.
  const std::string replies_path = args.Get("replies");
  const bool keep_replies = !replies_path.empty();
  std::vector<std::string> replies;
  std::vector<int> add_done(static_cast<size_t>(adds), 0);  // 0 open, 1 ok, 2 failed
  int64_t answered = 0;
  int64_t sent = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto now_us = [&start] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
        .count();
  };

  auto judge = [&](size_t idx, const std::string& reply) {
    const Item& item = items[idx];
    Record& rec = records[idx];
    if (!IsOk(reply)) {
      rec.status = kErrorReply;
      rec.code = ErrorCode(reply);
    } else if (item.kind == 'h') {
      rec.status = reply.find("\"serving\"") != std::string::npos ? kOk : kWrong;
    } else if (item.kind == 'a') {
      rec.status = kOk;
    } else if (item.kind == 'n') {
      std::string title = "\"title\":\"";
      title += AddTitle(add_base + item.index);
      title += '"';
      rec.status = reply.find(title) != std::string::npos ? kOk : kWrong;
    } else {
      rec.status = EntityIds(reply) == expected[static_cast<size_t>(item.index)] ? kOk : kWrong;
      if (keep_replies) replies.push_back(reply);
    }
    if (item.kind == 'a') {
      add_done[static_cast<size_t>(item.index)] = rec.status == kOk ? 1 : 2;
    }
  };

  auto fail_connection = [&](Connection& c) {
    c.dead = true;
    for (const size_t idx : c.pending) {
      records[idx].status = kConnError;
      if (items[idx].kind == 'a') add_done[static_cast<size_t>(items[idx].index)] = 2;
    }
    answered += static_cast<int64_t>(c.pending.size());
    c.pending.clear();
  };

  auto send_item = [&](size_t i) {
    const Item& item = items[i];
    std::string line;
    if (item.kind == 'h') {
      line = "{\"op\":\"health\"}";
    } else if (item.kind == 'a') {
      line = lines[static_cast<size_t>(
          add_templates[static_cast<size_t>(item.index) % add_templates.size()])];
      std::string title = "\"";
      title += AddTitle(add_base + item.index);
      title += '"';
      for (size_t p = line.find("\"@\""); p != std::string::npos; p = line.find("\"@\"")) {
        line.replace(p, 3, title);
      }
    } else if (item.kind == 'n') {
      line = "{\"op\":\"disambiguate\",\"text\":\"the " + AddTitle(add_base + item.index) +
             " was seen today .\"}";
    } else {
      line = lines[static_cast<size_t>(item.index)];
    }
    ++sent;
    Connection& c = conns[i % kConnections];
    if (c.dead) {
      records[i].status = kConnError;
      ++answered;
      return;
    }
    c.pending.push_back(i);
    records[i].sent_us = now_us();
    if (!SendAll(c.fd, line + "\n")) fail_connection(c);
  };

  // One thread multiplexes sending and receiving, so the generator takes as
  // little CPU from the server as it can: it sleeps in ppoll until the next
  // request is due or a reply arrives.
  size_t next = 0;
  std::deque<size_t> held;  // reads of added entities waiting for the add
  char chunk[65536];
  while (true) {
    int64_t now = now_us();
    while (!held.empty() &&
           add_done[static_cast<size_t>(items[held.front()].index)] != 0) {
      send_item(held.front());
      held.pop_front();
    }
    while (next < items.size() && items[next].t_us <= now) {
      if (items[next].kind == 'n' &&
          add_done[static_cast<size_t>(items[next].index)] == 0) {
        held.push_back(next);
      } else {
        send_item(next);
      }
      ++next;
      now = now_us();
    }
    const bool all_sent = next == items.size() && held.empty();
    if (all_sent && answered == sent) break;
    if (now > end_us + kDrainUs) break;
    int64_t wait_us = 1000;
    if (next < items.size()) wait_us = std::min(wait_us, items[next].t_us - now);
    pollfd fds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      fds[i] = {conns[i].dead ? -1 : conns[i].fd, POLLIN, 0};
    }
    const timespec timeout{0, std::max<int64_t>(wait_us, 0) * 1000};
    if (ppoll(fds, kConnections, &timeout, nullptr) <= 0) continue;
    for (int i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[i];
      const ssize_t n = recv(c.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        fail_connection(c);
        continue;
      }
      const int64_t t_recv = now_us();
      c.buf.append(chunk, static_cast<size_t>(n));
      size_t begin = 0;
      for (size_t nl = c.buf.find('\n'); nl != std::string::npos;
           nl = c.buf.find('\n', begin)) {
        if (!c.pending.empty()) {
          const size_t idx = c.pending.front();
          c.pending.pop_front();
          records[idx].recv_us = t_recv;
          judge(idx, c.buf.substr(begin, nl - begin));
          ++answered;
        }
        begin = nl + 1;
      }
      c.buf.erase(0, begin);
    }
  }
  for (const size_t idx : held) {
    records[idx].status = kMissing;
  }
  const double wall_s = static_cast<double>(now_us()) / 1e6;
  for (Connection& c : conns) close(c.fd);

  if (keep_replies) {
    std::ofstream out(replies_path);
    for (const std::string& r : replies) out << r << "\n";
    if (!out.good()) return 1;
  }

  // Raw samples: [kind, scheduled us, send lateness us, latency us, status].
  std::ofstream out(args.Get("out"));
  out << "{\"rate\": " << rate << ", \"seconds\": " << seconds
      << ", \"wall_s\": " << wall_s << ", \"adds\": " << adds << ", \"codes\": {";
  std::map<std::string, int64_t> codes;
  for (const Record& r : records) {
    if (!r.code.empty()) ++codes[r.code];
  }
  bool first_code = true;
  for (const auto& [code, n] : codes) {
    out << (first_code ? "" : ", ") << Quote(code) << ": " << n;
    first_code = false;
  }
  out << "}, \"records\": [";
  for (size_t i = 0; i < items.size(); ++i) {
    const Record& r = records[i];
    out << (i ? ",\n" : "\n") << "[\"" << items[i].kind << "\", " << items[i].t_us << ", "
        << (r.sent_us < 0 ? -1 : r.sent_us - items[i].t_us) << ", "
        << (r.recv_us < 0 ? -1 : r.recv_us - items[i].t_us) << ", " << r.status << "]";
  }
  out << "]}\n";
  return out.good() ? 0 : 1;
}

}  // namespace bootleg::perfbench
