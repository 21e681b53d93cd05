#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "bench.h"

namespace perfbench {

namespace {

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Appends whatever is readable now; false once the peer closed or failed.
bool ReadAvailable(int fd, std::string* buffer) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer->append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
}

// The request index of an "ok id=r<i> ..." / "error id=r<i> ..." line.
long ResponseIndex(const std::string& line) {
  const std::size_t at = line.find(" id=r");
  if (at == std::string::npos || at > 6) return -1;
  return std::strtol(line.c_str() + at + 5, nullptr, 10);
}

}  // namespace

std::vector<Arrival> MakeSchedule(double rate, std::size_t arrivals,
                                  const std::vector<double>& weights,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::discrete_distribution<std::size_t> kind(weights.begin(),
                                               weights.end());
  std::vector<Arrival> schedule(arrivals);
  double t = 0;
  for (Arrival& arrival : schedule) {
    t += gap(rng);
    arrival = {t, kind(rng)};
  }
  return schedule;
}

PhaseResult RunOpenLoop(int port, int connections,
                        const std::vector<RequestTemplate>& templates,
                        const std::vector<Arrival>& schedule,
                        double drain_limit_s) {
  PhaseResult result;
  const std::size_t n = schedule.size();
  result.attempted = static_cast<long>(n);
  std::vector<pollfd> fds;
  for (int c = 0; c < connections; ++c) {
    const int fd = Connect(port);
    if (fd < 0) break;
    fds.push_back({fd, POLLIN, 0});
  }
  if (fds.empty() || n == 0) {
    result.failed = result.attempted;
    result.failures.push_back("cannot connect");
    for (pollfd& p : fds) ::close(p.fd);
    return result;
  }
  std::vector<std::string> buffers(fds.size());
  std::vector<double> send_t(n, -1), recv_t(n, -1);
  std::vector<char> ok(n, 0);
  std::size_t next = 0, answered = 0;
  const double start = NowSeconds() + 0.005;
  const double deadline = start + schedule.back().due_s + drain_limit_s;

  auto handle_line = [&](const std::string& line) {
    const long index = ResponseIndex(line);
    if (index < 0 || static_cast<std::size_t>(index) >= n ||
        send_t[index] < 0 || recv_t[index] >= 0) {
      result.failures.push_back("unmatched response: " + line.substr(0, 120));
      return;
    }
    const double now = NowSeconds();
    recv_t[index] = now;
    ++answered;
    const std::string expected =
        "ok id=r" + std::to_string(index) + " " +
        templates[schedule[index].kind].expected;
    ok[index] = line == expected;
    if (!ok[index] && result.failures.size() < 5) {
      result.failures.push_back("got '" + line.substr(0, 160) +
                                "' expected '" + expected.substr(0, 160) + "'");
    }
  };

  bool io_failed = false;
  while (answered < n && !io_failed) {
    double now = NowSeconds();
    while (next < n && start + schedule[next].due_s <= now) {
      const std::string line = "id=r" + std::to_string(next) + " " +
                               templates[schedule[next].kind].request + "\n";
      send_t[next] = NowSeconds();
      if (!SendAll(fds[next % fds.size()].fd, line)) io_failed = true;
      ++next;
      now = NowSeconds();
    }
    if (now >= deadline) break;
    const double wait =
        next < n ? start + schedule[next].due_s - now : deadline - now;
    timespec ts{};
    const double clamped = std::max(0.0, wait);
    ts.tv_sec = static_cast<time_t>(clamped);
    ts.tv_nsec = static_cast<long>((clamped - std::floor(clamped)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!ReadAvailable(fds[c].fd, &buffers[c])) io_failed = true;
      std::size_t begin = 0;
      for (std::size_t eol; (eol = buffers[c].find('\n', begin)) !=
                            std::string::npos;
           begin = eol + 1) {
        handle_line(buffers[c].substr(begin, eol - begin));
      }
      buffers[c].erase(0, begin);
    }
  }
  for (pollfd& p : fds) ::close(p.fd);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  result.latency_by_request.assign(n, nan);
  result.late_by_request.assign(n, nan);
  for (std::size_t i = 0; i < n; ++i) {
    const double due = start + schedule[i].due_s;
    if (send_t[i] >= 0) result.late_ms.push_back(1e3 * (send_t[i] - due));
    if (recv_t[i] >= 0 && ok[i]) {
      result.latency_by_request[i] = 1e3 * (recv_t[i] - due);
      result.late_by_request[i] = result.late_ms.back();
      result.latency_ms.push_back(result.latency_by_request[i]);
    } else {
      // A failed or missing answer misses every latency limit.
      result.latency_ms.push_back(inf);
      ++result.failed;
    }
  }
  if (answered < n) {
    result.failures.push_back(std::to_string(n - answered) +
                              " requests unanswered");
  }
  return result;
}

SyncClient::SyncClient(int port) : fd_(Connect(port)) {}

SyncClient::~SyncClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool SyncClient::ReadLine(std::string* line) {
  char chunk[1 << 16];
  std::size_t eol;
  while ((eol = buffer_.find('\n')) == std::string::npos) {
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
  *line = buffer_.substr(0, eol);
  buffer_.erase(0, eol + 1);
  return true;
}

bool SyncClient::Exchange(const std::string& line,
                          std::vector<std::string>* response) {
  response->clear();
  if (fd_ < 0 || !SendAll(fd_, line + "\n")) return false;
  std::string first;
  if (!ReadLine(&first)) return false;
  response->push_back(first);
  const std::size_t at = first.find(" metrics=");
  const long payload =
      at == std::string::npos ? 0 : std::strtol(first.c_str() + at + 9, nullptr, 10);
  for (long i = 0; i < payload; ++i) {
    std::string more;
    if (!ReadLine(&more)) return false;
    response->push_back(more);
  }
  return true;
}

}  // namespace perfbench
