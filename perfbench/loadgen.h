// Open-loop load generator for the line protocol over TCP.
//
// One thread drives up to four connections with ppoll: each request is
// sent when it falls due (Poisson arrivals from a seeded stream), tagged
// `id=r<index>` so responses may return in any order, and timed from its
// due time. Every response line is compared byte for byte with the
// expected line.
#ifndef MCIRBM_PERFBENCH_LOADGEN_H_
#define MCIRBM_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One request kind: the line after `id=..`, and the expected response
/// after `ok id=..` (both without the trailing newline).
struct RequestTemplate {
  std::string request;
  std::string expected;
};

struct Arrival {
  double due_s = 0;        ///< offset from the phase start
  std::size_t kind = 0;    ///< index into the templates
};

/// `arrivals` Poisson arrivals at `rate` per second; each picks a
/// template by `weights`. Same arguments, same schedule.
std::vector<Arrival> MakeSchedule(double rate, std::size_t arrivals,
                                  const std::vector<double>& weights,
                                  std::uint64_t seed);

struct PhaseResult {
  /// Latency from due time, in schedule order; +inf when failed.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;     ///< send time - due time
  /// Per schedule index: latency from due time and lateness (ms); NaN
  /// when the request failed.
  std::vector<double> latency_by_request;
  std::vector<double> late_by_request;
  long attempted = 0;
  long failed = 0;                 ///< error, mismatch, or no answer
  std::vector<std::string> failures;  ///< first few, for stderr
};

/// Runs `schedule` against 127.0.0.1:`port` over `connections`
/// connections. Waits at most `drain_limit_s` past the last due time for
/// outstanding answers; those still missing count as failed.
PhaseResult RunOpenLoop(int port, int connections,
                        const std::vector<RequestTemplate>& templates,
                        const std::vector<Arrival>& schedule,
                        double drain_limit_s);

/// A blocking connection for sequential (closed-loop) exchanges.
class SyncClient {
 public:
  explicit SyncClient(int port);
  ~SyncClient();
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// Sends one request line and reads its response: the ok/error line
  /// plus, for op=stats, the `metrics=N` payload lines after it.
  bool Exchange(const std::string& line, std::vector<std::string>* response);

 private:
  bool ReadLine(std::string* line);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // MCIRBM_PERFBENCH_LOADGEN_H_
