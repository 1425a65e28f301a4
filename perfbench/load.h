#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One wire request of a workload's stream.
struct Request {
  enum class Kind { kQuery, kBatch, kOverview, kAppend };
  Kind kind = Kind::kQuery;
  std::string target;  ///< Path plus query string.
  std::string body;    ///< Empty for GETs (overviews).

  const char* method() const { return kind == Kind::kOverview ? "GET" : "POST"; }
};

/// Request k of connection c. Must be a pure function of (c, k): the traced
/// run replays the same stream in-process, and the gates recompute it.
using RequestSource = std::function<Request(size_t connection, size_t k)>;

/// A response body kept for a correctness gate.
struct KeptResponse {
  size_t connection = 0;
  size_t k = 0;
  std::string body;
};

/// One segment of a closed-loop window.
struct Segment {
  double seconds = 0.0;
  std::vector<double> latencies_ms;  ///< Successful reads.
  /// Share of machine CPU time the hypervisor gave to other guests.
  double steal_share = 0.0;
};


struct LoadResult {
  std::vector<double> latencies_ms;  ///< Successful requests only.
  size_t attempted = 0;
  size_t failed = 0;  ///< Non-2xx responses and transport errors.
  /// Requests completed (or failed) per connection: the prefix of each
  /// connection's stream that was sent.
  std::vector<size_t> sent;
  std::vector<KeptResponse> kept;
  /// Open loop only: how late the generator sent, in ms (median, max).
  double send_lag_p50_ms = 0.0;
  double send_lag_max_ms = 0.0;
  /// Open loop only: the 200 response bodies, in send order.
  std::vector<std::string> bodies;
  /// Closed loop only: one entry per segment.
  std::vector<Segment> segments;
};

/// Closed loop: `connections` threads, each with one keep-alive connection,
/// send back-to-back until `seconds` elapse. The window is cut into
/// `segments` equal segments; each read lands in the segment it completed
/// in, beside the host's steal share over that segment. Every
/// `keep_every`-th response of each connection (k % keep_every == 0) is
/// kept, up to `keep_max` per connection.
LoadResult RunClosedLoop(uint16_t port, size_t connections, double seconds,
                         size_t segments, const RequestSource& source,
                         size_t keep_every, size_t keep_max);

/// Open loop on one connection: request k is due at start + k / rate and its
/// latency is timed from then, so a stall also delays the requests behind
/// it. Sends at most `max_requests` before `seconds` elapse.
LoadResult RunOpenLoop(uint16_t port, double rate, double seconds,
                       size_t max_requests,
                       const std::function<Request(size_t k)>& source);

/// `q`-quantile of `values` (0 <= q <= 1), linear interpolation; 0 if empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
