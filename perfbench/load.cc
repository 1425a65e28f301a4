#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>

#include "serve/http_client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Sends one request, reconnecting first if an earlier error dropped the
/// connection. Returns the response body on a 2xx, nullopt otherwise.
std::optional<std::string> Send(foresight::HttpClient& client, uint16_t port,
                                const Request& request) {
  if (!client.connected() && !client.Connect(port).ok()) return std::nullopt;
  auto response = client.Request(request.method(), request.target,
                                 request.body);
  if (!response.ok()) {
    client.Disconnect();
    return std::nullopt;
  }
  if (response->status < 200 || response->status >= 300) return std::nullopt;
  return std::move(response->body);
}

/// Machine-wide (steal, total) CPU ticks from /proc/stat.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t ticks[8] = {};
  stat >> cpu;
  for (uint64_t& tick : ticks) stat >> tick;
  uint64_t total = 0;
  for (uint64_t tick : ticks) total += tick;
  return {ticks[7], total};
}

/// Share of the CPU ticks since `before` that the hypervisor gave to other
/// guests.
double StealShare(std::pair<uint64_t, uint64_t> before) {
  const auto after = CpuTicks();
  const uint64_t total = after.second - before.second;
  return total == 0 ? 0.0
                    : static_cast<double>(after.first - before.first) /
                          static_cast<double>(total);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

LoadResult RunClosedLoop(uint16_t port, size_t connections, double seconds,
                         size_t segments, const RequestSource& source,
                         size_t keep_every, size_t keep_max) {
  struct PerConnection {
    std::vector<std::pair<size_t, double>> samples;  ///< (segment, ms)
    std::vector<KeptResponse> kept;
    size_t sent = 0;
    size_t failed = 0;
  };
  std::vector<PerConnection> per(connections);
  const double segment_s = seconds / static_cast<double>(segments);
  const Clock::time_point start = Clock::now();
  auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point deadline = at(seconds);
  std::vector<std::jthread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      PerConnection& mine = per[c];
      foresight::HttpClient client;
      while (Clock::now() < deadline) {
        const size_t k = mine.sent++;
        const Request request = source(c, k);
        const Clock::time_point sent = Clock::now();
        std::optional<std::string> body = Send(client, port, request);
        const Clock::time_point done = Clock::now();
        if (!body.has_value()) {
          ++mine.failed;
          continue;
        }
        const auto segment = static_cast<size_t>(
            std::chrono::duration<double>(done - start).count() / segment_s);
        mine.samples.emplace_back(std::min(segment, segments - 1),
                                  MillisBetween(sent, done));
        if (k % keep_every == 0 && mine.kept.size() < keep_max) {
          mine.kept.push_back({c, k, std::move(*body)});
        }
      }
    });
  }
  LoadResult result;
  result.segments.resize(segments);
  for (size_t i = 0; i < segments; ++i) {
    const auto ticks = CpuTicks();
    std::this_thread::sleep_until(at(segment_s * static_cast<double>(i + 1)));
    result.segments[i].seconds = segment_s;
    result.segments[i].steal_share = StealShare(ticks);
  }
  for (std::jthread& thread : threads) thread.join();

  for (PerConnection& mine : per) {
    for (const auto& [segment, ms] : mine.samples) {
      result.latencies_ms.push_back(ms);
      result.segments[segment].latencies_ms.push_back(ms);
    }
    result.attempted += mine.sent;
    result.failed += mine.failed;
    result.sent.push_back(mine.sent);
    for (KeptResponse& kept : mine.kept) result.kept.push_back(std::move(kept));
  }
  return result;
}

LoadResult RunOpenLoop(uint16_t port, double rate, double seconds,
                       size_t max_requests,
                       const std::function<Request(size_t k)>& source) {
  LoadResult result;
  std::vector<double> lags_ms;
  foresight::HttpClient client;
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < max_requests; ++k) {
    const double due_s = static_cast<double>(k) / rate;
    if (due_s >= seconds) break;
    const Request request = source(k);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    lags_ms.push_back(MillisBetween(due, Clock::now()));
    ++result.attempted;
    std::optional<std::string> body = Send(client, port, request);
    if (!body.has_value()) {
      ++result.failed;
      continue;
    }
    result.latencies_ms.push_back(MillisBetween(due, Clock::now()));
    result.bodies.push_back(std::move(*body));
  }
  result.sent.push_back(result.attempted);
  result.send_lag_p50_ms = Quantile(lags_ms, 0.5);
  result.send_lag_max_ms =
      lags_ms.empty() ? 0.0 : *std::max_element(lags_ms.begin(), lags_ms.end());
  return result;
}

}  // namespace perfbench
