#include "util/random.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace foresight {

namespace {
constexpr uint64_t kPcgMultiplier = 6364136223846793005ULL;
constexpr double kPi = 3.14159265358979323846;

// Ziggurat tables for the standard normal (Marsaglia & Tsang 2000), 128
// layers. kZigguratR is the x-coordinate of the base strip boundary; vn is
// the common strip area. Built once under the magic-static lock; read-only
// (and therefore thread-safe) afterwards.
constexpr double kZigguratR = 3.442619855899;

struct ZigguratTables {
  uint32_t kn[128];
  double wn[128];
  double fn[128];

  ZigguratTables() {
    const double m = 2147483648.0;  // 2^31: magnitudes are 31-bit.
    const double vn = 9.91256303526217e-3;
    double dn = kZigguratR;
    double tn = dn;
    double q = vn / std::exp(-0.5 * dn * dn);
    kn[0] = static_cast<uint32_t>((dn / q) * m);
    kn[1] = 0;
    wn[0] = q / m;
    wn[127] = dn / m;
    fn[0] = 1.0;
    fn[127] = std::exp(-0.5 * dn * dn);
    for (int i = 126; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
      kn[i + 1] = static_cast<uint32_t>((dn / tn) * m);
      tn = dn;
      fn[i] = std::exp(-0.5 * dn * dn);
      wn[i] = dn / m;
    }
  }
};

const ZigguratTables& Ziggurat() {
  static const ZigguratTables tables;
  return tables;
}
}  // namespace

Rng::Rng(uint64_t seed) {
  // PCG recommended seeding: mix the seed into both state and stream.
  state_ = 0;
  inc_ = (seed << 1u) | 1u;
  NextUint32();
  state_ += 0x853c49e6748fea9bULL + seed;
  NextUint32();
}

uint32_t Rng::NextUint32() {
  uint64_t old = state_;
  state_ = old * kPcgMultiplier + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint64_t Rng::NextUint64() {
  return (static_cast<uint64_t>(NextUint32()) << 32) | NextUint32();
}

uint64_t Rng::UniformInt(uint64_t bound) {
  FORESIGHT_CHECK(bound > 0);
  // Rejection sampling over the top of the range to avoid modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  // 53 random bits mapped to [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  // Ziggurat: the sign + layer index + magnitude all come from one 32-bit
  // draw. ~98% of draws take the single-compare fast path; the remainder
  // resolve exactly via wedge rejection (layers) or tail inversion (base).
  const ZigguratTables& z = Ziggurat();
  const int32_t hz = static_cast<int32_t>(NextUint32());
  const size_t i = static_cast<size_t>(hz & 127);
  const uint32_t mag = hz < 0 ? 0u - static_cast<uint32_t>(hz)
                              : static_cast<uint32_t>(hz);
  if (mag < z.kn[i]) return hz * z.wn[i];
  return NormalSlow(hz, i);
}

void Rng::FillNormals(double* out, size_t n) {
  // Batched ziggurat. The fast path is inlined with the PCG step hand-rolled
  // into the loop so the serial state recurrence (the real latency chain)
  // overlaps the table lookups and the store of the previous deviate. Draw
  // order — and therefore output — is identical to calling Normal() n times;
  // the rare slow cases defer to a private re-roll that mirrors Normal().
  const ZigguratTables& z = Ziggurat();
  uint64_t state = state_;
  const uint64_t inc = inc_;
  for (size_t j = 0; j < n; ++j) {
    const uint64_t old = state;
    state = old * kPcgMultiplier + inc;
    const uint32_t xorshifted =
        static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    const uint32_t rot = static_cast<uint32_t>(old >> 59u);
    const uint32_t bits =
        (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    const int32_t hz = static_cast<int32_t>(bits);
    const size_t i = static_cast<size_t>(hz & 127);
    const uint32_t mag = hz < 0 ? 0u - static_cast<uint32_t>(hz)
                                : static_cast<uint32_t>(hz);
    if (mag < z.kn[i]) {
      out[j] = hz * z.wn[i];
      continue;
    }
    // Slow case (~2%): publish the state and finish this deviate via the
    // shared wedge/tail logic, then resume batching.
    state_ = state;
    out[j] = NormalSlow(hz, i);
    state = state_;
  }
  state_ = state;
}

double Rng::NormalSlow(int32_t hz, size_t i) {
  const ZigguratTables& z = Ziggurat();
  for (;;) {
    if (i == 0) {
      // Base strip: exact sample from the tail beyond R.
      double x, y;
      do {
        double u1 = UniformDouble();
        double u2 = UniformDouble();
        while (u1 == 0.0) u1 = UniformDouble();
        while (u2 == 0.0) u2 = UniformDouble();
        x = -std::log(u1) / kZigguratR;
        y = -std::log(u2);
      } while (y + y < x * x);
      return hz > 0 ? kZigguratR + x : -(kZigguratR + x);
    }
    const double x = hz * z.wn[i];
    if (z.fn[i] + UniformDouble() * (z.fn[i - 1] - z.fn[i]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
    // Rejected: re-draw exactly as Normal() does.
    for (;;) {
      hz = static_cast<int32_t>(NextUint32());
      i = static_cast<size_t>(hz & 127);
      const uint32_t mag = hz < 0 ? 0u - static_cast<uint32_t>(hz)
                                  : static_cast<uint32_t>(hz);
      if (mag < z.kn[i]) return hz * z.wn[i];
      break;
    }
  }
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  FORESIGHT_CHECK(rate > 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

double Rng::LogNormal(double mu_log, double sigma_log) {
  return std::exp(Normal(mu_log, sigma_log));
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  FORESIGHT_CHECK(n > 0);
  FORESIGHT_CHECK(s > 0.0);
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_n_ = n;
    zipf_s_ = s;
    zipf_cdf_.assign(n, 0.0);
    double total = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      zipf_cdf_[i] = total;
    }
    for (uint64_t i = 0; i < n; ++i) zipf_cdf_[i] /= total;
  }
  double u = UniformDouble();
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<uint64_t>(it - zipf_cdf_.begin());
}

double Rng::StableSkewed(double alpha) {
  FORESIGHT_CHECK(alpha > 0.0 && alpha <= 2.0);
  // Chambers–Mallows–Stuck with beta = 1 (maximally right-skewed).
  double u = kPi * (UniformDouble() - 0.5);
  double w = Exponential(1.0);
  if (std::abs(alpha - 1.0) < 1e-12) {
    // alpha == 1, beta == 1 special case.
    double half_pi = kPi / 2.0;
    return (1.0 / half_pi) *
           ((half_pi + u) * std::tan(u) -
            std::log((half_pi * w * std::cos(u)) / (half_pi + u)));
  }
  double zeta = -std::tan(kPi * alpha / 2.0);  // beta = 1
  double xi = std::atan(-zeta) / alpha;
  double num = std::sin(alpha * (u + xi));
  double den = std::pow(std::cos(u), 1.0 / alpha);
  double tail = std::pow(std::cos(u - alpha * (u + xi)) / w, (1.0 - alpha) / alpha);
  return std::pow(1.0 + zeta * zeta, 1.0 / (2.0 * alpha)) * (num / den) * tail;
}

}  // namespace foresight
