#include "sketch/ingest_kernels.h"

#include "util/simd_clones.h"

namespace foresight {
namespace ingest_kernels {

// See the header for the bit-identity contract. Four rows per sweep keep
// each accumulator in a register across four adds; per-accumulator addition
// order stays strictly row-ascending (a = ((acc[i] + c0) + c1) + ... exactly
// as the row-at-a-time path), so the compiler may vectorize across i but
// never reassociates across rows.

FORESIGHT_KERNEL_CLONES
void DenseValuesAxpyGroup(const double* panel, const double* const* values,
                          size_t ncols, size_t count, size_t k, double scale,
                          double* const* accs) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* p0 = panel + j * k;
    const double* p1 = p0 + k;
    const double* p2 = p1 + k;
    const double* p3 = p2 + k;
    for (size_t c = 0; c < ncols; ++c) {
      const double* v = values[c];
      double* acc = accs[c];
      const double v0 = v[j] * scale;
      const double v1 = v[j + 1] * scale;
      const double v2 = v[j + 2] * scale;
      const double v3 = v[j + 3] * scale;
      for (size_t i = 0; i < k; ++i) {
        double a = acc[i];
        a += v0 * p0[i];
        a += v1 * p1[i];
        a += v2 * p2[i];
        a += v3 * p3[i];
        acc[i] = a;
      }
    }
  }
  for (; j < count; ++j) {
    const double* p = panel + j * k;
    for (size_t c = 0; c < ncols; ++c) {
      const double v = values[c][j] * scale;
      double* acc = accs[c];
      for (size_t i = 0; i < k; ++i) acc[i] += v * p[i];
    }
  }
}

FORESIGHT_KERNEL_CLONES
void GatherValuesAxpy(const double* panel, const uint32_t* local_rows,
                      const double* values, size_t count, size_t k,
                      double scale, double* acc) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* p0 = panel + local_rows[j] * k;
    const double* p1 = panel + local_rows[j + 1] * k;
    const double* p2 = panel + local_rows[j + 2] * k;
    const double* p3 = panel + local_rows[j + 3] * k;
    const double v0 = values[j] * scale;
    const double v1 = values[j + 1] * scale;
    const double v2 = values[j + 2] * scale;
    const double v3 = values[j + 3] * scale;
    for (size_t i = 0; i < k; ++i) {
      double a = acc[i];
      a += v0 * p0[i];
      a += v1 * p1[i];
      a += v2 * p2[i];
      a += v3 * p3[i];
      acc[i] = a;
    }
  }
  for (; j < count; ++j) {
    const double* p = panel + local_rows[j] * k;
    const double v = values[j] * scale;
    for (size_t i = 0; i < k; ++i) acc[i] += v * p[i];
  }
}

FORESIGHT_KERNEL_CLONES
void DenseOnesAxpy(const double* panel, size_t count, size_t k, double scale,
                   double* acc) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* p0 = panel + j * k;
    const double* p1 = p0 + k;
    const double* p2 = p1 + k;
    const double* p3 = p2 + k;
    for (size_t i = 0; i < k; ++i) {
      double a = acc[i];
      a += scale * p0[i];
      a += scale * p1[i];
      a += scale * p2[i];
      a += scale * p3[i];
      acc[i] = a;
    }
  }
  for (; j < count; ++j) {
    const double* p = panel + j * k;
    for (size_t i = 0; i < k; ++i) acc[i] += scale * p[i];
  }
}

FORESIGHT_KERNEL_CLONES
void GatherOnesAxpy(const double* panel, const uint32_t* local_rows,
                    size_t count, size_t k, double scale, double* acc) {
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const double* p0 = panel + local_rows[j] * k;
    const double* p1 = panel + local_rows[j + 1] * k;
    const double* p2 = panel + local_rows[j + 2] * k;
    const double* p3 = panel + local_rows[j + 3] * k;
    for (size_t i = 0; i < k; ++i) {
      double a = acc[i];
      a += scale * p0[i];
      a += scale * p1[i];
      a += scale * p2[i];
      a += scale * p3[i];
      acc[i] = a;
    }
  }
  for (; j < count; ++j) {
    const double* p = panel + local_rows[j] * k;
    for (size_t i = 0; i < k; ++i) acc[i] += scale * p[i];
  }
}

}  // namespace ingest_kernels
}  // namespace foresight
