#ifndef FORESIGHT_SKETCH_INGEST_KERNELS_H_
#define FORESIGHT_SKETCH_INGEST_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace foresight {
namespace ingest_kernels {

// Blocked accumulation kernels, one per column kind, which BundleBuilder
// drives directly: DenseValuesAxpyGroup for columns without nulls (plus
// DenseOnesAxpy for the ones-side total they share), and GatherValuesAxpy /
// GatherOnesAxpy for columns with nulls, whose valid rows were compacted.
// `panel` is a row-major (rows x k) slab of random components; `acc` is the
// k-wide accumulator vector.
//
// Bit-identity contract: each acc[i] receives exactly one round-to-nearest
// multiply + one add per row, in ascending row order — the same operation
// sequence as the scalar row-at-a-time path (BundleBuilder::AccumulateNumeric).
// The implementations are cloned for AVX2 and dispatched by CPU feature at
// load time; the AVX2 clone vectorizes across the accumulator index i only,
// and AVX2 carries no FMA instruction set, so no fused multiply-add can alter
// the roundings. (AVX-512 is deliberately excluded: its feature set brings
// FMA, which would let the compiler contract mul+add pairs and break
// bit-identity with the scalar reference path.)

/// accs[c][i] += (values[c][j] * scale) * panel[j*k + i] for each row
/// j < count, over ncols column streams. The scaled value is rounded once per
/// row before the inner loop, exactly as the row-at-a-time path does
/// (scale == 1.0 is exact). Each column's accumulator receives its own
/// row-ordered addition sequence, but every four-row panel slab is loaded
/// once and swept by all columns while hot in L1 — the caller batches
/// columns in small groups so the group's accumulators stay cache-resident
/// too.
void DenseValuesAxpyGroup(const double* panel, const double* const* values,
                          size_t ncols, size_t count, size_t k, double scale,
                          double* const* accs);

/// acc[i] += (values[j] * scale) * panel[local_rows[j]*k + i] for each
/// j < count: one column with nulls, whose valid rows were compacted into
/// `values` and their panel-local row numbers into `local_rows`.
void GatherValuesAxpy(const double* panel, const uint32_t* local_rows,
                      const double* values, size_t count, size_t k,
                      double scale, double* acc);

/// acc[i] += scale * panel[j*k + i] for each row j < count.
void DenseOnesAxpy(const double* panel, size_t count, size_t k, double scale,
                   double* acc);

/// Gather variant of DenseOnesAxpy: row j lives at panel[local_rows[j]*k].
void GatherOnesAxpy(const double* panel, const uint32_t* local_rows,
                    size_t count, size_t k, double scale, double* acc);

}  // namespace ingest_kernels
}  // namespace foresight

#endif  // FORESIGHT_SKETCH_INGEST_KERNELS_H_
