#ifndef FORESIGHT_CORE_DATASET_REGISTRY_H_
#define FORESIGHT_CORE_DATASET_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "data/table.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace foresight {

/// Where a dataset's bytes live on disk.
struct DatasetSpec {
  /// Stable identifier (the wire API's `dataset` field). For directory scans
  /// this is the CSV file's stem.
  std::string id;
  /// CSV source of the table itself. Always required: profiles reference
  /// (never contain) their table, and sample vectors rematerialize from it.
  std::string table_path;
  /// Optional binary profile snapshot (core/snapshot.h). Empty = none; the
  /// profile is then rebuilt by Preprocessor::Profile on first use. A
  /// snapshot that fails to load (corrupt, stale shape) also falls back to a
  /// rebuild — snapshots are a cache, never the source of truth.
  std::string snapshot_path;
};

/// Sizing and per-dataset engine knobs for a DatasetRegistry.
struct DatasetRegistryOptions {
  /// Global budget over every resident dataset's estimated bytes (table +
  /// profile). 0 = unlimited. The registry admits a dataset only after
  /// evicting least-recently-used residents until it fits, so tracked
  /// resident bytes never exceed the budget; a single dataset larger than
  /// the whole budget is served unpinned (loaded, used, dropped).
  size_t memory_budget_bytes = 0;
  /// Worker threads per resident engine, which also builds the profile when
  /// a dataset has no usable snapshot. Defaults to 1 (serial): a node
  /// holding hundreds of datasets must not spin up hundreds of
  /// hardware-sized thread pools. 0 = hardware concurrency.
  size_t num_workers = 1;
  /// Per-dataset engine metrics. Off by default for the same reason; the
  /// registry's own metrics (below) stay on regardless.
  bool collect_metrics = false;
  /// Registry-level metrics (registry.* counters/gauges/histogram) land
  /// here when set — typically the serving engine's registry, so one
  /// /metrics scrape covers the whole stack.
  std::shared_ptr<MetricsRegistry> metrics;
};

/// What one append did to a resident dataset (the /v1/append response body
/// and the registry's re-accounting input).
struct DatasetAppendOutcome {
  size_t rows_before = 0;
  size_t rows_appended = 0;
  size_t num_rows = 0;
  /// True when the delta was merged into the existing profile; false when
  /// the engine fell back to a full re-preprocess (still correct, slower).
  bool delta_merged = false;
  /// The engine's serving epoch after the append (query caches keyed to an
  /// earlier epoch are now stale).
  uint64_t serving_epoch = 0;
  /// Re-estimated bytes after the append, for registry budget accounting.
  size_t resident_bytes = 0;
};

/// A fully attached dataset: the owning table, the engine adopting its
/// profile, and the serving session. Heap-pinned and handed out as
/// shared_ptr<const>, so an in-flight query keeps its dataset alive even if
/// the registry evicts it concurrently (eviction drops the registry's pin,
/// never the object under a reader).
///
/// Appendable: Append() grows the table in place under an internal
/// SharedMutex held exclusively; concurrent queries must hold the same
/// mutex shared (ReaderLock on data_mutex()) for the duration of each
/// request. The serving layer (serve/server.cc) enforces this pairing.
class ResidentDataset {
 public:
  const std::string& id() const { return id_; }
  const DataTable& table() const { return table_; }
  const InsightEngine& engine() const { return *engine_; }
  const QuerySession& session() const { return *session_; }
  /// Estimated bytes this dataset pins (table + profile), the unit the
  /// registry budget is accounted in. Atomic: re-estimated by Append while
  /// registry bookkeeping reads it.
  size_t resident_bytes() const { return resident_bytes_.load(); }
  /// Whether the profile came from a snapshot (false = rebuilt).
  bool loaded_from_snapshot() const { return from_snapshot_; }
  /// True once any Append succeeded. A mutated dataset's on-disk sources
  /// (CSV, snapshot) no longer describe its resident state, so the registry
  /// exempts it from eviction — reloading would silently drop rows.
  bool mutated() const { return mutated_.load(); }

  /// The append/query exclusion lock. Readers (query execution) take it
  /// shared; Append takes it exclusively itself. Exposed so the serving
  /// layer can hold the shared side across a whole request.
  SharedMutex& data_mutex() const { return data_mutex_; }

  /// Appends `delta` (same schema as table()) and folds it into the
  /// serving profile via InsightEngine::AppendPartition, taking
  /// data_mutex() exclusively for the duration. On success the dataset is
  /// permanently `mutated()` and resident_bytes() is re-estimated. On
  /// failure the table and profile are unchanged (AppendPartition's
  /// contract) unless the engine's internal rebuild also failed, in which
  /// case the error is surfaced and the dataset should be dropped.
  StatusOr<DatasetAppendOutcome> Append(const DataTable& delta);

  /// Loads a dataset end to end: CSV -> table, snapshot (or rebuild) ->
  /// profile, engine, session. Not registry-locked; see DatasetRegistry.
  static StatusOr<std::shared_ptr<ResidentDataset>> Load(
      const DatasetSpec& spec, const DatasetRegistryOptions& options);

 private:
  ResidentDataset() = default;

  std::string id_;
  DataTable table_;
  /// optional<> defers construction past table_; neither moves again after
  /// Load returns (the engine holds a pointer to table_, the session one to
  /// *engine_).
  std::optional<InsightEngine> engine_;
  std::optional<QuerySession> session_;
  /// Guards table_/engine_ state against concurrent append vs. query; see
  /// data_mutex(). mutable so const readers can lock it.
  mutable SharedMutex data_mutex_;
  RelaxedAtomic<size_t> resident_bytes_;
  RelaxedAtomic<bool> mutated_;
  bool from_snapshot_ = false;
};

/// Point-in-time registry counters (all since construction).
struct DatasetRegistryStats {
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
  size_t resident_datasets = 0;
  size_t total_datasets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
  uint64_t load_failures = 0;
};

/// One row of ListEntries() — enough for the /v1/datasets listing without
/// touching any dataset's bytes.
struct DatasetEntryInfo {
  std::string id;
  bool resident = false;
  bool has_snapshot = false;
  size_t resident_bytes = 0;  ///< 0 when not resident.
};

/// Byte-budgeted, lazily loading map of dataset id -> resident engine +
/// session (ROADMAP item 2: hundreds of datasets per node, attached in
/// milliseconds from snapshots, under a global memory budget).
///
/// Acquire(id) returns the resident dataset, loading it on first use:
/// single-flight (concurrent acquirers of one id wait on a CondVar while one
/// thread loads), with the load itself — CSV parse, snapshot decode or
/// profile rebuild, engine construction — performed OUTSIDE the registry
/// lock so a slow cold start never blocks hits on other datasets.
/// Admission evicts least-recently-used residents first, in the same
/// critical section, so the tracked resident total never exceeds the budget
/// (generalizing the QueryCache shard pattern from per-shard result bytes to
/// whole datasets).
///
/// Lock placement (util/sync.h hierarchy): DatasetRegistry::mutex_ is a
/// LEAF. Metric handles are resolved at construction and updated lock-free;
/// loads and evicted-dataset destruction (a QuerySession destructor takes
/// its engine's MetricsRegistry lock) both happen with mutex_ released.
///
/// Thread safety: all public methods are safe to call concurrently.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(DatasetRegistryOptions options = {});

  /// Registers a dataset. Fails with AlreadyExists on a duplicate id and
  /// InvalidArgument on an empty id or table path. Cheap: nothing loads
  /// until the first Acquire.
  Status Add(DatasetSpec spec);

  /// Builds specs from a directory: every `<id>.csv` becomes a dataset, and
  /// a sibling `<id>.fsnap` (if present) its snapshot. Deterministic: specs
  /// are returned in ascending id order regardless of directory order.
  static StatusOr<std::vector<DatasetSpec>> ScanDirectory(
      const std::string& directory);

  /// The resident dataset for `id`, loading it first if needed. The returned
  /// pin keeps the dataset alive across concurrent eviction; callers should
  /// hold it only for the duration of one request.
  StatusOr<std::shared_ptr<const ResidentDataset>> Acquire(
      const std::string& id);

  /// Appends `delta` to dataset `id` (loading it first if needed), folding
  /// the new rows into its serving profile. The append itself runs with the
  /// registry unlocked (it holds the dataset's own data_mutex()
  /// exclusively); afterwards the registry re-accounts the dataset's grown
  /// footprint and, if the budget is now exceeded, evicts OTHER residents —
  /// a mutated dataset is never evicted (its on-disk sources are stale).
  /// If the dataset was concurrently evicted mid-append, the appended state
  /// wins: it is reinstalled and the reloaded copy is dropped.
  StatusOr<DatasetAppendOutcome> Append(const std::string& id,
                                        const DataTable& delta);

  bool contains(const std::string& id) const;
  size_t size() const;
  /// All entries in ascending id order.
  std::vector<DatasetEntryInfo> ListEntries() const;
  DatasetRegistryStats stats() const;

  const DatasetRegistryOptions& options() const { return options_; }

 private:
  struct Entry {
    DatasetSpec spec;
    /// The registry's pin; empty when evicted/not yet loaded.
    std::shared_ptr<ResidentDataset> resident;
    /// Single-flight latch: true while some thread loads this entry with
    /// the registry lock released.
    bool loading = false;
    /// LRU clock value of the last Acquire touch.
    uint64_t last_used_tick = 0;
    /// Bytes this entry contributes to the registry's resident total.
    /// Tracked separately from resident->resident_bytes() because appends
    /// grow a dataset while the registry lock is released; re-accounting
    /// subtracts exactly what was added, never a stale live reading.
    size_t accounted_bytes = 0;
  };

  /// Acquire with a mutable pin (the single-flight load path shared by
  /// Acquire and Append).
  StatusOr<std::shared_ptr<ResidentDataset>> AcquireMutable(
      const std::string& id);

  /// Evicts LRU residents (other than `keep` and mutated datasets, whose
  /// on-disk sources are stale) until `incoming_bytes` fits the budget,
  /// moving dropped pins into `*doomed` for destruction after the lock is
  /// released. Returns false when it cannot fit (dataset larger than the
  /// whole budget).
  bool EvictUntilFits(size_t incoming_bytes, const std::string& keep,
                      std::vector<std::shared_ptr<ResidentDataset>>* doomed)
      FORESIGHT_REQUIRES(mutex_);

  void PublishGauges() FORESIGHT_REQUIRES(mutex_);

  const DatasetRegistryOptions options_;

  mutable Mutex mutex_;
  CondVar load_cv_;
  /// std::map: ListEntries and the eviction scan iterate it, and iteration
  /// must be deterministic.
  std::map<std::string, Entry> entries_ FORESIGHT_GUARDED_BY(mutex_);
  uint64_t tick_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  size_t resident_bytes_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  size_t peak_resident_bytes_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  uint64_t hits_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  uint64_t misses_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  uint64_t loads_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  uint64_t evictions_ FORESIGHT_GUARDED_BY(mutex_) = 0;
  uint64_t load_failures_ FORESIGHT_GUARDED_BY(mutex_) = 0;

  /// Resolved once at construction (creation takes the metrics-registry
  /// lock; updates are lock-free atomics safe under mutex_). Null when
  /// options_.metrics is null.
  Counter* hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;
  Counter* loads_metric_ = nullptr;
  Counter* evictions_metric_ = nullptr;
  Counter* load_failures_metric_ = nullptr;
  Gauge* resident_bytes_metric_ = nullptr;
  Gauge* resident_datasets_metric_ = nullptr;
  LatencyHistogram* load_ms_metric_ = nullptr;
};

}  // namespace foresight

#endif  // FORESIGHT_CORE_DATASET_REGISTRY_H_
