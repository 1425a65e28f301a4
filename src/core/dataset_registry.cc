#include "core/dataset_registry.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/snapshot.h"
#include "data/csv.h"
#include "util/logging.h"
#include "util/timer.h"

namespace foresight {

StatusOr<std::shared_ptr<ResidentDataset>> ResidentDataset::Load(
    const DatasetSpec& spec, const DatasetRegistryOptions& options) {
  // shared_ptr pins the table/engine/session group: the engine points at
  // table_ and the session at *engine_, so none of them may relocate.
  std::shared_ptr<ResidentDataset> dataset(new ResidentDataset());
  dataset->id_ = spec.id;
  FORESIGHT_ASSIGN_OR_RETURN(dataset->table_,
                             CsvReader::ReadFile(spec.table_path));

  EngineOptions engine_options;
  engine_options.num_workers = options.num_workers;
  engine_options.collect_metrics = options.collect_metrics;

  if (!spec.snapshot_path.empty()) {
    StatusOr<TableProfile> loaded =
        LoadProfileSnapshotFile(dataset->table_, spec.snapshot_path);
    if (loaded.ok()) {
      FORESIGHT_ASSIGN_OR_RETURN(
          InsightEngine engine,
          InsightEngine::CreateFromProfile(dataset->table_,
                                           std::move(loaded).value(),
                                           std::move(engine_options)));
      dataset->engine_.emplace(std::move(engine));
      dataset->from_snapshot_ = true;
    } else {
      // Snapshots are a cache: a corrupt or shape-stale file downgrades to a
      // rebuild instead of failing the dataset.
      std::fprintf(stderr,
                   "foresight: snapshot '%s' for dataset '%s' unusable, "
                   "rebuilding profile: %s\n",
                   spec.snapshot_path.c_str(), spec.id.c_str(),
                   loaded.status().ToString().c_str());
    }
  }
  if (!dataset->engine_.has_value()) {
    // The rebuild profiles on the engine's own pool, so the dataset's worker
    // count reaches preprocessing too.
    FORESIGHT_ASSIGN_OR_RETURN(
        InsightEngine engine,
        InsightEngine::Create(dataset->table_, std::move(engine_options)));
    dataset->engine_.emplace(std::move(engine));
  }
  dataset->session_.emplace(*dataset->engine_);
  dataset->resident_bytes_.store(
      dataset->table_.EstimateMemoryBytes() +
      dataset->engine_->profile().EstimateMemoryBytes());
  return dataset;
}

StatusOr<DatasetAppendOutcome> ResidentDataset::Append(
    const DataTable& delta) {
  WriterLock lock(data_mutex_);
  FORESIGHT_ASSIGN_OR_RETURN(AppendStats stats,
                             engine_->AppendPartition(table_, delta));
  if (stats.rows_appended > 0) mutated_.store(true);
  resident_bytes_.store(table_.EstimateMemoryBytes() +
                        engine_->profile().EstimateMemoryBytes());
  DatasetAppendOutcome outcome;
  outcome.rows_before = stats.rows_before;
  outcome.rows_appended = stats.rows_appended;
  outcome.num_rows = stats.num_rows;
  outcome.delta_merged = stats.delta_merged;
  outcome.serving_epoch = engine_->serving_epoch();
  outcome.resident_bytes = resident_bytes_.load();
  return outcome;
}

DatasetRegistry::DatasetRegistry(DatasetRegistryOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    MetricsRegistry& metrics = *options_.metrics;
    hits_metric_ = &metrics.counter("registry.hits_total");
    misses_metric_ = &metrics.counter("registry.misses_total");
    loads_metric_ = &metrics.counter("registry.loads_total");
    evictions_metric_ = &metrics.counter("registry.evictions_total");
    load_failures_metric_ = &metrics.counter("registry.load_failures_total");
    resident_bytes_metric_ = &metrics.gauge("registry.resident_bytes");
    resident_datasets_metric_ = &metrics.gauge("registry.resident_datasets");
    load_ms_metric_ = &metrics.histogram("registry.load_ms");
  }
}

Status DatasetRegistry::Add(DatasetSpec spec) {
  if (spec.id.empty()) {
    return Status::InvalidArgument("dataset id must not be empty");
  }
  if (spec.table_path.empty()) {
    return Status::InvalidArgument("dataset '" + spec.id +
                                   "' has no table path");
  }
  MutexLock lock(mutex_);
  auto [it, inserted] = entries_.try_emplace(spec.id);
  if (!inserted) {
    return Status::AlreadyExists("dataset '" + spec.id +
                                 "' is already registered");
  }
  it->second.spec = std::move(spec);
  return Status::OK();
}

StatusOr<std::vector<DatasetSpec>> DatasetRegistry::ScanDirectory(
    const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::NotFound("'" + directory + "' is not a directory");
  }
  std::vector<DatasetSpec> specs;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".csv") {
      continue;
    }
    DatasetSpec spec;
    spec.id = entry.path().stem().string();
    spec.table_path = entry.path().string();
    fs::path snapshot = entry.path();
    snapshot.replace_extension(".fsnap");
    if (fs::exists(snapshot)) spec.snapshot_path = snapshot.string();
    specs.push_back(std::move(spec));
  }
  if (ec) {
    return Status::IOError("error scanning '" + directory +
                           "': " + ec.message());
  }
  // Directory iteration order is filesystem-dependent; ids are not.
  std::sort(specs.begin(), specs.end(),
            [](const DatasetSpec& a, const DatasetSpec& b) {
              return a.id < b.id;
            });
  return specs;
}

bool DatasetRegistry::EvictUntilFits(
    size_t incoming_bytes, const std::string& keep,
    std::vector<std::shared_ptr<ResidentDataset>>* doomed) {
  const size_t budget = options_.memory_budget_bytes;
  if (budget == 0) return true;  // Unlimited.
  if (incoming_bytes > budget) return false;
  while (resident_bytes_ + incoming_bytes > budget) {
    // O(residents) LRU scan; the resident set is small by construction
    // (bounded by budget / dataset size), so a heap buys nothing here.
    Entry* victim = nullptr;
    for (auto& [id, entry] : entries_) {
      if (entry.resident == nullptr || id == keep) continue;
      // A mutated dataset's on-disk sources no longer describe its resident
      // state; evicting it would silently drop appended rows on reload.
      if (entry.resident->mutated()) continue;
      if (victim == nullptr ||
          entry.last_used_tick < victim->last_used_tick) {
        victim = &entry;
      }
    }
    if (victim == nullptr) return false;  // Nothing left to evict.
    resident_bytes_ -= victim->accounted_bytes;
    victim->accounted_bytes = 0;
    doomed->push_back(std::move(victim->resident));
    victim->resident = nullptr;
    ++evictions_;
    if (evictions_metric_ != nullptr) evictions_metric_->Increment();
  }
  return true;
}

void DatasetRegistry::PublishGauges() {
  if (resident_bytes_metric_ == nullptr) return;
  resident_bytes_metric_->Set(static_cast<double>(resident_bytes_));
  size_t resident = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.resident != nullptr) ++resident;
  }
  resident_datasets_metric_->Set(static_cast<double>(resident));
}

StatusOr<std::shared_ptr<const ResidentDataset>> DatasetRegistry::Acquire(
    const std::string& id) {
  FORESIGHT_ASSIGN_OR_RETURN(std::shared_ptr<ResidentDataset> dataset,
                             AcquireMutable(id));
  return std::shared_ptr<const ResidentDataset>(std::move(dataset));
}

StatusOr<std::shared_ptr<ResidentDataset>> DatasetRegistry::AcquireMutable(
    const std::string& id) {
  DatasetSpec spec;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      return Status::NotFound("unknown dataset '" + id + "'");
    }
    Entry& entry = it->second;
    // Single-flight: exactly one thread loads a cold entry; the rest wait
    // and re-check. A waiter finding the entry still cold (the load failed,
    // or the dataset was oversized and served unpinned) takes over the load.
    while (true) {
      if (entry.resident != nullptr) {
        entry.last_used_tick = ++tick_;
        ++hits_;
        if (hits_metric_ != nullptr) hits_metric_->Increment();
        return entry.resident;
      }
      if (!entry.loading) break;
      load_cv_.Wait(mutex_);
    }
    entry.loading = true;
    ++misses_;
    if (misses_metric_ != nullptr) misses_metric_->Increment();
    spec = entry.spec;
  }

  // The load — CSV parse, snapshot decode or profile rebuild, engine and
  // session construction — runs with the registry unlocked, so hits on
  // other datasets never queue behind a cold start.
  // determinism-ok: load latency is reporting-only telemetry.
  WallTimer timer;
  StatusOr<std::shared_ptr<ResidentDataset>> loaded =
      ResidentDataset::Load(spec, options_);
  const double load_ms = timer.ElapsedSeconds() * 1e3;

  std::vector<std::shared_ptr<ResidentDataset>> doomed;
  Status result_status = Status::OK();
  std::shared_ptr<ResidentDataset> result;
  {
    MutexLock lock(mutex_);
    Entry& entry = entries_.at(id);
    entry.loading = false;
    load_cv_.NotifyAll();
    if (!loaded.ok()) {
      ++load_failures_;
      if (load_failures_metric_ != nullptr) {
        load_failures_metric_->Increment();
      }
      result_status = loaded.status();
    } else {
      ++loads_;
      if (loads_metric_ != nullptr) loads_metric_->Increment();
      if (load_ms_metric_ != nullptr) load_ms_metric_->Record(load_ms);
      std::shared_ptr<ResidentDataset> dataset = std::move(loaded).value();
      if (entry.resident != nullptr) {
        // An Append reinstalled a mutated copy while this load ran; the
        // mutated state wins, and the fresh (pre-append) load is dropped.
        entry.last_used_tick = ++tick_;
        result = entry.resident;
        doomed.push_back(std::move(dataset));
      } else if (EvictUntilFits(dataset->resident_bytes(), id, &doomed)) {
        entry.resident = dataset;
        entry.last_used_tick = ++tick_;
        entry.accounted_bytes = dataset->resident_bytes();
        resident_bytes_ += entry.accounted_bytes;
        peak_resident_bytes_ = std::max(peak_resident_bytes_,
                                        resident_bytes_);
        result = std::move(dataset);
      } else {
        // Larger than the whole budget — serve this acquisition unpinned;
        // the dataset dies with the caller's reference.
        result = std::move(dataset);
      }
      PublishGauges();
    }
  }
  // Evicted datasets (and a failed load's partial state) destruct outside
  // the registry lock: a QuerySession destructor takes its engine's
  // MetricsRegistry lock, and mutex_ stays a leaf.
  doomed.clear();
  if (!result_status.ok()) return result_status;
  return result;
}

StatusOr<DatasetAppendOutcome> DatasetRegistry::Append(
    const std::string& id, const DataTable& delta) {
  FORESIGHT_ASSIGN_OR_RETURN(std::shared_ptr<ResidentDataset> dataset,
                             AcquireMutable(id));
  // The append — table growth, delta profile build, sketch merges — runs
  // with the registry unlocked; the dataset's own data_mutex() (held
  // exclusively inside Append) serializes it against that dataset's
  // queries and other appends without stalling the rest of the registry.
  FORESIGHT_ASSIGN_OR_RETURN(DatasetAppendOutcome outcome,
                             dataset->Append(delta));

  std::vector<std::shared_ptr<ResidentDataset>> doomed;
  {
    MutexLock lock(mutex_);
    Entry& entry = entries_.at(id);
    if (entry.resident != dataset) {
      // Evicted (or served unpinned) mid-append. The appended state must
      // not be lost — the client already got an acknowledgement — so the
      // mutated copy is (re)installed, displacing any reloaded one.
      if (entry.resident != nullptr) {
        resident_bytes_ -= entry.accounted_bytes;
        doomed.push_back(std::move(entry.resident));
      }
      entry.resident = dataset;
      entry.accounted_bytes = 0;
    }
    // Re-account the grown footprint: subtract exactly what this entry had
    // added, then add its current (atomic) estimate.
    resident_bytes_ -= entry.accounted_bytes;
    entry.accounted_bytes = entry.resident->resident_bytes();
    resident_bytes_ += entry.accounted_bytes;
    entry.last_used_tick = ++tick_;
    peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
    // The growth may push the total over budget; shed other residents. A
    // false return (everything else is mutated or this dataset alone now
    // exceeds the budget) is tolerated: appended rows must not be lost, so
    // the budget temporarily overshoots rather than dropping data.
    EvictUntilFits(0, id, &doomed);
    PublishGauges();
  }
  doomed.clear();
  return outcome;
}

bool DatasetRegistry::contains(const std::string& id) const {
  MutexLock lock(mutex_);
  return entries_.count(id) > 0;
}

size_t DatasetRegistry::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::vector<DatasetEntryInfo> DatasetRegistry::ListEntries() const {
  MutexLock lock(mutex_);
  std::vector<DatasetEntryInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    DatasetEntryInfo info;
    info.id = id;
    info.resident = entry.resident != nullptr;
    info.has_snapshot = !entry.spec.snapshot_path.empty();
    info.resident_bytes =
        entry.resident != nullptr ? entry.resident->resident_bytes() : 0;
    infos.push_back(std::move(info));
  }
  return infos;
}

DatasetRegistryStats DatasetRegistry::stats() const {
  MutexLock lock(mutex_);
  DatasetRegistryStats stats;
  stats.resident_bytes = resident_bytes_;
  stats.peak_resident_bytes = peak_resident_bytes_;
  stats.total_datasets = entries_.size();
  for (const auto& [id, entry] : entries_) {
    if (entry.resident != nullptr) ++stats.resident_datasets;
  }
  stats.hits = hits_;
  stats.misses = misses_;
  stats.loads = loads_;
  stats.evictions = evictions_;
  stats.load_failures = load_failures_;
  return stats;
}

}  // namespace foresight
