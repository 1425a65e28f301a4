// foresight_serve: the v1 HTTP/JSON front-end over a QuerySession
// (DESIGN.md "Serve front-end"; README "Serving quick-start").
//
// Usage:
//   foresight_serve [--port=N] [--port-file=PATH] [--csv=PATH | --rows=N]
//                   [--workers=N] [--queue-capacity=N] [--idle-timeout-ms=N]
//                   [--datasets=DIR] [--memory-budget=BYTES]
//                   [--dataset-workers=N] [--no-profile] [--smoke]
//
//   --port=N            Listen port on 127.0.0.1 (default 0 = ephemeral).
//   --port-file=PATH    Write the bound port to PATH once listening — how CI
//                       and scripts find an ephemeral port without racing.
//   --csv=PATH          Serve this CSV table (default: synthetic OECD-like).
//   --rows=N            Synthetic table rows (default 800).
//   --workers=N         Engine worker threads (default 0 = hardware).
//   --queue-capacity=N  Admission queue depth before 503s (default 64).
//   --idle-timeout-ms=N Idle/slowloris connection reaper (default 10000).
//   --datasets=DIR      Multi-dataset mode: every DIR/<id>.csv becomes a
//                       selectable dataset (sibling <id>.fsnap snapshots are
//                       used when present), listed at GET /v1/datasets and
//                       addressed by the optional `dataset` field/parameter
//                       on the query routes. Datasets load lazily on first
//                       use; the default table keeps serving requests that
//                       name no dataset.
//   --memory-budget=BYTES  Global budget over resident dataset bytes
//                       (table + profile estimates); least-recently-used
//                       datasets are evicted to admit new ones. 0 (default)
//                       = unlimited.
//   --dataset-workers=N Worker threads per resident dataset engine
//                       (default 1; hundreds of datasets must not spawn
//                       hundreds of hardware-sized pools).
//   --appendable        Enable POST /v1/append on the default dataset:
//                       appended rows are delta-merged into the serving
//                       profile (full rebuild on sketch-geometry changes),
//                       with appends and queries excluded via a
//                       reader/writer lock. Registry datasets (--datasets)
//                       are always appendable via the `dataset` field.
//   --max-append-rows=N Upper bound on rows in one /v1/append body
//                       (default 100000).
//   --no-profile        Skip sketch preprocessing (exact-only serving).
//   --smoke             Start, answer one self-issued /healthz and
//                       /v1/query over a real socket — plus /v1/datasets and
//                       a dataset-selecting query when --datasets is set,
//                       plus an /v1/append + re-query leg when --appendable
//                       is set — then exit 0.
//
// The process runs until SIGINT/SIGTERM, then drains admitted requests and
// exits 0.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset_registry.h"
#include "core/engine.h"
#include "core/session.h"
#include "data/csv.h"
#include "data/generators.h"
#include "serve/http_client.h"
#include "serve/server.h"
#include "util/string_util.h"

namespace foresight {
namespace {

/// SIGINT/SIGTERM handler target: signal-safe flag the main loop watches.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: foresight_serve [--port=N] [--port-file=PATH] [--csv=PATH] "
      "[--rows=N]\n"
      "                       [--workers=N] [--queue-capacity=N] "
      "[--idle-timeout-ms=N]\n"
      "                       [--datasets=DIR] [--memory-budget=BYTES]\n"
      "                       [--dataset-workers=N] [--appendable]\n"
      "                       [--max-append-rows=N] [--no-profile] "
      "[--smoke]\n");
  return 1;
}

struct Args {
  uint16_t port = 0;
  std::string port_file;
  std::string csv_path;
  std::string datasets_dir;
  size_t rows = 800;
  size_t workers = 0;
  size_t queue_capacity = 64;
  size_t memory_budget = 0;
  size_t dataset_workers = 1;
  uint32_t idle_timeout_ms = 10'000;
  size_t max_append_rows = 100'000;
  bool appendable = false;
  bool build_profile = true;
  bool smoke = false;
};

int Smoke(uint16_t port, const DatasetRegistry* registry,
          const DataTable* appendable) {
  HttpClient client;
  Status status = client.Connect(port);
  if (!status.ok()) {
    std::fprintf(stderr, "smoke: connect failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  auto health = client.Request("GET", "/healthz");
  if (!health.ok() || health->status != 200) {
    std::fprintf(stderr, "smoke: /healthz failed\n");
    return 1;
  }
  auto query = client.Request(
      "POST", "/v1/query",
      R"({"class": "linear_relationship", "top_k": 3, "mode": "exact"})");
  if (!query.ok() || query->status != 200) {
    std::fprintf(stderr, "smoke: /v1/query failed (%d): %s\n",
                 query.ok() ? query->status : -1,
                 query.ok() ? query->body.c_str()
                            : query.status().ToString().c_str());
    return 1;
  }
  if (appendable != nullptr) {
    // One all-null row exercises the whole append path (wire decode, table
    // growth, delta merge, epoch bump) against any schema.
    std::string body = R"({"rows": [[)";
    for (size_t c = 0; c < appendable->num_columns(); ++c) {
      if (c > 0) body += ", ";
      body += "null";
    }
    body += "]]}";
    auto appended = client.Request("POST", "/v1/append", body);
    if (!appended.ok() || appended->status != 200) {
      std::fprintf(stderr, "smoke: /v1/append failed (%d): %s\n",
                   appended.ok() ? appended->status : -1,
                   appended.ok() ? appended->body.c_str()
                                 : appended.status().ToString().c_str());
      return 1;
    }
    auto requery = client.Request(
        "POST", "/v1/query",
        R"({"class": "linear_relationship", "top_k": 3, "mode": "exact"})");
    if (!requery.ok() || requery->status != 200) {
      std::fprintf(stderr, "smoke: post-append /v1/query failed\n");
      return 1;
    }
    std::printf("smoke append ok: %s\n", appended->body.c_str());
  }
  if (registry != nullptr) {
    auto listing = client.Request("GET", "/v1/datasets");
    if (!listing.ok() || listing->status != 200) {
      std::fprintf(stderr, "smoke: /v1/datasets failed\n");
      return 1;
    }
    const std::vector<DatasetEntryInfo> entries = registry->ListEntries();
    if (!entries.empty()) {
      const std::string body =
          R"({"class": "linear_relationship", "top_k": 3, "mode": "exact", )"
          R"("dataset": ")" +
          entries.front().id + R"("})";
      auto routed = client.Request("POST", "/v1/query", body);
      if (!routed.ok() || routed->status != 200) {
        std::fprintf(stderr, "smoke: dataset query failed (%d): %s\n",
                     routed.ok() ? routed->status : -1,
                     routed.ok() ? routed->body.c_str()
                                 : routed.status().ToString().c_str());
        return 1;
      }
      std::printf("smoke ok (dataset %s): %s\n", entries.front().id.c_str(),
                  routed->body.c_str());
      return 0;
    }
  }
  std::printf("smoke ok: %s\n", query->body.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  bool bad_value = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    size_t port_value = 0;
    size_t idle_timeout_ms = args.idle_timeout_ms;
    if (ParseSizeFlag(arg, "--port=", &port_value, &bad_value)) {
      if (port_value > 65535) return Usage();
      args.port = static_cast<uint16_t>(port_value);
    } else if (arg.rfind("--port-file=", 0) == 0) {
      args.port_file = arg.substr(12);
    } else if (arg.rfind("--csv=", 0) == 0) {
      args.csv_path = arg.substr(6);
    } else if (arg.rfind("--datasets=", 0) == 0) {
      args.datasets_dir = arg.substr(11);
    } else if (ParseSizeFlag(arg, "--rows=", &args.rows, &bad_value) ||
               ParseSizeFlag(arg, "--workers=", &args.workers, &bad_value) ||
               ParseSizeFlag(arg, "--memory-budget=", &args.memory_budget,
                             &bad_value) ||
               ParseSizeFlag(arg, "--dataset-workers=",
                             &args.dataset_workers, &bad_value) ||
               ParseSizeFlag(arg, "--max-append-rows=",
                             &args.max_append_rows, &bad_value) ||
               ParseSizeFlag(arg, "--queue-capacity=",
                             &args.queue_capacity, &bad_value)) {
    } else if (ParseSizeFlag(arg, "--idle-timeout-ms=", &idle_timeout_ms,
                             &bad_value)) {
      if (idle_timeout_ms > std::numeric_limits<uint32_t>::max()) {
        return Usage();
      }
      args.idle_timeout_ms = static_cast<uint32_t>(idle_timeout_ms);
    } else if (arg == "--appendable") {
      args.appendable = true;
    } else if (arg == "--no-profile") {
      args.build_profile = false;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      return Usage();
    }
  }
  if (bad_value || args.rows < 10 || args.queue_capacity == 0) {
    return Usage();
  }

  DataTable table = MakeOecdLike(args.rows, 17);
  if (!args.csv_path.empty()) {
    auto loaded = CsvReader::ReadFile(args.csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "foresight_serve: failed to read %s: %s\n",
                   args.csv_path.c_str(), loaded.status().ToString().c_str());
      return 1;
    }
    table = std::move(loaded).value();
  }

  EngineOptions engine_options;
  engine_options.num_workers = args.workers;
  engine_options.build_profile = args.build_profile;
  auto engine = InsightEngine::Create(table, std::move(engine_options));
  if (!engine.ok()) {
    std::fprintf(stderr, "foresight_serve: engine creation failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  QuerySession session(*engine);

  std::unique_ptr<DatasetRegistry> registry;
  if (!args.datasets_dir.empty()) {
    DatasetRegistryOptions registry_options;
    registry_options.memory_budget_bytes = args.memory_budget;
    registry_options.num_workers = args.dataset_workers;
    registry_options.metrics = engine->metrics();
    registry = std::make_unique<DatasetRegistry>(std::move(registry_options));
    auto specs = DatasetRegistry::ScanDirectory(args.datasets_dir);
    if (!specs.ok()) {
      std::fprintf(stderr, "foresight_serve: scanning %s failed: %s\n",
                   args.datasets_dir.c_str(),
                   specs.status().ToString().c_str());
      return 1;
    }
    for (DatasetSpec& spec : *specs) {
      Status added = registry->Add(std::move(spec));
      if (!added.ok()) {
        std::fprintf(stderr, "foresight_serve: registering dataset failed: "
                     "%s\n", added.ToString().c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "foresight_serve: %zu datasets from %s "
                 "(budget %zu bytes)\n", registry->size(),
                 args.datasets_dir.c_str(), args.memory_budget);
  }

  HttpServerOptions server_options;
  server_options.port = args.port;
  server_options.queue_capacity = args.queue_capacity;
  server_options.idle_timeout_ms = args.idle_timeout_ms;
  server_options.registry = registry.get();
  server_options.max_append_rows = args.max_append_rows;
  // Outlives the server (declared before it): orders /v1/append against
  // query execution on the default dataset.
  SharedMutex append_mutex;
  if (args.appendable) {
    server_options.appendable.table = &table;
    server_options.appendable.engine = &*engine;
    server_options.appendable.mutex = &append_mutex;
  }
  HttpServer server(session, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "foresight_serve: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "foresight_serve: listening on 127.0.0.1:%u "
               "(workers=%zu queue=%zu)\n",
               server.port(), engine->num_workers(), args.queue_capacity);
  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "foresight_serve: cannot write %s\n",
                   args.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  if (args.smoke) {
    const int rc = Smoke(server.port(), registry.get(),
                         args.appendable ? &table : nullptr);
    server.Stop();
    return rc;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    // Signal-driven sleep; the server threads do all the work.
    struct timespec interval = {0, 100'000'000};
    ::nanosleep(&interval, nullptr);
  }
  std::fprintf(stderr, "foresight_serve: draining and shutting down\n");
  server.Stop();
  return 0;
}

}  // namespace
}  // namespace foresight

int main(int argc, char** argv) { return foresight::Main(argc, argv); }
