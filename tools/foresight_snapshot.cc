// foresight_snapshot: build, inspect, and verify binary profile snapshots
// (core/snapshot.h; DESIGN.md "Profile snapshots & dataset registry").
//
// Usage:
//   foresight_snapshot build   --csv=PATH --out=PATH [--workers=N]
//   foresight_snapshot build   --synthetic-rows=N [--synthetic-numeric=N]
//                              [--synthetic-categorical=N] [--seed=N]
//                              --csv-out=PATH --out=PATH [--workers=N]
//   foresight_snapshot inspect --in=PATH
//   foresight_snapshot verify  --in=PATH --csv=PATH [--rebuild] [--workers=N]
//
//   build    Profile a CSV (or a generated benchmark table, written to
//            --csv-out so serving can load the same bytes) and write the
//            snapshot atomically to --out.
//   foresight_snapshot refresh --csv=PATH --in=PATH [--out=PATH]
//                              [--workers=N] [--force]
//
//   inspect  Print the prelude + header summary after validating both
//            checksums; exits non-zero on any corruption.
//   verify   Load the snapshot against the CSV it claims to describe and
//            report timings. With --rebuild, additionally re-preprocess the
//            table and require the restored profile's JSON document to be
//            byte-identical to the rebuilt one — the end-to-end
//            bit-identity gate used by CI.
//   refresh  Re-sync a snapshot with its (possibly appended-to) CSV: if the
//            snapshot still loads against the current table it is left
//            untouched; if it is stale — typically its row-count prelude no
//            longer matches after /v1/append grew the table — the profile
//            is rebuilt and rewritten (to --out when given, else in place).
//            --force rebuilds unconditionally.
//
// Exit status: 0 on success, 1 on any failure (including verification
// mismatches), 2 on usage errors.

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/profile.h"
#include "core/snapshot.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/table.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace foresight {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: foresight_snapshot build   --csv=PATH --out=PATH [--workers=N]\n"
      "       foresight_snapshot build   --synthetic-rows=N "
      "[--synthetic-numeric=N]\n"
      "                                  [--synthetic-categorical=N] "
      "[--seed=N]\n"
      "                                  --csv-out=PATH --out=PATH "
      "[--workers=N]\n"
      "       foresight_snapshot inspect --in=PATH\n"
      "       foresight_snapshot verify  --in=PATH --csv=PATH [--rebuild] "
      "[--workers=N]\n"
      "       foresight_snapshot refresh --csv=PATH --in=PATH [--out=PATH]\n"
      "                                  [--workers=N] [--force]\n");
  return 2;
}

struct Args {
  std::string command;
  std::string csv_path;
  std::string csv_out;
  std::string out_path;
  std::string in_path;
  size_t synthetic_rows = 0;
  size_t synthetic_numeric = 56;
  size_t synthetic_categorical = 8;
  uint64_t seed = 1;
  size_t workers = 0;
  bool rebuild = false;
  bool force = false;
};

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "foresight_snapshot: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

int RunBuild(const Args& args) {
  if (args.out_path.empty()) return Usage();
  if (args.csv_path.empty() == (args.synthetic_rows == 0)) {
    std::fprintf(stderr,
                 "foresight_snapshot: build needs exactly one of --csv or "
                 "--synthetic-rows\n");
    return 2;
  }

  std::string csv_path = args.csv_path;
  if (args.synthetic_rows != 0) {
    if (args.csv_out.empty()) {
      std::fprintf(stderr,
                   "foresight_snapshot: --synthetic-rows needs --csv-out "
                   "(serving must load the same bytes the profile saw)\n");
      return 2;
    }
    DataTable generated =
        MakeBenchmarkTable(args.synthetic_rows, args.synthetic_numeric,
                           args.synthetic_categorical, args.seed);
    Status written = CsvWriter::WriteFile(generated, args.csv_out);
    if (!written.ok()) return Fail("writing --csv-out", written);
    csv_path = args.csv_out;
  }

  // The profile is always built from the CSV-parsed table — not the
  // in-memory synthetic one — so the snapshot matches the exact doubles a
  // server reading that CSV will hold.
  auto table = CsvReader::ReadFile(csv_path);
  if (!table.ok()) return Fail("reading CSV", table.status());

  ThreadPool pool(args.workers);
  // determinism-ok: build timing is reporting-only telemetry.
  WallTimer timer;
  auto profile = Preprocessor::Profile(*table, {}, &pool);
  if (!profile.ok()) return Fail("preprocessing", profile.status());
  const double profile_seconds = timer.ElapsedSeconds();

  Status written = WriteProfileSnapshot(*profile, args.out_path);
  if (!written.ok()) return Fail("writing snapshot", written);

  auto info = InspectProfileSnapshotFile(args.out_path);
  if (!info.ok()) return Fail("re-reading snapshot", info.status());
  std::printf(
      "built %s: %zu rows x %zu columns, header %llu B + payload %llu B, "
      "profile ~%llu B, preprocess %.3f s\n",
      args.out_path.c_str(), info->num_rows, info->num_columns,
      static_cast<unsigned long long>(info->header_bytes),
      static_cast<unsigned long long>(info->payload_bytes),
      static_cast<unsigned long long>(info->profile_bytes), profile_seconds);
  return 0;
}

int RunInspect(const Args& args) {
  if (args.in_path.empty()) return Usage();
  auto info = InspectProfileSnapshotFile(args.in_path);
  if (!info.ok()) return Fail("inspect", info.status());
  std::printf("snapshot: %s\n", args.in_path.c_str());
  std::printf("  format version: %u\n", info->version);
  std::printf("  header bytes:   %llu\n",
              static_cast<unsigned long long>(info->header_bytes));
  std::printf("  payload bytes:  %llu\n",
              static_cast<unsigned long long>(info->payload_bytes));
  std::printf("  rows:           %zu\n", info->num_rows);
  std::printf("  columns:        %zu\n", info->num_columns);
  std::printf("  profile bytes:  %llu (estimated at encode time)\n",
              static_cast<unsigned long long>(info->profile_bytes));
  std::printf("  preprocess:     %.3f s (original run)\n",
              info->preprocess_seconds);
  for (const std::string& column : info->columns) {
    std::printf("    %s\n", column.c_str());
  }
  std::printf("  checksums:      ok\n");
  return 0;
}

int RunVerify(const Args& args) {
  if (args.in_path.empty() || args.csv_path.empty()) return Usage();
  auto table = CsvReader::ReadFile(args.csv_path);
  if (!table.ok()) return Fail("reading CSV", table.status());

  ThreadPool pool(args.workers);
  // determinism-ok: verify timing is reporting-only telemetry.
  WallTimer load_timer;
  auto loaded = LoadProfileSnapshotFile(*table, args.in_path, &pool);
  if (!loaded.ok()) return Fail("loading snapshot", loaded.status());
  const double load_seconds = load_timer.ElapsedSeconds();
  std::printf("load ok: %.1f ms (%zu rows x %zu columns)\n",
              load_seconds * 1e3, table->num_rows(), table->num_columns());

  if (args.rebuild) {
    // determinism-ok: verify timing is reporting-only telemetry.
    WallTimer rebuild_timer;
    auto rebuilt = Preprocessor::Profile(*table, {}, &pool);
    if (!rebuilt.ok()) return Fail("rebuilding profile", rebuilt.status());
    const double rebuild_seconds = rebuild_timer.ElapsedSeconds();
    // preprocess_seconds is wall-clock telemetry and legitimately differs
    // between the original build and this rebuild; everything else must
    // match byte for byte.
    JsonValue loaded_json = loaded->ToJson();
    JsonValue rebuilt_json = rebuilt->ToJson();
    loaded_json.Remove("preprocess_seconds");
    rebuilt_json.Remove("preprocess_seconds");
    const std::string loaded_doc = loaded_json.Dump();
    const std::string rebuilt_doc = rebuilt_json.Dump();
    if (loaded_doc != rebuilt_doc) {
      std::fprintf(stderr,
                   "foresight_snapshot: verify FAILED: restored profile "
                   "differs from a fresh rebuild (%zu vs %zu doc bytes)\n",
                   loaded_doc.size(), rebuilt_doc.size());
      return 1;
    }
    std::printf(
        "verify ok: restored profile is byte-identical to a fresh rebuild "
        "(rebuild %.3f s, load %.1f ms, speedup %.1fx)\n",
        rebuild_seconds, load_seconds * 1e3,
        load_seconds > 0 ? rebuild_seconds / load_seconds : 0.0);
  }
  return 0;
}

int RunRefresh(const Args& args) {
  if (args.in_path.empty() || args.csv_path.empty()) return Usage();
  auto table = CsvReader::ReadFile(args.csv_path);
  if (!table.ok()) return Fail("reading CSV", table.status());

  ThreadPool pool(args.workers);
  if (!args.force) {
    auto loaded = LoadProfileSnapshotFile(*table, args.in_path, &pool);
    if (loaded.ok()) {
      std::printf("refresh: %s is fresh (%zu rows x %zu columns)\n",
                  args.in_path.c_str(), table->num_rows(),
                  table->num_columns());
      return 0;
    }
    std::printf("refresh: %s is stale (%s); rebuilding\n",
                args.in_path.c_str(), loaded.status().ToString().c_str());
  }

  const std::string out =
      args.out_path.empty() ? args.in_path : args.out_path;
  // determinism-ok: refresh timing is reporting-only telemetry.
  WallTimer timer;
  auto profile = Preprocessor::Profile(*table, {}, &pool);
  if (!profile.ok()) return Fail("preprocessing", profile.status());
  Status written = WriteProfileSnapshot(*profile, out);
  if (!written.ok()) return Fail("writing snapshot", written);
  std::printf("refreshed %s: %zu rows x %zu columns, preprocess %.3f s\n",
              out.c_str(), table->num_rows(), table->num_columns(),
              timer.ElapsedSeconds());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  bool bad_value = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    size_t seed_value = 0;
    if (arg.rfind("--csv=", 0) == 0) {
      args.csv_path = arg.substr(6);
    } else if (arg.rfind("--csv-out=", 0) == 0) {
      args.csv_out = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out_path = arg.substr(6);
    } else if (arg.rfind("--in=", 0) == 0) {
      args.in_path = arg.substr(5);
    } else if (ParseSizeFlag(arg, "--synthetic-rows=", &args.synthetic_rows,
                             &bad_value) ||
               ParseSizeFlag(arg, "--synthetic-numeric=",
                             &args.synthetic_numeric, &bad_value) ||
               ParseSizeFlag(arg, "--synthetic-categorical=",
                             &args.synthetic_categorical, &bad_value) ||
               ParseSizeFlag(arg, "--workers=", &args.workers, &bad_value)) {
    } else if (ParseSizeFlag(arg, "--seed=", &seed_value, &bad_value)) {
      args.seed = seed_value;
    } else if (arg == "--rebuild") {
      args.rebuild = true;
    } else if (arg == "--force") {
      args.force = true;
    } else {
      return Usage();
    }
  }
  if (bad_value) return Usage();

  if (args.command == "build") return RunBuild(args);
  if (args.command == "inspect") return RunInspect(args);
  if (args.command == "verify") return RunVerify(args);
  if (args.command == "refresh") return RunRefresh(args);
  return Usage();
}

}  // namespace
}  // namespace foresight

int main(int argc, char** argv) { return foresight::Main(argc, argv); }
