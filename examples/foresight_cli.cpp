// Interactive Foresight shell: the terminal analogue of the demo UI.
// Reads commands from stdin (interactive or piped), so exploration sessions
// are scriptable:
//
//   echo "demo oecd
//   top linear_relationship 3
//   focus 1
//   recs
//   overview
//   quit" | ./foresight_cli
//
// Commands: help | demo <oecd|imdb|parkinson> | load <csv> | cols | classes |
//           top <class> [k] | fix <class> <attr> [k] |
//           range <class> <min> <max> [k] | show <rank> | focus <rank> |
//           unfocus <rank> | recs | overview | save <path> |
//           restore <path> | saveprofile <path> | loadprofile <path> | quit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "data/csv.h"
#include "data/generators.h"
#include "util/fd.h"
#include "viz/ascii.h"
#include "viz/charts.h"

using namespace foresight;

namespace {

/// Holds the mutable exploration state behind the prompt.
struct Shell {
  std::unique_ptr<DataTable> table;
  std::unique_ptr<InsightEngine> engine;
  std::unique_ptr<ExplorationSession> session;
  std::vector<Insight> last_results;

  bool Ready() const { return engine != nullptr; }

  Status Attach(std::unique_ptr<DataTable> new_table) {
    auto engine_or = InsightEngine::Create(*new_table);
    FORESIGHT_RETURN_IF_ERROR(engine_or.status());
    table = std::move(new_table);
    engine = std::make_unique<InsightEngine>(std::move(*engine_or));
    session = std::make_unique<ExplorationSession>(*engine);
    last_results.clear();
    std::printf("ready: %zu rows x %zu columns, preprocessed in %.1f ms\n",
                table->num_rows(), table->num_columns(),
                engine->profile().preprocess_seconds() * 1e3);
    return Status::OK();
  }

  void PrintResults() {
    for (size_t i = 0; i < last_results.size(); ++i) {
      std::printf("  [%zu] %6.3f  %s\n", i + 1, last_results[i].score,
                  last_results[i].description.c_str());
    }
    if (last_results.empty()) std::printf("  (no insights)\n");
  }

  const Insight* ByRank(const std::string& token) {
    char* end = nullptr;
    long rank = std::strtol(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || rank < 1 ||
        static_cast<size_t>(rank) > last_results.size()) {
      std::printf("no result with rank '%s' (run a query first)\n",
                  token.c_str());
      return nullptr;
    }
    return &last_results[static_cast<size_t>(rank - 1)];
  }
};

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  demo <oecd|imdb|parkinson>      load a synthetic demo dataset\n"
      "  load <file.csv>                 load a CSV file\n"
      "  cols                            list columns\n"
      "  classes                         list insight classes & metrics\n"
      "  top <class> [k]                 top-k insights of a class\n"
      "  fix <class> <attr> [k]          rank only tuples containing <attr>\n"
      "  range <class> <min> <max> [k]   strength-filtered ranking\n"
      "  tag <column> <label>            attach metadata (e.g. currency)\n"
      "  tagged <class> <label> [k]      rank only tuples with tagged attrs\n"
      "  show <rank>                     ASCII chart of a result\n"
      "  focus <rank> | unfocus <rank>   manage the focus set\n"
      "  recs                            focus-aware carousels\n"
      "  overview [class]                class overview (default: Figure 2)\n"
      "  save <path> | restore <path>    session state to/from JSON\n"
      "  saveprofile <path>              persist preprocessed sketches\n"
      "  loadprofile <path>              reuse persisted sketches\n"
      "  help | quit\n");
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << content;
  return out ? Status::OK() : Status::IOError("failed writing " + path);
}

}  // namespace

int main() {
  Shell shell;
  std::printf("Foresight shell — 'help' for commands, 'demo oecd' to begin\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream tokens(line);
    std::string command;
    tokens >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
      continue;
    }

    if (command == "demo") {
      std::string which;
      tokens >> which;
      std::unique_ptr<DataTable> table;
      if (which == "oecd") {
        table = std::make_unique<DataTable>(MakeOecdLike(5000, 1));
      } else if (which == "imdb") {
        table = std::make_unique<DataTable>(MakeImdbLike(5000, 3));
      } else if (which == "parkinson") {
        table = std::make_unique<DataTable>(MakeParkinsonLike(2000, 2));
      } else {
        std::printf("usage: demo <oecd|imdb|parkinson>\n");
        continue;
      }
      Status status = shell.Attach(std::move(table));
      if (!status.ok()) std::printf("%s\n", status.ToString().c_str());
      continue;
    }
    if (command == "load") {
      std::string path;
      tokens >> path;
      auto table = CsvReader::ReadFile(path);
      if (!table.ok()) {
        std::printf("%s\n", table.status().ToString().c_str());
        continue;
      }
      Status status =
          shell.Attach(std::make_unique<DataTable>(std::move(*table)));
      if (!status.ok()) std::printf("%s\n", status.ToString().c_str());
      continue;
    }

    if (!shell.Ready()) {
      std::printf("no dataset loaded; try 'demo oecd' or 'load file.csv'\n");
      continue;
    }

    if (command == "cols") {
      for (size_t c = 0; c < shell.table->num_columns(); ++c) {
        std::printf("  %-30s %s\n", shell.table->column_name(c).c_str(),
                    ColumnTypeToString(shell.table->schema().column(c).type));
      }
    } else if (command == "classes") {
      for (const std::string& name : shell.engine->registry().names()) {
        const InsightClass* insight_class =
            shell.engine->registry().Find(name);
        std::string metrics;
        for (const std::string& metric : insight_class->metric_names()) {
          if (!metrics.empty()) metrics += ", ";
          metrics += metric;
        }
        std::printf("  %-28s metrics: %s\n", name.c_str(), metrics.c_str());
      }
    } else if (command == "tag") {
      std::string column, label;
      tokens >> column >> label;
      Status status = shell.table->TagColumn(column, label);
      std::printf("%s\n", status.ok() ? "tagged" : status.ToString().c_str());
    } else if (command == "top" || command == "fix" || command == "range" ||
               command == "tagged") {
      InsightQuery query;
      tokens >> query.class_name;
      if (command == "fix") {
        std::string attr;
        tokens >> attr;
        query.fixed_attributes.push_back(attr);
      } else if (command == "tagged") {
        std::string label;
        tokens >> label;
        query.required_tags.push_back(label);
      } else if (command == "range") {
        double lo = 0, hi = 0;
        tokens >> lo >> hi;
        query.min_score = lo;
        query.max_score = hi;
      }
      size_t k = 5;
      tokens >> k;
      query.top_k = k == 0 ? 5 : k;
      auto result = shell.engine->Execute(query);
      if (!result.ok()) {
        std::printf("%s\n", result.status().ToString().c_str());
        continue;
      }
      std::printf("%zu/%zu candidates in %.1f ms (%s)\n",
                  result->insights.size(), result->candidates_evaluated,
                  result->elapsed_ms,
                  result->mode_used == ExecutionMode::kSketch ? "sketch"
                                                              : "exact");
      shell.last_results = std::move(result->insights);
      shell.PrintResults();
    } else if (command == "show") {
      std::string token;
      tokens >> token;
      const Insight* insight = shell.ByRank(token);
      if (insight == nullptr) continue;
      auto ascii = RenderInsightAscii(*shell.engine, *insight);
      std::printf("%s\n", ascii.ok() ? ascii->c_str()
                                     : ascii.status().ToString().c_str());
    } else if (command == "focus" || command == "unfocus") {
      std::string token;
      tokens >> token;
      const Insight* insight = shell.ByRank(token);
      if (insight == nullptr) continue;
      if (command == "focus") {
        shell.session->Focus(*insight);
      } else {
        shell.session->Unfocus(insight->Key());
      }
      std::printf("focus set: %zu insight(s)\n",
                  shell.session->focused().size());
    } else if (command == "recs") {
      auto carousels = shell.session->Recommendations();
      if (!carousels.ok()) {
        std::printf("%s\n", carousels.status().ToString().c_str());
        continue;
      }
      for (const Carousel& carousel : *carousels) {
        if (carousel.insights.empty()) continue;
        std::printf("%s:\n", carousel.display_name.c_str());
        for (const Insight& insight : carousel.insights) {
          std::printf("    %s\n", insight.description.c_str());
        }
      }
    } else if (command == "overview") {
      std::string class_name;
      tokens >> class_name;
      if (class_name.empty()) class_name = "linear_relationship";
      auto ascii = RenderOverviewAscii(*shell.engine, class_name);
      if (!ascii.ok()) {
        std::printf("%s\n", ascii.status().ToString().c_str());
        continue;
      }
      std::printf("%s", ascii->c_str());
    } else if (command == "save") {
      std::string path;
      tokens >> path;
      Status status = WriteFile(path, shell.session->SaveState().Dump(2));
      std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
    } else if (command == "restore") {
      std::string path;
      tokens >> path;
      auto text = ReadFileBytes(path);
      if (!text.ok()) {
        std::printf("%s\n", text.status().ToString().c_str());
        continue;
      }
      auto json = JsonValue::Parse(*text);
      if (!json.ok()) {
        std::printf("%s\n", json.status().ToString().c_str());
        continue;
      }
      auto restored = ExplorationSession::LoadState(*shell.engine, *json);
      if (!restored.ok()) {
        std::printf("%s\n", restored.status().ToString().c_str());
        continue;
      }
      shell.session =
          std::make_unique<ExplorationSession>(std::move(*restored));
      std::printf("restored %zu focused insight(s)\n",
                  shell.session->focused().size());
    } else if (command == "saveprofile") {
      std::string path;
      tokens >> path;
      Status status =
          WriteFile(path, shell.engine->profile().ToJson().Dump());
      std::printf("%s\n", status.ok() ? "profile saved"
                                      : status.ToString().c_str());
    } else if (command == "loadprofile") {
      std::string path;
      tokens >> path;
      auto text = ReadFileBytes(path);
      if (!text.ok()) {
        std::printf("%s\n", text.status().ToString().c_str());
        continue;
      }
      auto json = JsonValue::Parse(*text);
      if (!json.ok()) {
        std::printf("%s\n", json.status().ToString().c_str());
        continue;
      }
      auto profile = Preprocessor::LoadProfile(*shell.table, *json);
      if (!profile.ok()) {
        std::printf("%s\n", profile.status().ToString().c_str());
        continue;
      }
      auto engine =
          InsightEngine::CreateFromProfile(*shell.table, std::move(*profile));
      if (!engine.ok()) {
        std::printf("%s\n", engine.status().ToString().c_str());
        continue;
      }
      shell.engine = std::make_unique<InsightEngine>(std::move(*engine));
      shell.session = std::make_unique<ExplorationSession>(*shell.engine);
      std::printf("profile loaded; preprocessing skipped\n");
    } else {
      std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    }
  }
  std::printf("bye\n");
  return 0;
}
