#include "obs/benchdiff.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "io/atomic_file.h"
#include "obs/json.h"

namespace ipscope::obs::benchdiff {

namespace {

[[noreturn]] void SchemaError(const std::string& what) {
  throw std::runtime_error("benchdiff: " + what);
}

const json::Value& Require(const json::Value& obj, const std::string& key,
                           const std::string& context) {
  const json::Value* found = obj.Find(key);
  if (found == nullptr) {
    SchemaError("missing required field \"" + key + "\" in " + context);
  }
  return *found;
}

std::string OptionalString(const json::Value& obj, const std::string& key) {
  const json::Value* found = obj.Find(key);
  return (found != nullptr && found->is_string()) ? found->AsString() : "";
}

Hardware ParseHardware(const json::Value& v) {
  Hardware hw;
  hw.cpu_model = Require(v, "cpu_model", "hardware").AsString();
  hw.hardware_threads = static_cast<int>(
      Require(v, "hardware_threads", "hardware").AsNumber());
  hw.compiler = OptionalString(v, "compiler");
  hw.flags = OptionalString(v, "flags");
  hw.git_sha = OptionalString(v, "git_sha");
  return hw;
}

Run ParseRun(const json::Value& v, std::size_t index) {
  std::string context = "runs[" + std::to_string(index) + "]";
  Run run;
  run.threads = static_cast<int>(Require(v, "threads", context).AsNumber());
  run.total_seconds = Require(v, "total_seconds", context).AsNumber();
  const json::Value& stages = Require(v, "stages", context);
  if (!stages.is_object()) SchemaError(context + ".stages is not an object");
  for (const auto& [name, value] : stages.AsObject()) {
    // A stage is either a bare number of seconds or an object with a
    // "seconds" member (bench_pipeline's form, which adds mb/mb_per_s).
    double seconds =
        value.is_number()
            ? value.AsNumber()
            : Require(value, "seconds", context + ".stages." + name)
                  .AsNumber();
    run.stages.push_back(Stage{name, seconds});
  }
  return run;
}

std::string FormatSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.4f", s);
  return buf;
}

std::string FormatPct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+7.1f%%", pct);
  return buf;
}

const char* StatusWord(StageStatus status) {
  switch (status) {
    case StageStatus::kUnchanged:
      return "ok";
    case StageStatus::kImproved:
      return "improved";
    case StageStatus::kRegressed:
      return "REGRESSED";
    case StageStatus::kMissing:
      return "MISSING";
    case StageStatus::kNew:
      return "new";
  }
  return "?";
}

}  // namespace

Report ParseReport(std::string_view text) {
  json::Value doc = json::Parse(text);
  if (!doc.is_object()) SchemaError("document is not a JSON object");

  Report report;
  const json::Value& version = Require(doc, "schema_version", "document");
  report.schema_version = static_cast<int>(version.AsNumber());
  if (report.schema_version != 2) {
    SchemaError("unsupported schema_version " +
                std::to_string(report.schema_version) +
                " (this tool reads bench-JSON v2)");
  }
  report.bench_name = OptionalString(doc, "bench");
  if (const json::Value* blocks = doc.Find("client_blocks");
      blocks != nullptr && blocks->is_number()) {
    report.client_blocks = static_cast<long>(blocks->AsNumber());
  }
  report.hardware = ParseHardware(Require(doc, "hardware", "document"));
  const json::Value& runs = Require(doc, "runs", "document");
  if (!runs.is_array()) SchemaError("\"runs\" is not an array");
  for (std::size_t i = 0; i < runs.AsArray().size(); ++i) {
    report.runs.push_back(ParseRun(runs.AsArray()[i], i));
  }
  if (report.runs.empty()) SchemaError("\"runs\" is empty");
  report.has_speedup = doc.Find("speedup") != nullptr;
  if (const json::Value* only = doc.Find("baseline_only");
      only != nullptr && only->kind() == json::Value::Kind::kBool) {
    report.baseline_only = only->AsBool();
  }
  return report;
}

Report LoadReportFile(const std::string& path) {
  auto text = io::ReadWholeFile(path);
  if (!text.ok()) {
    throw std::runtime_error(
        (text.error().stage == "open" ? "benchdiff: cannot open report: "
                                      : "benchdiff: read failed: ") +
        path);
  }
  try {
    return ParseReport(text.value());
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

DiffResult Diff(const Report& baseline, const Report& current,
                const DiffOptions& options) {
  DiffResult result;

  // Comparability: timing deltas only gate when host + toolchain match.
  auto mismatch = [&](const std::string& what, const std::string& a,
                      const std::string& b) {
    result.comparable = false;
    result.notes.push_back(what + " differs (baseline \"" + a +
                           "\", current \"" + b + "\"): timing deltas are "
                           "advisory, not a gate");
  };
  if (baseline.hardware.cpu_model != current.hardware.cpu_model) {
    mismatch("cpu model", baseline.hardware.cpu_model,
             current.hardware.cpu_model);
  }
  if (baseline.hardware.hardware_threads != current.hardware.hardware_threads) {
    mismatch("hardware thread count",
             std::to_string(baseline.hardware.hardware_threads),
             std::to_string(current.hardware.hardware_threads));
  }
  if (baseline.hardware.compiler != current.hardware.compiler) {
    mismatch("compiler", baseline.hardware.compiler,
             current.hardware.compiler);
  }
  if (baseline.hardware.flags != current.hardware.flags) {
    mismatch("compile flags", baseline.hardware.flags,
             current.hardware.flags);
  }
  // Timings scale with the input, so two reports measured at different
  // world sizes are not comparable either (0 = scale not recorded; old
  // reports without the field stay comparable rather than always gating).
  if (baseline.client_blocks != 0 && current.client_blocks != 0 &&
      baseline.client_blocks != current.client_blocks) {
    mismatch("world scale (client_blocks)",
             std::to_string(baseline.client_blocks),
             std::to_string(current.client_blocks));
  }

  // A report without a speedup block (single-thread-count sweep on a
  // 1-hardware-thread host, marked baseline_only) did not lose coverage —
  // scaling simply was not measurable. Advisory note, never a gate.
  if (baseline.has_speedup && !current.has_speedup) {
    result.notes.push_back(
        current.baseline_only
            ? "current report is baseline_only (single-thread-count sweep): "
              "speedup not measured; advisory, not a gate"
            : "current report has no speedup block: scaling not measured; "
              "advisory, not a gate");
  }

  for (const Run& base_run : baseline.runs) {
    const Run* cur_run = nullptr;
    for (const Run& candidate : current.runs) {
      if (candidate.threads == base_run.threads) {
        cur_run = &candidate;
        break;
      }
    }
    if (cur_run == nullptr) {
      result.notes.push_back("baseline run with threads=" +
                             std::to_string(base_run.threads) +
                             " has no counterpart in the current report");
      result.regressed = true;  // lost coverage, same as a missing stage
      continue;
    }
    for (const Stage& base_stage : base_run.stages) {
      StageDiff diff;
      diff.threads = base_run.threads;
      diff.stage = base_stage.name;
      diff.baseline_seconds = base_stage.seconds;
      const Stage* cur_stage = nullptr;
      for (const Stage& candidate : cur_run->stages) {
        if (candidate.name == base_stage.name) {
          cur_stage = &candidate;
          break;
        }
      }
      if (cur_stage == nullptr) {
        diff.status = StageStatus::kMissing;
        // A vanished stage is a shape change, not a timing delta: it gates
        // even across hardware.
        result.regressed = true;
        result.stages.push_back(std::move(diff));
        continue;
      }
      diff.current_seconds = cur_stage->seconds;
      double delta = diff.current_seconds - diff.baseline_seconds;
      diff.delta_pct = diff.baseline_seconds > 0
                           ? delta / diff.baseline_seconds * 100.0
                           : (delta > 0 ? std::numeric_limits<double>::infinity()
                                        : 0.0);
      if (delta > options.min_delta_seconds &&
          diff.delta_pct > options.tolerance_pct) {
        diff.status = StageStatus::kRegressed;
        if (result.comparable) result.regressed = true;
      } else if (-delta > options.min_delta_seconds &&
                 -diff.delta_pct > options.tolerance_pct) {
        diff.status = StageStatus::kImproved;
      }
      result.stages.push_back(std::move(diff));
    }
    for (const Stage& cur_stage : cur_run->stages) {
      bool in_baseline = false;
      for (const Stage& candidate : base_run.stages) {
        if (candidate.name == cur_stage.name) {
          in_baseline = true;
          break;
        }
      }
      if (in_baseline) continue;
      StageDiff diff;
      diff.threads = base_run.threads;
      diff.stage = cur_stage.name;
      diff.current_seconds = cur_stage.seconds;
      diff.status = StageStatus::kNew;
      result.stages.push_back(std::move(diff));
    }
  }
  return result;
}

void WriteDiff(std::ostream& os, const DiffResult& result,
               const DiffOptions& options) {
  os << "benchdiff: tolerance " << options.tolerance_pct << "% (absolute floor "
     << options.min_delta_seconds << "s)\n";
  os << "  threads  stage                    baseline_s   current_s    delta"
        "  status\n";
  for (const StageDiff& d : result.stages) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %7d  %-24s %s  %s  %s  %s\n",
                  d.threads, d.stage.c_str(),
                  FormatSeconds(d.baseline_seconds).c_str(),
                  FormatSeconds(d.current_seconds).c_str(),
                  d.status == StageStatus::kMissing ||
                          d.status == StageStatus::kNew
                      ? "      --"
                      : FormatPct(d.delta_pct).c_str(),
                  StatusWord(d.status));
    os << line;
  }
  for (const std::string& note : result.notes) {
    os << "  note: " << note << "\n";
  }
  os << (result.regressed
             ? "benchdiff: REGRESSION detected\n"
         : result.comparable
             ? "benchdiff: no regression beyond tolerance\n"
             : "benchdiff: reports not comparable; diff is advisory only\n");
}

}  // namespace ipscope::obs::benchdiff
