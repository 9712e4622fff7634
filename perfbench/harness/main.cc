// ipscope_perfbench: runs one benchmark workload and prints, as the last
// line of stdout, a JSON object with the oracle tally and the metrics.
// perfbench/run.py builds this binary, runs it and turns that line (plus,
// for traced runs, the Chrome trace) into the benchmark's result line.
//
//   ipscope_perfbench --workload pipeline|serve-steady|ingest-reload
//                     --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Traced runs write DIR/trace.json. Exit status: 0 when the run completed
// (failures are reported in the JSON), 2 on bad arguments.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::cerr << "ipscope_perfbench: " << why << "\n"
            << "usage: ipscope_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

template <typename T>
T Number(const char* flag, const char* text) {
  T value{};
  const char* last = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, last, value);
  if (ec != std::errc{} || ptr != last) {
    Usage((std::string(flag) + ": expected a number").c_str());
  }
  return value;
}

void WriteMetrics(std::ostream& os,
                  const std::map<std::string, perfbench::Metric>& metrics) {
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << "\"" << ipscope::obs::json::Escape(name)
       << "\": {\"value\": " << value << ", \"unit\": \""
       << ipscope::obs::json::Escape(m.unit) << "\"}";
    first = false;
  }
  os << "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage((flag + ": missing value").c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = Number<std::uint64_t>("--seed", value);
    } else if (flag == "--seconds") {
      options.seconds = Number<double>("--seconds", value);
    } else if (flag == "--trace") {
      options.trace = Number<int>("--trace", value) != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
      have_dir = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_dir) Usage("--workload and --work-dir required");
  if (!perfbench::MakeWorkload(options.workload, options)) {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (options.seconds < 0) Usage("--seconds must be >= 0");
  std::filesystem::create_directories(options.work_dir);
  std::string trace_path =
      (std::filesystem::path(options.work_dir) / "trace.json").string();

  perfbench::Report report = perfbench::RunInvocation(options, trace_path);

  for (const std::string& note : report.notes) {
    std::cout << options.workload << ": " << note << "\n";
  }
  for (const std::string& reason : report.tally.reasons()) {
    std::cout << options.workload << ": FAILED " << reason << "\n";
  }
  std::ostringstream line;
  line << "{\"workload\": \"" << ipscope::obs::json::Escape(options.workload)
       << "\", \"attempted\": " << report.tally.attempted()
       << ", \"failed\": " << report.tally.failed() << ", \"e2e\": ";
  WriteMetrics(line, report.e2e);
  line << ", \"layer\": ";
  WriteMetrics(line, report.layer);
  line << ", \"trace\": ";
  if (options.trace) {
    line << "\"" << ipscope::obs::json::Escape(trace_path) << "\"";
  } else {
    line << "null";
  }
  line << "}";
  std::cout << line.str() << std::endl;
  return 0;
}
