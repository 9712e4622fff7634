// The harness's own checks, on small worlds: every workload passes its
// oracles, and one corrupted response byte is counted as exactly one
// failure. Exit 0 when all hold.
#include <filesystem>
#include <iostream>

#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

perfbench::Tally RunOnce(perfbench::Options options) {
  auto w = perfbench::MakeWorkload(options.workload, options);
  perfbench::Tally tally;
  w->Setup(false);
  w->Measure(options.seconds, false);
  w->Verify(tally);
  w->Teardown();
  for (const std::string& r : tally.reasons()) std::cout << "  " << r << "\n";
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.blocks = 300;
  options.seconds = 0.3;
  options.seed = 11;
  options.work_dir = argc > 1 ? argv[1] : "perfbench-selftest";
  std::filesystem::create_directories(options.work_dir);

  for (const char* name : {"pipeline", "serve-steady", "ingest-reload"}) {
    options.workload = name;
    perfbench::Tally t = RunOnce(options);
    Expect(t.attempted() > 0 && t.failed() == 0,
           std::string(name) + ": clean run has no failures (" +
               std::to_string(t.attempted()) + " checked)");
  }

  for (const char* name : {"serve-steady", "ingest-reload"}) {
    options.workload = name;
    options.corrupt_response = 5;
    perfbench::Tally t = RunOnce(options);
    Expect(t.failed() == 1, std::string(name) +
                                ": one corrupted response byte is exactly "
                                "one failure (got " +
                                std::to_string(t.failed()) + ")");
  }

  perfbench::Samples s;
  for (int i = 1; i <= 1000; ++i) s.Add(i);
  Expect(s.Median() == 500 && s.SupportedTail().q == 0.99 &&
             s.SupportedTail().value == 990,
         "tail: p99 of 1..1000 is 990");
  perfbench::Samples some;
  for (int i = 1; i <= 500; ++i) some.Add(i);
  Expect(some.SupportedTail().q == 0.9 && some.SupportedTail().value == 450,
         "tail: 500 samples leave 5 beyond p99, so p90");
  perfbench::Samples few;
  for (int i = 1; i <= 50; ++i) few.Add(i);
  Expect(few.SupportedTail().q == 1.0 &&
             few.SupportedTail().value == 50,
         "tail: 50 samples leave 5 beyond p90, so the slowest");
  std::filesystem::remove_all(options.work_dir);
  return failures == 0 ? 0 : 1;
}
