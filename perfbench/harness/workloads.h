// The three benchmark workloads behind one interface.
//
//   pipeline       the CLI batch path: store build -> store file save/load
//                  -> churn, change and pattern analyses
//   serve-steady   a read-only daemon under a closed loop of one connection
//                  per CPU, each client thread on its server thread's CPU
//   ingest-reload  append a day, load, reload and re-ask the aggregates,
//                  while a second connection keeps reading
//
// A workload is set up, measured, verified against its oracles and torn
// down. Setup may run several times (setup_s is a median); each call
// replaces the previous state. Verify runs after all measuring, outside
// every timed region, and covers every operation measured since Setup.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

struct Phase {
  Samples op;       // latency of the workload's operation, seconds
  double wall = 0;  // measured wall seconds
  // CPU seconds the program spent in the timed operations, all threads,
  // the harness's client threads excluded.
  double cpu_s = 0;
  // When set: `op` split into consecutive equal windows of `window_s`
  // seconds, with the CPU seconds (as `cpu_s`) each window took. The
  // end-to-end metrics are then medians over windows, so a short burst of
  // outside interference moves none of them.
  std::vector<Samples> windows;
  std::vector<double> window_cpu_s;
  double window_s = 0;
  // Registry-derived per-layer values observed during this phase.
  std::map<std::string, Metric> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds what the measured loop needs. Returns its wall seconds.
  virtual double Setup(bool traced) = 0;
  // Runs the measured loop until `seconds` have passed (at least one
  // operation).
  virtual Phase Measure(double seconds, bool traced) = 0;
  // Traced runs only: single calls that the per-layer metrics need and the
  // measured loop does not make (in-process replay of the request stream).
  virtual void Probe() {}
  // Oracle checks over everything measured since Setup.
  virtual void Verify(Tally& tally) = 0;
  virtual void Teardown() = 0;
  // Set-up repetitions an untraced run medians setup_s over.
  virtual int setup_repetitions() const { return 3; }
};

// Names: "pipeline", "serve-steady", "ingest-reload"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options);
std::unique_ptr<Workload> MakePipeline(const Options& options);
std::unique_ptr<Workload> MakeServeSteady(const Options& options);
std::unique_ptr<Workload> MakeIngestReload(const Options& options);

// One invocation. Untraced: set up setup_repetitions() times, measure for
// options.seconds, verify; reports the end-to-end metrics. Traced: the
// chosen workload measures half the time untraced and half traced (their
// difference is the tracing overhead), then every other workload runs a
// short traced phase so each layer is covered; reports the registry-
// derived per-layer metrics and writes the Chrome trace to `trace_path`.
Report RunInvocation(const Options& options, const std::string& trace_path);

}  // namespace perfbench
