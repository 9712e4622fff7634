#include "workloads.h"

#include <cmath>

#include "obs/trace.h"

namespace perfbench {

namespace {

// Traced runs: how long each other workload's phase measures. 0 = one
// operation.
double SweepSeconds(const std::string& name) {
  return name == "pipeline" ? 0.0 : 2.0;
}

double Ops(const Phase& p) {
  return p.wall > 0 ? static_cast<double>(p.op.size()) / p.wall : 0.0;
}

struct OpMetrics {
  double p50 = 0, tail = 0, ops = 0;
  double cpu_per_op = 0;  // seconds
  Samples::Tail tail_kind;
};

OpMetrics OpMetricsOf(const Phase& phase) {
  OpMetrics m;
  m.tail_kind = phase.op.SupportedTail();
  if (phase.windows.empty()) {
    m.p50 = phase.op.Median();
    m.tail = m.tail_kind.value;
    m.ops = Ops(phase);
    m.cpu_per_op = phase.op.empty()
                       ? 0.0
                       : phase.cpu_s / static_cast<double>(phase.op.size());
    return m;
  }
  Samples p50, tail, ops, cpu;
  for (std::size_t k = 0; k < phase.windows.size(); ++k) {
    const Samples& w = phase.windows[k];
    if (w.empty()) continue;
    p50.Add(w.Median());
    tail.Add(w.Quantile(m.tail_kind.q));
    ops.Add(static_cast<double>(w.size()) / phase.window_s);
    if (k < phase.window_cpu_s.size()) {
      cpu.Add(phase.window_cpu_s[k] / static_cast<double>(w.size()));
    }
  }
  m.p50 = p50.Median();
  m.tail = tail.Median();
  m.ops = ops.Median();
  m.cpu_per_op = cpu.Median();
  return m;
}

void AddE2e(Report& report, double setup_s, const Phase& phase,
            double peak_rss_mb) {
  OpMetrics m = OpMetricsOf(phase);
  report.e2e["setup_s"] = Metric{setup_s, "s"};
  report.e2e["op_p50_ms"] = Metric{m.p50 * 1e3, "ms"};
  report.e2e["op_tail_ms"] = Metric{m.tail * 1e3, "ms"};
  report.e2e["peak_rss_mb"] = Metric{peak_rss_mb, "MB"};
  report.e2e["cpu_ms_per_op"] = Metric{m.cpu_per_op * 1e3, "ms"};
  std::string quantiles = "latency ms:";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    Samples per_window;
    for (const Samples& w : phase.windows) {
      if (!w.empty()) per_window.Add(w.Quantile(q));
    }
    double v = phase.windows.empty() ? phase.op.Quantile(q)
                                     : per_window.Median();
    quantiles += " p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
                 "=" + std::to_string(v * 1e3);
  }
  report.notes.push_back(quantiles);
  report.notes.push_back(
      "operations: " + std::to_string(phase.op.size()) + " in " +
      std::to_string(phase.wall) + " s, " + std::to_string(m.ops) +
      " per second" +
      (phase.windows.empty()
           ? std::string()
           : ", medians over " + std::to_string(phase.windows.size()) +
                 " windows") +
      "; op_tail_ms is " +
      (m.tail_kind.q < 1.0
           ? "p" + std::to_string(static_cast<int>(
                       std::lround(m.tail_kind.q * 100)))
           : std::string("the slowest operation")));
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options) {
  if (name == "pipeline") return MakePipeline(options);
  if (name == "serve-steady") return MakeServeSteady(options);
  if (name == "ingest-reload") return MakeIngestReload(options);
  return nullptr;
}

Report RunInvocation(const Options& options, const std::string& trace_path) {
  Report report;
  if (!options.trace) {
    auto w = MakeWorkload(options.workload, options);
    Samples setup;
    for (int r = 0; r < w->setup_repetitions(); ++r) {
      setup.Add(w->Setup(false));
    }
    Phase phase = w->Measure(options.seconds, false);
    double rss = PeakRssMb();  // before the oracles allocate
    w->Verify(report.tally);
    w->Teardown();
    AddE2e(report, setup.Median(), phase, rss);
    report.notes.push_back("setup repetitions: " +
                           std::to_string(setup.size()));
    return report;
  }

  auto& trace = ipscope::obs::GlobalTrace();
  std::vector<std::string> order{options.workload};
  for (const char* other : {"pipeline", "serve-steady", "ingest-reload"}) {
    if (options.workload != other) order.push_back(other);
  }
  for (const std::string& name : order) {
    auto w = MakeWorkload(name, options);
    trace.Enable();
    w->Setup(true);
    Phase phase;
    if (name == options.workload) {
      trace.Disable();
      Phase untraced = w->Measure(options.seconds / 2, false);
      trace.Enable();
      phase = w->Measure(options.seconds / 2, true);
      OpMetrics on = OpMetricsOf(phase), off = OpMetricsOf(untraced);
      phase.layer["trace.overhead.op_p50_ms"] =
          Metric{(on.p50 - off.p50) * 1e3, "ms"};
      phase.layer["trace.overhead.ops_per_s"] =
          Metric{on.ops - off.ops, "1/s"};
    } else {
      phase = w->Measure(SweepSeconds(name), true);
    }
    w->Probe();
    trace.Disable();
    // The workload's own phase first: later phases only fill gaps.
    report.layer.insert(phase.layer.begin(), phase.layer.end());
    w->Verify(report.tally);
    w->Teardown();
  }
  trace.WriteFile(trace_path);
  return report;
}

}  // namespace perfbench
