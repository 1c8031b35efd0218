// The three workloads. Each runs a closed loop through the library's public
// API for Args::seconds, checks the program's outputs, and fills a Result:
// the end-to-end metrics on an untraced run, the per-layer metrics (derived
// from the spans) on a traced one.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Closed-loop figures every workload reports on its untraced run.
struct LoopFigures {
  double setup_s = 0;
  int64_t ops = 0;
  double phase_s = 0;
  std::vector<double> op_ms;  // one latency per op
  double cpu_s = 0;           // process CPU over the measured phase
  double peak_rss_mb = 0;     // ru_maxrss at the end of the measured phase
  double bytes_per_op = 0;
};

/// The run's 99th-percentile op latency, taken as the median over
/// consecutive chunks of 1,000 ops of each chunk's 99th percentile: every
/// chunk has ten samples beyond its p99, and a burst of outside disk or
/// CPU contention moves a few chunks rather than the whole figure.
double ChunkedP99(const std::vector<double>& op_ms);

/// Appends the seven end-to-end metrics.
void AddEndToEnd(const LoopFigures& f, Result* out);

/// Each returns false when the workload could not run at all (a set-up
/// error, reported on stderr); check failures are recorded in `checks`.
bool RunDurableIngest(const Args& args, Checks* checks, Result* out);
bool RunQuoteMonitor(const Args& args, Checks* checks, Result* out);
bool RunResumeReplay(const Args& args, Checks* checks, Result* out);
/// resume_replay's preparation step (a process of its own): writes the
/// history into Args::dir and exits, so the measured process starts with
/// a real restart.
bool PrepareResumeReplay(const Args& args);

std::vector<std::string> DurableIngestChecks();
std::vector<std::string> QuoteMonitorChecks();
std::vector<std::string> ResumeReplayChecks();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
