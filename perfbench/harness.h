// Shared pieces of the wall-clock benchmark: command-line arguments, the
// span recorder behind the traced runs, latency statistics, process
// resource readings, correctness checks (each with a switch that perturbs
// one side of its comparison, so every check is shown able to fail), and
// the one-line JSON result.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "frag/fragment.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (span and latency timestamps).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for data dirs (created and removed by the caller).
  std::string dir;
  /// Where the traced run writes its span file ("" = nowhere).
  std::string span_file;
  /// resume_replay's preparation: write the history, then exit.
  bool prepare = false;
  /// Name of the check whose input is perturbed ("" = none).
  std::string perturb;
};

// ---------------------------------------------------------------------------
// Tracing: spans are kept in memory per thread and written out at the end.

struct SpanRec {
  const char* name;  // static string
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same log, -1 = root
  int64_t op;      // operation id the span belongs to
  int64_t items;   // units of work the span covers (fragments), >= 1
};

/// One thread's spans. Begin/End nest: a span's parent is the innermost
/// span still open on this log. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Begin(const char* name, int64_t op);
  void End(int32_t id);
  /// Records an already-finished span under `parent` (-1 = root) that
  /// covered `items` units of work.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t op,
           int32_t parent, int64_t items = 1);

  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRec> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a log (a no-op when the log is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t op)
      : log_(log), id_(log->enabled() ? log->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Durations (in microseconds, per item) of every span named `name`.
std::vector<double> SpanDurationsUs(
    const std::vector<const SpanLog*>& logs, std::string_view name);

/// Writes every span as CSV: thread,id,parent,op,name,start_ns,end_ns,items.
bool WriteSpanFile(const std::string& path,
                   const std::vector<const SpanLog*>& logs);

/// Decides, block by block, whether the traced run traces the next ops.
/// Blocks of 50 ops go traced, untraced, untraced, traced, and so on: the
/// ABBA order cancels a linear drift of op cost over the run (histories
/// grow), and the 200-op period matches none of the program's cadences.
/// The difference between the two kinds' op times is the tracing overhead.
class TraceBlocks {
 public:
  explicit TraceBlocks(bool trace_run) : trace_run_(trace_run) {}
  /// Whether op number `op` (0-based, per thread) is traced.
  bool Traced(int64_t op);
  /// Accounts one op's closed-loop time, probes excluded.
  void AddOpTime(bool traced, double us);
  /// 100 * (untraced ops/s - traced ops/s) / untraced ops/s, each rate
  /// taken from the median closed-loop op time of its blocks (a median, so
  /// the rare multi-millisecond checkpoint publishes do not decide which
  /// kind of block looks slower).
  double OverheadPct() const;

 private:
  static constexpr int64_t kBlock = 50;
  bool trace_run_;
  std::vector<double> us_[2];
};

// ---------------------------------------------------------------------------
// Statistics and process readings.

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
double Max(const std::vector<double>& v);

/// CPU time of the whole process (all threads), seconds.
double ProcessCpuSeconds();
/// ru_maxrss of this process, MB.
double PeakRssMb();
/// Sum of the sizes of the regular files under `dir`.
int64_t DirBytes(const std::string& dir);
/// Threads of this process right now (from /proc/self/status).
int ThreadCount();

/// Reports a set-up or probe error on stderr ("perfbench: what: status");
/// true when `st` is not OK.
bool Fail(const xcql::Status& st, const char* what);

/// 64-bit FNV-1a, the digest the checks compare fragments by.
uint64_t Fnv1a(std::string_view bytes);
/// Digest of a fragment's wire form (<filler …>payload</filler>).
uint64_t FragmentDigest(const xcql::frag::Fragment& f);

// ---------------------------------------------------------------------------
// Correctness checks and the result line.

class Checks {
 public:
  /// `perturb` names the check whose input the run perturbs ("" = none);
  /// `known` lists every check the workload makes.
  Checks(std::string perturb, std::vector<std::string> known);

  /// True when the run must perturb one side of check `name`.
  bool Perturb(std::string_view name) const { return perturb_ == name; }
  /// False when --perturb names no check of this workload.
  bool PerturbValid() const;

  void Expect(const std::string& name, bool ok, const std::string& detail);
  bool all_ok() const { return failures_ == 0; }
  const std::vector<std::string>& known() const { return known_; }

 private:
  std::string perturb_;
  std::vector<std::string> known_;
  int failures_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Prints the metrics readably (stderr) and the JSON result line (stdout).
void PrintResult(const Result& result);

/// Seconds since the process started (static initialization).
double SinceStartSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
