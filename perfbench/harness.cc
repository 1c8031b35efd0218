#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracing

int32_t SpanLog::Begin(const char* name, int64_t op) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent, op, 1});
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                  int64_t op, int32_t parent, int64_t items) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns, parent, op, items});
}

std::vector<double> SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                                    std::string_view name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const SpanRec& s : log->spans()) {
      if (name == s.name) {
        out.push_back((s.end_ns - s.start_ns) / 1e3 /
                      static_cast<double>(s.items));
      }
    }
  }
  return out;
}

bool WriteSpanFile(const std::string& path,
                   const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,id,parent,op,name,start_ns,end_ns,items\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%lld,%s,%lld,%lld,%lld\n", t, i, s.parent,
                   static_cast<long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.items));
    }
  }
  return std::fclose(f) == 0;
}

bool TraceBlocks::Traced(int64_t op) {
  if (!trace_run_) return false;
  const int64_t phase = (op / kBlock) % 4;
  return phase == 0 || phase == 3;
}

void TraceBlocks::AddOpTime(bool traced, double us) {
  us_[traced ? 1 : 0].push_back(us);
}

double TraceBlocks::OverheadPct() const {
  const double untraced_us = Percentile(us_[0], 0.5);
  const double traced_us = Percentile(us_[1], 0.5);
  if (untraced_us <= 0 || traced_us <= 0) return 0;
  // Rates are 1 / op time: (1/u - 1/t) / (1/u) = 1 - u/t.
  return 100.0 * (1.0 - untraced_us / traced_us);
}

// ---------------------------------------------------------------------------
// Statistics and process readings

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  int64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (it->is_regular_file(fec)) {
      total += static_cast<int64_t>(it->file_size(fec));
    }
  }
  return total;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

bool Fail(const xcql::Status& st, const char* what) {
  if (st.ok()) return false;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  return true;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t FragmentDigest(const xcql::frag::Fragment& f) {
  return Fnv1a(f.ToXml());
}

// ---------------------------------------------------------------------------
// Checks and results

Checks::Checks(std::string perturb, std::vector<std::string> known)
    : perturb_(std::move(perturb)), known_(std::move(known)) {}

bool Checks::PerturbValid() const {
  return perturb_.empty() ||
         std::find(known_.begin(), known_.end(), perturb_) != known_.end();
}

void Checks::Expect(const std::string& name, bool ok,
                    const std::string& detail) {
  std::fprintf(stderr, "check %-34s %s%s%s\n", name.c_str(),
               ok ? "ok" : "FAILED", detail.empty() ? "" : ": ",
               detail.c_str());
  if (!ok) ++failures_;
}

void PrintResult(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::fprintf(stderr, "metric %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    char num[64];
    // Non-finite values have no JSON form; they only arise from a layer
    // that recorded nothing, which reads 0.
    std::snprintf(num, sizeof(num), "%.9g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::fprintf(stdout, "%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {
Clock::time_point g_start = Clock::now();
}  // namespace

double SinceStartSeconds() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

}  // namespace perfbench
