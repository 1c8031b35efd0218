// perfbench_xcql — one workload of the wall-clock benchmark per process.
//
//   perfbench_xcql --workload NAME --seed N --seconds S --trace 0|1
//                  --dir SCRATCH [--spans FILE] [--perturb CHECK]
//   perfbench_xcql --workload resume_replay --prepare --seed N --dir SCRATCH
//
// Prints every metric readably on stderr and, as the last line of stdout,
// one JSON object {correct, attempted, failed, metrics}. Exits 1 when a
// correctness check fails, 2 when the workload cannot run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "workloads.h"

namespace perfbench {
namespace {

// Every per-layer metric and its unit. A traced run reports all of them; a
// layer that is not on the workload's path reads 0 there (README.md has
// the layer → end-to-end metric → workload table).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"stream.publish_us", "us"},
    {"frag.encode_us", "us"},
    {"wal.append_us", "us"},
    {"wal.append_p99_us", "us"},
    {"wal.checkpoints", "count"},
    {"wal.checkpoint_ms", "ms"},
    {"wal.checkpoint_max_ms", "ms"},
    {"server.retention_publish_ms", "ms"},
    {"server.frame_log_mb", "MB"},
    {"wal.disk_bytes_per_fragment", "B"},
    {"xcql.prepare_ms", "ms"},
    {"engine.eval_ms.qacplus", "ms"},
    {"engine.eval_ms.qac", "ms"},
    {"engine.eval_ms.caq", "ms"},
    {"engine.evaluations_per_op", "count"},
    {"engine.skips_per_op", "count"},
    {"query_channel.feed_ms", "ms"},
    {"query_channel.result_bytes_per_op", "B"},
    {"frag.store_insert_us", "us"},
    {"frag.store_mb", "MB"},
    {"wal.recover_ms", "ms"},
    {"server.handshake_ms", "ms"},
    {"server.replay_ms", "ms"},
    {"frag.decode_us", "us"},
    {"subscriber.drain_us", "us"},
    {"server.wire_bytes_per_fragment", "B"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_xcql --workload durable_ingest|quote_monitor|"
               "resume_replay --seed N --seconds S --trace 0|1 --dir DIR "
               "[--spans FILE] [--perturb CHECK] [--prepare]\n");
  return 2;
}

}  // namespace

double ChunkedP99(const std::vector<double>& op_ms) {
  constexpr size_t kChunk = 1000;
  if (op_ms.size() < 2 * kChunk) return Percentile(op_ms, 0.99);
  std::vector<double> p99s;
  for (size_t at = 0; at + kChunk <= op_ms.size(); at += kChunk) {
    // The last chunk takes the remainder, so no op is left out.
    const size_t end =
        at + 2 * kChunk > op_ms.size() ? op_ms.size() : at + kChunk;
    p99s.push_back(Percentile(
        std::vector<double>(op_ms.begin() + static_cast<long>(at),
                            op_ms.begin() + static_cast<long>(end)),
        0.99));
    if (end == op_ms.size()) break;
  }
  return Percentile(p99s, 0.5);
}

void AddEndToEnd(const LoopFigures& f, Result* out) {
  out->Add("setup_s", f.setup_s, "s");
  out->Add("ops_per_s", f.ops / f.phase_s, "ops/s");
  out->Add("op_p50_ms", Percentile(f.op_ms, 0.5), "ms");
  out->Add("op_p99_ms", ChunkedP99(f.op_ms), "ms");
  out->Add("cpu_ms_per_op", f.cpu_s * 1e3 / f.ops, "ms");
  out->Add("peak_rss_mb", f.peak_rss_mb, "MB");
  out->Add("bytes_per_op", f.bytes_per_op, "B");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(a, "--prepare") == 0) {
      args.prepare = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage();
    if (std::strcmp(a, "--workload") == 0) {
      args.workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      args.seconds = std::atof(v);
    } else if (std::strcmp(a, "--trace") == 0) {
      args.trace = std::strcmp(v, "0") != 0;
      trace_given = true;
    } else if (std::strcmp(a, "--dir") == 0) {
      args.dir = v;
    } else if (std::strcmp(a, "--spans") == 0) {
      args.span_file = v;
    } else if (std::strcmp(a, "--perturb") == 0) {
      args.perturb = v;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.seconds <= 0) return Usage();

  using Runner = bool (*)(const Args&, Checks*, Result*);
  struct Workload {
    Runner run;
    std::vector<std::string> (*checks)();
  };
  const std::map<std::string, Workload> workloads = {
      {"durable_ingest", {RunDurableIngest, DurableIngestChecks}},
      {"quote_monitor", {RunQuoteMonitor, QuoteMonitorChecks}},
      {"resume_replay", {RunResumeReplay, ResumeReplayChecks}},
  };
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage();
  if (args.prepare) {
    if (args.workload != "resume_replay") return Usage();
    return PrepareResumeReplay(args) ? 0 : 2;
  }
  if (!trace_given) return Usage();

  Checks checks(args.perturb, it->second.checks());
  if (!checks.PerturbValid()) {
    std::fprintf(stderr, "unknown check '%s'; %s checks:",
                 args.perturb.c_str(), args.workload.c_str());
    for (const auto& c : checks.known()) std::fprintf(stderr, " %s", c.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  Result result;
  if (!it->second.run(args, &checks, &result)) return 2;
  if (args.trace) {
    // Complete the per-layer set: layers off this workload's path read 0.
    std::vector<Metric> ordered;
    for (const auto& [name, unit] : kPerLayer) {
      double value = 0;
      for (const auto& m : result.metrics) {
        if (m.name == name) value = m.value;
      }
      ordered.push_back({name, value, unit});
    }
    for (const auto& m : result.metrics) {
      bool listed = false;
      for (const auto& [name, unit] : kPerLayer) listed |= m.name == name;
      if (!listed) {
        std::fprintf(stderr, "internal: unlisted metric %s\n",
                     m.name.c_str());
        return 2;
      }
    }
    result.metrics = std::move(ordered);
  }
  result.correct = checks.all_ok();
  PrintResult(result);
  return result.correct ? 0 : 1;
}
