// durable_ingest: one operation is one StreamServer::Publish of an XMark
// update (a new version of a fragmented filler, as `xcql_serve --updates`
// makes) into a FragmentServer with a WAL and retention windows on — no
// subscribers, no queries. The WAL, codec and retention layers do nearly
// all the work, and WAL checkpoints, whose cost grows with the length of
// the stream, take most of the run.
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "frag/codec.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/wal.h"
#include "stream/transport.h"
#include "workloads.h"
#include "xmark_stream.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xcql::frag::Fragment;

constexpr const char* kStream = "auction";
constexpr double kXMarkScale = 0.01;  // ~990 fragments
// The frame-log window of a forever-running server; every retention pass
// that trims it first cuts a WAL checkpoint.
constexpr int64_t kRetainFrames = 4096;
// Retention runs every 64 publishes: 1.6 % of the publishes carry a pass,
// so op_p99_ms shows the pass's cost rather than the tail of the rare
// publishes that sync the WAL inline, which drifts with outside disk load.
constexpr int64_t kRetainEvery = 64;

constexpr const char* kCheckDigests = "ingest.recovered_digests";
constexpr const char* kCheckAcked = "ingest.acked_recovered";

// The layer probes of a traced op: the same fragment through each layer's
// public function on its own, outside the served stack.
struct Probes {
  std::unique_ptr<xcql::stream::StreamServer> stream;  // no clients
  std::unique_ptr<xcql::net::Wal> wal;                 // its own data dir
  int64_t wal_seq = 0;
};

}  // namespace

std::vector<std::string> DurableIngestChecks() {
  return {kCheckDigests, kCheckAcked};
}

bool RunDurableIngest(const Args& args, Checks* checks, Result* out) {
  // ---- set-up: generate, fragment, open the WAL, serve, publish ----
  XMarkStream xmark;
  if (!xmark.Init(args.seed, kXMarkScale)) return false;
  const std::string& ts_xml = xmark.ts_xml();
  const xcql::frag::TagStructure& ts = xmark.ts();
  const std::string data_dir = args.dir + "/wal";
  fs::create_directories(data_dir);
  // The served WAL syncs on the interval policy (50 ms, with the
  // background flusher). On a shared disk the latency of a per-publish
  // fsync drifts with outside load by more than the benchmark's bounds, so
  // fsync=always is timed on the probe WAL below (wal.append_us) instead.
  xcql::net::WalOptions wal_opts;
  wal_opts.fsync = xcql::net::FsyncPolicy::kInterval;
  xcql::net::WalOptions probe_wal_opts;  // fsync=always
  xcql::net::WalRecovery recovery;
  auto wal = xcql::net::Wal::Open(data_dir, kStream, ts_xml, wal_opts,
                                  &recovery);
  if (Fail(wal.status(), "wal open")) return false;
  xcql::stream::StreamServer server(
      kStream, xcql::frag::TagStructure::Parse(ts_xml).MoveValue());
  xcql::net::FragmentServerOptions net_opts;
  net_opts.wal = wal.value().get();
  net_opts.retention.max_frames = kRetainFrames;
  net_opts.retention.check_every = kRetainEvery;
  auto net = std::make_unique<xcql::net::FragmentServer>(&server, net_opts);
  if (Fail(net->Start(), "server start")) return false;

  // expected[seq]: digest of what the harness published at seq, or 0 for
  // a retention refresh (an identical re-publish of a live snapshot head).
  std::vector<uint64_t> expected;
  std::unordered_set<uint64_t> generated;
  int64_t acked = 0;
  auto note_refreshes = [&]() {
    while (static_cast<int64_t>(expected.size()) < server.history_size()) {
      expected.push_back(0);
    }
  };
  for (Fragment& f : xmark.TakeDocument()) {
    const uint64_t d = FragmentDigest(f);
    expected.push_back(d);
    generated.insert(d);
    if (Fail(server.Publish(std::move(f)), "publish document")) return false;
    ++acked;
    note_refreshes();
  }
  LoopFigures fig;
  fig.setup_s = SinceStartSeconds();

  Probes probes;
  SpanLog spans(false);
  TraceBlocks blocks(args.trace);
  if (args.trace) {
    probes.stream = std::make_unique<xcql::stream::StreamServer>(
        kStream, xcql::frag::TagStructure::Parse(ts_xml).MoveValue());
    const std::string probe_dir = args.dir + "/probe-wal";
    fs::create_directories(probe_dir);
    xcql::net::WalRecovery probe_rec;
    auto pw = xcql::net::Wal::Open(probe_dir, kStream, ts_xml,
                                   probe_wal_opts, &probe_rec);
    if (Fail(pw.status(), "probe wal open")) return false;
    probes.wal = std::move(pw).MoveValue();
  }
  double frame_log_peak = 0;

  // ---- measured phase ----
  const int64_t dir_bytes_start = DirBytes(data_dir);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t phase0 = NowNs();
  const int64_t deadline = phase0 + static_cast<int64_t>(args.seconds * 1e9);
  int64_t op = 0;
  for (; NowNs() < deadline || op < 1000; ++op) {
    const int64_t iter0 = NowNs();
    const bool traced = blocks.Traced(op);
    Fragment f = xmark.NextUpdate();
    const uint64_t d = FragmentDigest(f);
    expected.push_back(d);
    generated.insert(d);
    Fragment probe_copy = f;

    // Checkpoint and retention publishes are rare, so the traced run
    // notes them on every op, not only in traced blocks.
    int64_t ckpt_before = 0, runs_before = 0;
    if (args.trace) {
      ckpt_before = wal.value()->stats().checkpoints;
      runs_before = net->metrics().retention_runs;
    }
    const int64_t t0 = NowNs();
    spans.set_enabled(traced);
    const int32_t op_span = traced ? spans.Begin("op", op) : -1;
    xcql::Status st = server.Publish(std::move(f));
    const int64_t t1 = NowNs();
    if (op_span >= 0) spans.End(op_span);
    fig.op_ms.push_back((t1 - t0) / 1e6);
    if (Fail(st, "publish")) return false;
    ++acked;
    note_refreshes();
    int64_t probe_ns = 0;
    if (args.trace) {
      const int64_t p0 = NowNs();
      spans.set_enabled(true);
      if (wal.value()->stats().checkpoints != ckpt_before) {
        spans.Add("wal.checkpoint", t0, t1, op, op_span);
      }
      const auto m = net->metrics();
      if (m.retention_runs != runs_before) {
        spans.Add("server.retention", t0, t1, op, op_span);
      }
      frame_log_peak = std::max<double>(frame_log_peak, m.frame_log_bytes);
      spans.set_enabled(traced);
      probe_ns = NowNs() - p0;
    }
    if (traced) {
      const int64_t p0 = NowNs();
      {
        ScopedSpan s(&spans, "stream.publish", op);
        Fragment c = probe_copy;
        st = probes.stream->Publish(std::move(c));
      }
      if (Fail(st, "probe publish")) return false;
      if (probes.stream->history_size() - probes.stream->history_base() >
          2 * kRetainFrames) {
        probes.stream->TrimHistory(probes.stream->history_size() -
                                   kRetainFrames);
      }
      xcql::Result<std::string> plain = std::string();
      {
        ScopedSpan s(&spans, "frag.encode", op);
        plain = xcql::frag::EncodeWirePayload(
            probe_copy, ts, xcql::frag::WireCodec::kPlainXml);
        auto compressed = xcql::frag::EncodeWirePayload(
            probe_copy, ts, xcql::frag::WireCodec::kTagCompressed);
        if (Fail(compressed.status(), "probe encode")) return false;
      }
      if (Fail(plain.status(), "probe encode")) return false;
      xcql::net::Frame frame;
      frame.type = xcql::net::FrameType::kFragment;
      frame.seq = static_cast<uint64_t>(probes.wal_seq);
      frame.payload = std::move(plain).MoveValue();
      auto bytes = xcql::net::EncodeFrame(frame);
      if (Fail(bytes.status(), "probe frame")) return false;
      {
        ScopedSpan s(&spans, "wal.append", op);
        st = probes.wal->Append(probes.wal_seq, bytes.value());
      }
      if (Fail(st, "probe append")) return false;
      ++probes.wal_seq;
      probe_ns += NowNs() - p0;
    }
    blocks.AddOpTime(traced, (NowNs() - iter0 - probe_ns) / 1e3);
  }
  const int64_t phase1 = NowNs();
  fig.ops = op;
  fig.phase_s = (phase1 - phase0) / 1e9;
  fig.cpu_s = ProcessCpuSeconds() - cpu0;
  fig.peak_rss_mb = PeakRssMb();
  const int64_t dir_bytes_end = DirBytes(data_dir);
  fig.bytes_per_op =
      static_cast<double>(dir_bytes_end - dir_bytes_start) / fig.ops;
  const int64_t records_end = server.history_size();
  std::fprintf(stderr,
               "durable_ingest: %lld publishes, %lld records, %lld "
               "checkpoints, %lld retention runs, %d threads\n",
               static_cast<long long>(fig.ops),
               static_cast<long long>(records_end),
               static_cast<long long>(wal.value()->stats().checkpoints),
               static_cast<long long>(net->metrics().retention_runs),
               ThreadCount());
  net->Stop();
  net.reset();
  if (Fail(wal.value()->Close(), "wal close")) return false;
  if (probes.wal != nullptr) probes.wal->Close().ok();

  // ---- checks: reopen the data dir as a restart would ----
  xcql::net::WalRecovery rec;
  auto reopened =
      xcql::net::Wal::Open(data_dir, kStream, ts_xml, wal_opts, &rec);
  if (Fail(reopened.status(), "wal reopen")) return false;
  if (checks->Perturb(kCheckAcked) && !rec.records.empty()) {
    rec.records.pop_back();
  }
  int64_t mismatches = 0, undecodable = 0, refreshes = 0;
  bool contiguous = rec.base_seq == 0;
  for (size_t i = 0; i < rec.records.size(); ++i) {
    const xcql::net::WalRecord& r = rec.records[i];
    if (r.seq != static_cast<int64_t>(i)) contiguous = false;
    auto f = xcql::frag::DecodeWirePayload(
        r.payload, ts,
        (r.flags & xcql::net::kFlagCompressedPayload) != 0
            ? xcql::frag::WireCodec::kTagCompressed
            : xcql::frag::WireCodec::kPlainXml);
    if (!f.ok()) {
      ++undecodable;
      continue;
    }
    uint64_t d = FragmentDigest(f.value());
    if (checks->Perturb(kCheckDigests) && i == rec.records.size() / 2) d ^= 1;
    if (i >= expected.size()) {
      ++mismatches;
    } else if (expected[i] == 0) {
      ++refreshes;
      if (generated.count(d) == 0) ++mismatches;
    } else if (expected[i] != d) {
      ++mismatches;
    }
  }
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "%zu records, %lld refreshes, %lld mismatched, %lld "
                "undecodable, contiguous from 0: %s",
                rec.records.size(), static_cast<long long>(refreshes),
                static_cast<long long>(mismatches),
                static_cast<long long>(undecodable),
                contiguous ? "yes" : "no");
  checks->Expect(kCheckDigests,
                 mismatches == 0 && undecodable == 0 && contiguous, detail);
  std::snprintf(detail, sizeof(detail),
                "%lld publishes acked (+%lld refreshes), %zu recovered",
                static_cast<long long>(acked),
                static_cast<long long>(static_cast<int64_t>(expected.size()) -
                                       acked),
                rec.records.size());
  checks->Expect(kCheckAcked,
                 static_cast<int64_t>(rec.records.size()) ==
                     static_cast<int64_t>(expected.size()),
                 detail);

  out->attempted = fig.ops;
  out->failed = 0;
  if (!args.trace) {
    AddEndToEnd(fig, out);
    return true;
  }
  const std::vector<const SpanLog*> logs = {&spans};
  auto publish = SpanDurationsUs(logs, "stream.publish");
  auto encode = SpanDurationsUs(logs, "frag.encode");
  auto append = SpanDurationsUs(logs, "wal.append");
  auto ckpt = SpanDurationsUs(logs, "wal.checkpoint");
  auto retain = SpanDurationsUs(logs, "server.retention");
  out->Add("stream.publish_us", Percentile(publish, 0.5), "us");
  out->Add("frag.encode_us", Percentile(encode, 0.5), "us");
  out->Add("wal.append_us", Percentile(append, 0.5), "us");
  out->Add("wal.append_p99_us", Percentile(append, 0.99), "us");
  out->Add("wal.checkpoints", static_cast<double>(ckpt.size()), "count");
  out->Add("wal.checkpoint_ms", Percentile(ckpt, 0.5) / 1e3, "ms");
  out->Add("wal.checkpoint_max_ms", Max(ckpt) / 1e3, "ms");
  out->Add("server.retention_publish_ms", Percentile(retain, 0.5) / 1e3,
           "ms");
  out->Add("server.frame_log_mb", frame_log_peak / (1 << 20), "MB");
  out->Add("wal.disk_bytes_per_fragment",
           static_cast<double>(dir_bytes_end) / records_end, "B");
  out->Add("trace.overhead_pct", blocks.OverheadPct(), "%");
  if (!args.span_file.empty() && !WriteSpanFile(args.span_file, logs)) {
    std::fprintf(stderr, "durable_ingest: cannot write %s\n",
                 args.span_file.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
