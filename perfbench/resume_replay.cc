// resume_replay: one operation is one subscriber reconnect. A
// FragmentSubscriber whose resume point (initial_last_seq) lies a seeded
// 500-1,500 fragments behind the head connects over loopback, replays to
// the head and drains into a FragmentStore; two such resume loops run at
// once. Framing, the replay cursor, socket writes, decode and store insert
// do the work, all driven by socket readiness — never by a publisher's
// wake-up. The served history was written by a separate preparation
// process; this process starts with the restart (WAL recovery and server
// start), which is its set-up.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "frag/codec.h"
#include "frag/fragment_store.h"
#include "net/server.h"
#include "net/subscriber.h"
#include "net/wal.h"
#include "stream/transport.h"
#include "workloads.h"
#include "xmark/generator.h"
#include "xmark_stream.h"

namespace perfbench {
namespace {

using xcql::frag::Fragment;

constexpr const char* kStream = "auction";
constexpr double kXMarkScale = 0.01;  // ~990 document fragments
constexpr int kHistoryUpdates = 5000;  // updates after the document
constexpr int64_t kMinGap = 500;
constexpr int64_t kMaxGap = 1500;
constexpr int kLoops = 2;
// A retention window wider than the history: nothing is trimmed, and the
// frame-log gauge is kept.
constexpr int64_t kRetainFrames = 8192;
constexpr auto kWait = std::chrono::seconds(20);

constexpr const char* kCheckRecovered = "resume.recovered_history";
constexpr const char* kCheckSeqs = "resume.replayed_seqs";
constexpr const char* kCheckFrames = "resume.server_frames_match";

std::string DataDir(const Args& args) { return args.dir + "/wal"; }

// One resume loop's tallies (its thread is the only writer).
struct LoopState {
  SpanLog spans{false};
  TraceBlocks blocks{false};
  std::vector<double> op_ms;
  int64_t ops = 0;
  int64_t fragments = 0;        // replayed fragments received
  int64_t bad_ops = 0;          // resumes whose seqs or digests were wrong
  int64_t frames_in = 0;        // subscriber-side frame and byte counts
  int64_t fragments_in = 0;
  int64_t bytes_in = 0;
  std::string first_error;
  bool broken = false;          // a resume never reached the head
};

}  // namespace

std::vector<std::string> ResumeReplayChecks() {
  return {kCheckRecovered, kCheckSeqs, kCheckFrames};
}

bool PrepareResumeReplay(const Args& args) {
  XMarkStream xmark;
  if (!xmark.Init(args.seed, kXMarkScale)) return false;
  std::filesystem::create_directories(DataDir(args));
  xcql::net::WalOptions wal_opts;
  wal_opts.fsync = xcql::net::FsyncPolicy::kNever;  // Close() syncs
  xcql::net::WalRecovery recovery;
  auto wal = xcql::net::Wal::Open(DataDir(args), kStream, xmark.ts_xml(),
                                  wal_opts, &recovery);
  if (Fail(wal.status(), "wal open")) return false;
  xcql::stream::StreamServer server(
      kStream, xcql::frag::TagStructure::Parse(xmark.ts_xml()).MoveValue());
  xcql::net::FragmentServerOptions net_opts;
  net_opts.wal = wal.value().get();
  xcql::net::FragmentServer net(&server, net_opts);
  if (Fail(net.Start(), "server start")) return false;
  for (Fragment& f : xmark.TakeDocument()) {
    if (Fail(server.Publish(std::move(f)), "publish")) return false;
  }
  for (int i = 0; i < kHistoryUpdates; ++i) {
    if (Fail(server.Publish(xmark.NextUpdate()), "publish")) return false;
  }
  net.Stop();
  return !Fail(wal.value()->Close(), "wal close");
}

bool RunResumeReplay(const Args& args, Checks* checks, Result* out) {
  // ---- set-up: the restart ----
  const std::string ts_xml = xcql::xmark::AuctionTagStructureXml();
  SpanLog setup_spans(args.trace);
  xcql::net::WalOptions wal_opts;
  xcql::net::WalRecovery recovery;
  xcql::stream::StreamServer server(
      kStream, xcql::frag::TagStructure::Parse(ts_xml).MoveValue());
  std::unique_ptr<xcql::net::Wal> wal;
  {
    ScopedSpan s(&setup_spans, "wal.recover", -1);
    auto w = xcql::net::Wal::Open(DataDir(args), kStream, ts_xml, wal_opts,
                                  &recovery);
    if (Fail(w.status(), "wal open")) return false;
    wal = std::move(w).MoveValue();
    if (Fail(xcql::net::RestoreStream(recovery, &server), "restore")) {
      return false;
    }
  }
  xcql::net::FragmentServerOptions net_opts;
  net_opts.wal = wal.get();
  net_opts.retention.max_frames = kRetainFrames;
  // No heartbeat may land between a resume's last fragment and its
  // teardown, so the server's frame count and the subscribers' agree.
  net_opts.heartbeat_interval = std::chrono::seconds(3600);
  auto net = std::make_unique<xcql::net::FragmentServer>(&server, net_opts);
  if (Fail(net->Start(), "server start")) return false;
  // An idle retention pass publishes the frame-log gauge (nothing trims).
  net->RunRetention();
  LoopFigures fig;
  fig.setup_s = SinceStartSeconds();

  // ---- the written history, regenerated from the seed ----
  XMarkStream xmark;
  if (!xmark.Init(args.seed, kXMarkScale)) return false;
  std::vector<uint64_t> expected;
  for (const Fragment& f : xmark.TakeDocument()) {
    expected.push_back(FragmentDigest(f));
  }
  for (int i = 0; i < kHistoryUpdates; ++i) {
    expected.push_back(FragmentDigest(xmark.NextUpdate()));
  }
  {
    int64_t mismatched = 0;
    const int64_t n = server.history_size();
    for (int64_t s = server.history_base(); s < n; ++s) {
      uint64_t d = FragmentDigest(server.history_at(s));
      if (checks->Perturb(kCheckRecovered) && s == n / 2) d ^= 1;
      if (s >= static_cast<int64_t>(expected.size()) ||
          expected[static_cast<size_t>(s)] != d) {
        ++mismatched;
      }
    }
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "%lld recovered (base %lld), %zu written, %lld mismatched",
                  static_cast<long long>(n),
                  static_cast<long long>(server.history_base()),
                  expected.size(), static_cast<long long>(mismatched));
    checks->Expect(kCheckRecovered,
                   server.history_base() == 0 &&
                       n == static_cast<int64_t>(expected.size()) &&
                       mismatched == 0,
                   detail);
  }
  const std::string server_ts_xml = server.tag_structure().ToXml();
  const int64_t head = server.history_size() - 1;
  const uint64_t epoch = net->epoch();
  const double frame_log_mb =
      static_cast<double>(net->metrics().frame_log_bytes) / (1 << 20);
  const auto server0 = net->metrics();

  // ---- measured phase: kLoops resume loops ----
  std::vector<LoopState> loops(kLoops);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t phase0 = NowNs();
  const int64_t deadline = phase0 + static_cast<int64_t>(args.seconds * 1e9);
  // Every loop stops once the deadline passed and together they made the
  // minimum number of operations.
  std::atomic<int64_t> total_ops{0};
  std::atomic<int> peak_threads{0};
  auto loop_body = [&](int idx) {
    LoopState& st = loops[static_cast<size_t>(idx)];
    std::mt19937_64 rng(args.seed * 7919 + static_cast<uint64_t>(idx));
    st.blocks = TraceBlocks(args.trace);
    for (int64_t op = 0;
         NowNs() < deadline || total_ops.load() < 1000; ++op) {
      const int64_t iter0 = NowNs();
      const bool traced = st.blocks.Traced(op);
      st.spans.set_enabled(traced);
      const int64_t gap =
          kMinGap + static_cast<int64_t>(rng() % (kMaxGap - kMinGap + 1));
      const int64_t from = std::max<int64_t>(-1, head - gap);
      xcql::frag::FragmentStore store(
          xcql::frag::TagStructure::Parse(ts_xml).MoveValue(), kStream);
      xcql::net::FragmentSubscriberOptions so;
      so.port = net->port();
      so.stream = kStream;
      // The schema as a previous session learned it from the handshake:
      // the server hashes its canonical form, not the file's bytes.
      so.tag_structure_xml = server_ts_xml;
      so.initial_last_seq = from;
      so.known_epoch = epoch;
      xcql::net::FragmentSubscriber sub(so);
      std::vector<Fragment> got;
      const int64_t op_id = static_cast<int64_t>(idx) << 32 | op;

      const int64_t t0 = NowNs();
      const int32_t op_span = traced ? st.spans.Begin("op", op_id) : -1;
      bool reached = false;
      {
        ScopedSpan s(&st.spans, "server.handshake", op_id);
        reached = sub.Start().ok() && sub.WaitConnected(kWait);
      }
      if (op == 0) peak_threads = std::max(peak_threads.load(), ThreadCount());
      if (reached) {
        ScopedSpan s(&st.spans, "server.replay", op_id);
        reached = sub.WaitForSeq(head, kWait);
      }
      int64_t drain_ns = 0, insert_ns = 0;
      if (reached) {
        const int64_t d0 = NowNs();
        sub.Drain(&got);
        const int64_t d1 = NowNs();
        for (const Fragment& f : got) {
          if (!store.Insert(f).ok()) reached = false;
        }
        drain_ns = d1 - d0;
        insert_ns = NowNs() - d1;
      }
      const int64_t t1 = NowNs();
      if (op_span >= 0) st.spans.End(op_span);
      st.op_ms.push_back((t1 - t0) / 1e6);
      sub.Stop();
      const auto sm = sub.metrics();
      st.frames_in += sm.frames_in;
      st.fragments_in += sm.fragments_in;
      st.bytes_in += sm.bytes_in;
      ++st.ops;
      total_ops.fetch_add(1);
      if (!reached) {
        // The resume never completed: nothing later can be trusted.
        st.broken = true;
        st.first_error = "resume from " + std::to_string(from) +
                         " did not reach the head";
        return;
      }
      st.fragments += static_cast<int64_t>(got.size());
      if (!got.empty()) {
        // DrainInto's two halves: the locked handoff, then the inserts.
        const int64_t n = static_cast<int64_t>(got.size());
        st.spans.Add("subscriber.drain", t1 - insert_ns - drain_ns, t1, op_id,
                     op_span, n);
        st.spans.Add("frag.store_insert", t1 - insert_ns, t1, op_id, op_span,
                     n);
      }
      // Checks and probes, outside the op's time.
      const int64_t p0 = NowNs();
      if (checks->Perturb(kCheckSeqs) && idx == 0 && op == 0 &&
          !got.empty()) {
        got.erase(got.begin() + static_cast<long>(got.size() / 2));
      }
      bool ok = static_cast<int64_t>(got.size()) == head - from;
      for (size_t i = 0; ok && i < got.size(); ++i) {
        ok = FragmentDigest(got[i]) ==
             expected[static_cast<size_t>(from + 1) + i];
      }
      if (!ok) {
        if (st.bad_ops++ == 0) {
          st.first_error = "resume from " + std::to_string(from) + ": " +
                           std::to_string(got.size()) + " fragments for " +
                           std::to_string(head - from) + " seqs";
        }
      }
      if (traced) {
        // frag.decode: the same seqs' logged payloads through the codec.
        const int64_t dec0 = NowNs();
        for (int64_t s = from + 1; s <= head; ++s) {
          const auto& r = recovery.records[static_cast<size_t>(s)];
          auto f = xcql::frag::DecodeWirePayload(
              r.payload, xmark.ts(),
              (r.flags & xcql::net::kFlagCompressedPayload) != 0
                  ? xcql::frag::WireCodec::kTagCompressed
                  : xcql::frag::WireCodec::kPlainXml);
          if (!f.ok()) ++st.bad_ops;
        }
        st.spans.Add("frag.decode", dec0, NowNs(), op_id, -1,
                     std::max<int64_t>(1, head - from));
      }
      st.blocks.AddOpTime(traced, (p0 - iter0) / 1e3);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kLoops; ++i) threads.emplace_back(loop_body, i);
  for (auto& t : threads) t.join();
  const int64_t phase1 = NowNs();
  fig.phase_s = (phase1 - phase0) / 1e9;
  fig.cpu_s = ProcessCpuSeconds() - cpu0;
  fig.peak_rss_mb = PeakRssMb();
  const auto server1 = net->metrics();
  net->Stop();
  net.reset();
  wal->Close().ok();

  int64_t fragments = 0, bad = 0, frames_in = 0, fragments_in = 0,
          bytes_in = 0;
  bool broken = false;
  std::string first_error;
  for (const LoopState& st : loops) {
    fig.ops += st.ops;
    fig.op_ms.insert(fig.op_ms.end(), st.op_ms.begin(), st.op_ms.end());
    fragments += st.fragments;
    bad += st.bad_ops;
    frames_in += st.frames_in;
    fragments_in += st.fragments_in;
    bytes_in += st.bytes_in;
    broken |= st.broken;
    if (first_error.empty()) first_error = st.first_error;
  }
  std::fprintf(stderr,
               "resume_replay: %lld resumes, %lld fragments replayed, "
               "%d threads\n",
               static_cast<long long>(fig.ops),
               static_cast<long long>(fragments), peak_threads.load());
  char detail[256];
  std::snprintf(detail, sizeof(detail), "%lld resumes, %lld wrong%s%s",
                static_cast<long long>(fig.ops), static_cast<long long>(bad),
                first_error.empty() ? "" : "; first: ", first_error.c_str());
  checks->Expect(kCheckSeqs, !broken && bad == 0, detail);
  // Every frame the server wrote reached a subscriber: one HELLO ack per
  // connection, the rest FRAGMENT frames (heartbeats are off).
  const int64_t frames_out = server1.frames_out - server0.frames_out;
  const int64_t bytes_out = server1.bytes_out - server0.bytes_out;
  int64_t fragment_frames_out =
      frames_out -
      (server1.connections_accepted - server0.connections_accepted);
  if (checks->Perturb(kCheckFrames)) ++fragment_frames_out;
  std::snprintf(detail, sizeof(detail),
                "server %lld fragment frames / %lld bytes out, subscribers "
                "%lld fragment frames / %lld bytes in (%lld frames)",
                static_cast<long long>(fragment_frames_out),
                static_cast<long long>(bytes_out),
                static_cast<long long>(fragments_in),
                static_cast<long long>(bytes_in),
                static_cast<long long>(frames_in));
  checks->Expect(kCheckFrames,
                 fragment_frames_out == fragments_in &&
                     frames_out == frames_in && bytes_out == bytes_in,
                 detail);
  out->attempted = fig.ops;
  out->failed = 0;
  for (const LoopState& st : loops) out->failed += st.broken ? 1 : 0;
  if (broken) return true;  // the checks above report it; no figures

  fig.bytes_per_op = static_cast<double>(bytes_in) / fragments;
  if (!args.trace) {
    AddEndToEnd(fig, out);
    return true;
  }
  std::vector<const SpanLog*> logs = {&setup_spans};
  for (const LoopState& st : loops) logs.push_back(&st.spans);
  out->Add("wal.recover_ms",
           Percentile(SpanDurationsUs(logs, "wal.recover"), 0.5) / 1e3, "ms");
  out->Add("server.handshake_ms",
           Percentile(SpanDurationsUs(logs, "server.handshake"), 0.5) / 1e3,
           "ms");
  out->Add("server.replay_ms",
           Percentile(SpanDurationsUs(logs, "server.replay"), 0.5) / 1e3,
           "ms");
  out->Add("frag.decode_us",
           Percentile(SpanDurationsUs(logs, "frag.decode"), 0.5), "us");
  out->Add("subscriber.drain_us",
           Percentile(SpanDurationsUs(logs, "subscriber.drain"), 0.5), "us");
  out->Add("frag.store_insert_us",
           Percentile(SpanDurationsUs(logs, "frag.store_insert"), 0.5), "us");
  out->Add("server.wire_bytes_per_fragment",
           static_cast<double>(bytes_out) / fragments, "B");
  out->Add("server.frame_log_mb", frame_log_mb, "MB");
  double overhead = 0;
  for (const LoopState& st : loops) overhead += st.blocks.OverheadPct();
  out->Add("trace.overhead_pct", overhead / kLoops, "%");
  if (!args.span_file.empty() && !WriteSpanFile(args.span_file, logs)) {
    std::fprintf(stderr, "resume_replay: cannot write %s\n",
                 args.span_file.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
