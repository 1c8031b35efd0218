// quote_monitor: the paper's §1 stock monitor. One operation is one
// StreamServer::Publish of a stock quote (a new version of a temporal
// `price` filler) for one of 100 symbols, into a FragmentServer without a
// WAL whose QueryChannel holds the remote continuous queries: the swing
// alert under QaC+, QaC and CaQ, a windowed aggregate, and one query that
// quotes cannot affect. The evaluator, translator, projections and
// continuous engine do nearly all the work.
#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>

#include "frag/fragment_store.h"
#include "frag/fragmenter.h"
#include "net/frame.h"
#include "net/query_channel.h"
#include "net/server.h"
#include "stream/clock.h"
#include "stream/continuous.h"
#include "stream/registry.h"
#include "stream/transport.h"
#include "workloads.h"
#include "xcql/executor.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using xcql::DateTime;
using xcql::frag::Fragment;

constexpr const char* kStream = "quotes";
constexpr int kSymbols = 100;
constexpr const char* kQuotesTs = R"(
<tag type="snapshot" id="1" name="quotes">
  <tag type="temporal" id="2" name="stock">
    <tag type="temporal" id="3" name="price"/>
  </tag>
  <tag type="event" id="4" name="halt"/>
</tag>)";
constexpr int kPriceTsid = 3;
constexpr int64_t kSwingWindowS = 120;
constexpr int64_t kHighWindowS = 60;
constexpr int64_t kHaltWindowS = 300;
// Halts in the opening document, seconds before the open: the first lies
// outside the halt query's window, the rest inside.
constexpr int64_t kHaltOffsetsS[] = {400, 250, 120, 30};

// Alert when a symbol moved more than 5% within the last two minutes.
constexpr const char* kSwingQuery = R"(
for $s in stream("quotes")//stock
let $w := $s/price?[now - PT2M, now]
where some $a in $w, $b in $w
      satisfies $b/text() - $a/text() > $a/text() * 0.05
         or $a/text() - $b/text() > $a/text() * 0.05
return <alert sym="{$s/@id}" current="{$s/price#[last]/text()}"/>)";
// Each symbol's high over the last minute. The prices are converted with
// number(): fn:max over the untyped text compares strings ("9996" above
// "10022"), a fault noted in CHANGES.md.
constexpr const char* kHighQuery = R"(
for $s in stream("quotes")//stock
return <high sym="{$s/@id}"
             max="{max(for $p in $s/price?[now - PT1M, now] return number($p))}"/>)";
// Trading halts of the last five minutes: quotes cannot affect it, so a
// data-driven registration is skipped on every quote.
constexpr const char* kHaltQuery = R"(
for $h in stream("quotes")//halt?[now - PT5M, now]
return <halted sym="{$h/@sym}"/>)";

constexpr const char* kCheckSwing = "quotes.swing_alert_matches";
constexpr const char* kCheckHigh = "quotes.window_high_matches";
constexpr const char* kCheckHalt = "quotes.halt_query_matches";
constexpr const char* kCheckMethods = "quotes.methods_identical";

struct Registration {
  const char* text;
  xcql::lang::ExecMethod method;
  xcql::stream::TickPolicy tick;
};
const Registration kRegistrations[] = {
    {kSwingQuery, xcql::lang::ExecMethod::kQaCPlus,
     xcql::stream::TickPolicy::kAuto},
    {kSwingQuery, xcql::lang::ExecMethod::kQaC,
     xcql::stream::TickPolicy::kAuto},
    {kSwingQuery, xcql::lang::ExecMethod::kCaQ,
     xcql::stream::TickPolicy::kAuto},
    {kHighQuery, xcql::lang::ExecMethod::kQaCPlus,
     xcql::stream::TickPolicy::kAuto},
    {kHaltQuery, xcql::lang::ExecMethod::kQaCPlus,
     xcql::stream::TickPolicy::kDataDriven},
};
constexpr size_t kNumRegs = sizeof(kRegistrations) / sizeof(kRegistrations[0]);

xcql::net::RemoteQuerySpec Spec(const Registration& r) {
  xcql::net::RemoteQuerySpec spec;
  spec.method = static_cast<uint8_t>(r.method);
  spec.tick_policy = static_cast<uint8_t>(r.tick);
  spec.text = r.text;
  return spec;
}

std::string SymbolName(int s) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "S%03d", s);
  return buf;
}

struct Quote {
  int sym;
  int64_t t;
  int64_t price;  // cents
};

// One RESULT delta as the checks compare it.
struct Delta {
  int64_t eval_time_s;
  std::vector<std::string> added;
  bool operator==(const Delta& o) const {
    return eval_time_s == o.eval_time_s && added == o.added;
  }
};

// The harness's own model of the queries, from the quotes it generated and
// the paper's interval-projection semantics: a version belongs to a window
// [now - w, now] when its lifespan [vtFrom, vtTo] overlaps it, a temporal
// version's vtTo being its successor's vtFrom (now for the latest).
class Model {
 public:
  Model(std::vector<int64_t> opening_prices, int64_t open_t,
        std::vector<std::pair<int, int64_t>> halts)
      : halts_(std::move(halts)) {
    versions_.resize(opening_prices.size());
    for (size_t s = 0; s < opening_prices.size(); ++s) {
      versions_[s].push_back({open_t, opening_prices[s]});
    }
  }

  void Apply(const Quote& q) { versions_[q.sym].push_back({q.t, q.price}); }

  // The three deltas of a tick at `now`; a query with nothing new emits
  // no RESULT, so an empty delta stands for "no frame".
  Delta Swing(int64_t now) {
    Delta d{now, {}};
    for (size_t s = 0; s < versions_.size(); ++s) {
      std::vector<double> w = Window(s, now, kSwingWindowS);
      bool alert = false;
      for (double a : w) {
        for (double b : w) {
          if (b - a > a * 0.05 || a - b > a * 0.05) alert = true;
        }
      }
      if (!alert) continue;
      std::string item = "<alert sym=\"" + SymbolName(static_cast<int>(s)) +
                         "\" current=\"" +
                         std::to_string(versions_[s].back().second) + "\"/>";
      if (seen_swing_.insert(item).second) d.added.push_back(item);
    }
    return d;
  }
  Delta High(int64_t now) {
    Delta d{now, {}};
    for (size_t s = 0; s < versions_.size(); ++s) {
      std::vector<double> w = Window(s, now, kHighWindowS);
      const double hi = *std::max_element(w.begin(), w.end());
      std::string item = "<high sym=\"" + SymbolName(static_cast<int>(s)) +
                         "\" max=\"" +
                         std::to_string(static_cast<int64_t>(hi)) + "\"/>";
      if (seen_high_.insert(item).second) d.added.push_back(item);
    }
    return d;
  }
  Delta Halt(int64_t now) {
    Delta d{now, {}};
    for (const auto& [sym, t] : halts_) {
      if (t < now - kHaltWindowS || t > now) continue;
      std::string item = "<halted sym=\"" + SymbolName(sym) + "\"/>";
      if (seen_halt_.insert(item).second) d.added.push_back(item);
    }
    return d;
  }

 private:
  std::vector<double> Window(size_t s, int64_t now, int64_t width) const {
    const auto& v = versions_[s];
    std::vector<double> w;
    for (size_t i = 0; i < v.size(); ++i) {
      const int64_t from = v[i].first;
      const int64_t to = i + 1 < v.size() ? v[i + 1].first : now;
      if (from <= now && to >= now - width) {
        w.push_back(static_cast<double>(v[i].second));
      }
    }
    return w;
  }

  std::vector<std::vector<std::pair<int64_t, int64_t>>> versions_;
  std::vector<std::pair<int, int64_t>> halts_;
  std::set<std::string> seen_swing_, seen_high_, seen_halt_;
};

// Decodes one query's RESULT frames; false on a frame that does not decode
// or a result seq that is not contiguous from 0.
bool DecodeResults(
    const std::vector<std::shared_ptr<const std::string>>& frames,
    std::vector<Delta>* out) {
  xcql::net::FrameReader reader;
  for (const auto& f : frames) reader.Feed(f->data(), f->size());
  int64_t next_seq = 0;
  for (;;) {
    auto frame = reader.Next();
    if (!frame.ok()) return false;
    if (!frame.value().has_value()) break;
    const xcql::net::Frame& fr = *frame.value();
    if (fr.type != xcql::net::FrameType::kResult || !fr.crc_ok ||
        static_cast<int64_t>(fr.seq) != next_seq++) {
      return false;
    }
    auto delta = xcql::net::DecodeResultDelta(fr.payload);
    if (!delta.ok()) return false;
    out->push_back({delta.value().eval_time_s, delta.value().added});
  }
  return true;
}

std::string DescribeMismatch(const std::vector<Delta>& got,
                             const std::vector<Delta>& want) {
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu deltas received, %zu recomputed, first difference at "
                "delta %zu",
                got.size(), want.size(), i);
  return got == want ? std::to_string(got.size()) + " deltas match" : buf;
}

// The layer probes of a traced run. They see every quote (their state must
// track the stream); spans are recorded in traced blocks only.
struct Probes {
  xcql::stream::StreamHub hub;
  xcql::stream::SimClock clock;
  xcql::frag::FragmentStore* store = nullptr;
  // One zero-worker engine per swing-alert method, plus one for the other
  // two queries, so each method's evaluation is timed on its own.
  std::vector<std::unique_ptr<xcql::stream::ContinuousQueryEngine>> engines;
  std::unique_ptr<xcql::net::QueryChannel> channel;
};

}  // namespace

std::vector<std::string> QuoteMonitorChecks() {
  return {kCheckSwing, kCheckHigh, kCheckHalt, kCheckMethods};
}

bool RunQuoteMonitor(const Args& args, Checks* checks, Result* out) {
  std::mt19937_64 rng(args.seed);

  // ---- set-up: the opening document, the served stream, the queries ----
  const DateTime open_time = DateTime::Parse("2004-04-05T09:30:00").value();
  const int64_t open_t = open_time.seconds();
  std::vector<int64_t> prices(kSymbols);
  std::string doc = "<quotes>";
  for (int s = 0; s < kSymbols; ++s) {
    prices[s] = 2000 + static_cast<int64_t>(rng() % 88000);
    doc += "<stock id=\"" + SymbolName(s) + "\" vtFrom=\"" +
           open_time.ToString() + "\" vtTo=\"now\"><price vtFrom=\"" +
           open_time.ToString() + "\" vtTo=\"now\">" +
           std::to_string(prices[s]) + "</price></stock>";
  }
  std::vector<std::pair<int, int64_t>> halts;
  for (int64_t off : kHaltOffsetsS) {
    const int sym = static_cast<int>(rng() % kSymbols);
    const DateTime at(open_t - off);
    halts.push_back({sym, at.seconds()});
    doc += "<halt sym=\"" + SymbolName(sym) + "\" vtFrom=\"" + at.ToString() +
           "\" vtTo=\"" + at.ToString() + "\"/>";
  }
  doc += "</quotes>";
  const std::vector<int64_t> opening = prices;
  auto doc_node = xcql::ParseXml(doc);
  if (Fail(doc_node.status(), "parse opening document")) return false;
  auto ts = xcql::frag::TagStructure::Parse(kQuotesTs);
  if (Fail(ts.status(), "tag structure")) return false;
  xcql::frag::Fragmenter fragmenter(&ts.value());
  auto frags = fragmenter.Split(*doc_node.value());
  if (Fail(frags.status(), "fragment")) return false;
  // Each symbol's price filler: the hole inside its stock fragment.
  std::vector<int64_t> price_filler(kSymbols, -1);
  for (const Fragment& f : frags.value()) {
    const std::string* id = f.content->FindAttr("id");
    if (f.tsid != 2 || id == nullptr) continue;
    for (const auto& c : f.content->children()) {
      if (c->is_element() && xcql::frag::IsHoleElement(*c)) {
        price_filler[std::stoi(id->substr(1))] =
            xcql::frag::HoleId(*c).value();
      }
    }
  }
  if (std::count(price_filler.begin(), price_filler.end(), -1) != 0) {
    std::fprintf(stderr, "quote_monitor: a symbol has no price filler\n");
    return false;
  }

  xcql::stream::StreamServer server(
      kStream, xcql::frag::TagStructure::Parse(kQuotesTs).MoveValue());
  xcql::net::QueryChannel channel(
      kStream, xcql::frag::TagStructure::Parse(kQuotesTs).MoveValue());
  if (Fail(channel.Open(), "channel open")) return false;
  xcql::net::FragmentServerOptions net_opts;
  net_opts.query_channel = &channel;
  auto net = std::make_unique<xcql::net::FragmentServer>(&server, net_opts);
  if (Fail(net->Start(), "server start")) return false;
  for (Fragment& f : frags.value()) {
    if (Fail(server.Publish(std::move(f)), "publish document")) return false;
  }

  // RESULT frames per registration, as the channel delivers them.
  std::vector<std::vector<std::shared_ptr<const std::string>>> frames(
      kNumRegs);
  int64_t result_bytes = 0;
  bool measuring = false;
  int sink_handles[kNumRegs];
  for (size_t r = 0; r < kNumRegs; ++r) {
    auto id = channel.Register(Spec(kRegistrations[r]));
    if (Fail(id.status(), "register")) return false;
    auto deliver = [&frames, &result_bytes, &measuring,
                    r](const std::shared_ptr<const std::string>& frame) {
      frames[r].push_back(frame);
      if (measuring) result_bytes += static_cast<int64_t>(frame->size());
    };
    if (Fail(channel.Subscribe(id.value(), -1, &sink_handles[r], deliver),
             "subscribe")) {
      return false;
    }
  }
  LoopFigures fig;
  fig.setup_s = SinceStartSeconds();

  // ---- traced-run probes ----
  SpanLog spans(false);
  TraceBlocks blocks(args.trace);
  Probes probes;
  if (args.trace) {
    auto store = probes.hub.AddLocalStream(
        kStream, xcql::frag::TagStructure::Parse(kQuotesTs).MoveValue());
    if (Fail(store.status(), "probe store")) return false;
    probes.store = store.value();
    xcql::lang::QueryExecutor executor;
    if (Fail(executor.RegisterStream(probes.store), "probe executor")) {
      return false;
    }
    spans.set_enabled(true);
    for (const Registration& r : kRegistrations) {
      ScopedSpan s(&spans, "xcql.prepare", -1);
      if (Fail(executor.Prepare(r.text, r.method).status(), "prepare")) {
        return false;
      }
    }
    for (int e = 0; e < 4; ++e) {
      probes.engines.push_back(
          std::make_unique<xcql::stream::ContinuousQueryEngine>(
              &probes.hub, &probes.clock));
      probes.engines.back()->set_workers(0);
    }
    for (size_t r = 0; r < kNumRegs; ++r) {
      xcql::stream::ContinuousQueryOptions o;
      o.method = kRegistrations[r].method;
      o.tick_policy = kRegistrations[r].tick;
      auto& engine = *probes.engines[std::min<size_t>(r, 3)];
      if (Fail(engine.Register(kRegistrations[r].text,
                               [](const xcql::xq::Sequence&, DateTime) {}, o)
                   .status(),
               "probe register")) {
        return false;
      }
    }
    // The probes start from the same opening document, and their queries
    // first run at the first quote, as the served channel's do.
    probes.channel = std::make_unique<xcql::net::QueryChannel>(
        kStream, xcql::frag::TagStructure::Parse(kQuotesTs).MoveValue());
    if (Fail(probes.channel->Open(), "probe channel")) return false;
    for (int64_t seq = 0; seq < server.history_size(); ++seq) {
      const Fragment& h = server.history_at(seq);
      probes.channel->OnFragment(h);
      Fragment c{h.id, h.tsid, h.valid_time, h.content->Clone()};
      if (Fail(probes.store->Insert(std::move(c)), "probe insert")) {
        return false;
      }
    }
    for (const Registration& r : kRegistrations) {
      if (Fail(probes.channel->Register(Spec(r)).status(), "probe register")) {
        return false;
      }
    }
  }

  // ---- measured phase ----
  std::vector<Quote> quotes;
  int64_t t = open_t;
  measuring = true;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t phase0 = NowNs();
  const int64_t deadline = phase0 + static_cast<int64_t>(args.seconds * 1e9);
  int64_t op = 0;
  for (; NowNs() < deadline || op < 1000; ++op) {
    const int64_t iter0 = NowNs();
    const bool traced = blocks.Traced(op);
    // A random walk of +-0.8% per quote, with an occasional 7-10% jump.
    Quote q;
    q.sym = static_cast<int>(rng() % kSymbols);
    q.t = ++t;
    const double u = static_cast<double>(rng() % 1000000) / 1e6;
    double move = (u - 0.5) * 0.016;
    if (rng() % 100 < 3) move = (rng() % 2 ? 1 : -1) * (0.07 + u * 0.03);
    q.price = std::clamp<int64_t>(
        static_cast<int64_t>(prices[q.sym] * (1.0 + move)), 500, 900000);
    prices[q.sym] = q.price;
    quotes.push_back(q);
    Fragment f;
    f.id = price_filler[q.sym];
    f.tsid = kPriceTsid;
    f.valid_time = DateTime(q.t);
    f.content = xcql::Node::Element("price");
    f.content->AddChild(xcql::Node::Text(std::to_string(q.price)));
    Fragment probe_copy = f;

    spans.set_enabled(traced);
    const int64_t t0 = NowNs();
    int32_t op_span = traced ? spans.Begin("op", op) : -1;
    xcql::Status st = server.Publish(std::move(f));
    if (op_span >= 0) spans.End(op_span);
    fig.op_ms.push_back((NowNs() - t0) / 1e6);
    if (Fail(st, "publish")) return false;

    int64_t probe_ns = 0;
    if (args.trace) {
      const int64_t p0 = NowNs();
      {
        ScopedSpan s(&spans, "query_channel.feed", op);
        probes.channel->OnFragment(probe_copy);
      }
      // The probe store gets its own payload: the probe channel's tick
      // workers may be reading the one the channel mirrored.
      probe_copy.content = probe_copy.content->Clone();
      {
        ScopedSpan s(&spans, "frag.store_insert", op);
        st = probes.store->Insert(std::move(probe_copy));
      }
      if (Fail(st, "probe insert")) return false;
      probes.clock.AdvanceTo(probes.store->max_valid_time());
      static const char* const kEngineSpans[] = {
          "engine.eval.qacplus", "engine.eval.qac", "engine.eval.caq",
          "engine.eval.other"};
      for (size_t e = 0; e < probes.engines.size(); ++e) {
        ScopedSpan s(&spans, kEngineSpans[e], op);
        st = probes.engines[e]->Tick();
        if (Fail(st, "probe tick")) return false;
      }
      probe_ns = NowNs() - p0;
    }
    blocks.AddOpTime(traced, (NowNs() - iter0 - probe_ns) / 1e3);
  }
  const int64_t phase1 = NowNs();
  measuring = false;
  fig.ops = op;
  fig.phase_s = (phase1 - phase0) / 1e9;
  fig.cpu_s = ProcessCpuSeconds() - cpu0;
  fig.peak_rss_mb = PeakRssMb();
  fig.bytes_per_op = static_cast<double>(result_bytes) / fig.ops;
  std::fprintf(stderr,
               "quote_monitor: %lld quotes, %lld RESULT frames, %d threads\n",
               static_cast<long long>(fig.ops),
               static_cast<long long>(channel.stats().result_frames),
               ThreadCount());
  net->Stop();
  net.reset();

  // ---- checks: recompute every delta from the generated quotes ----
  std::vector<std::vector<Delta>> got(kNumRegs);
  std::vector<bool> decoded(kNumRegs);
  for (size_t r = 0; r < kNumRegs; ++r) {
    decoded[r] = DecodeResults(frames[r], &got[r]);
  }
  // Each check compares its own copy, so a perturbation reaches one check.
  auto perturbed = [&](const char* check, size_t reg, auto&& change) {
    std::vector<Delta> v = got[reg];
    if (checks->Perturb(check) && !v.empty()) change(v);
    return v;
  };
  auto alter_last_item = [](std::vector<Delta>& v) {
    v.back().added.back()[1] ^= 1;
  };
  const auto swing = perturbed(kCheckSwing, 0, alter_last_item);
  const auto high = perturbed(kCheckHigh, 3, alter_last_item);
  const auto halt = perturbed(kCheckHalt, 4, [](std::vector<Delta>& v) {
    v.front().added.pop_back();
  });
  const auto caq = perturbed(kCheckMethods, 2, [](std::vector<Delta>& v) {
    v.pop_back();
  });
  Model m(opening, open_t, halts);
  std::vector<Delta> want_swing, want_high, want_halt;
  for (const Quote& q : quotes) {
    m.Apply(q);
    Delta d = m.Swing(q.t);
    if (!d.added.empty()) want_swing.push_back(std::move(d));
    d = m.High(q.t);
    if (!d.added.empty()) want_high.push_back(std::move(d));
    d = m.Halt(q.t);
    if (!d.added.empty()) want_halt.push_back(std::move(d));
  }
  checks->Expect(kCheckSwing, decoded[0] && swing == want_swing,
                 DescribeMismatch(swing, want_swing));
  checks->Expect(kCheckHigh, decoded[3] && high == want_high,
                 DescribeMismatch(high, want_high));
  checks->Expect(kCheckHalt, decoded[4] && halt == want_halt,
                 DescribeMismatch(halt, want_halt));
  checks->Expect(kCheckMethods,
                 decoded[0] && decoded[1] && decoded[2] && got[1] == got[0] &&
                     caq == got[0],
                 "QaC " + DescribeMismatch(got[1], got[0]) + "; CaQ " +
                     DescribeMismatch(caq, got[0]));

  out->attempted = fig.ops;
  out->failed = 0;
  if (!args.trace) {
    AddEndToEnd(fig, out);
    return true;
  }
  const std::vector<const SpanLog*> logs = {&spans};
  int64_t evals = 0, skips = 0;
  for (auto& e : probes.engines) {
    evals += e->evaluations();
    skips += e->skips();
  }
  out->Add("xcql.prepare_ms",
           Percentile(SpanDurationsUs(logs, "xcql.prepare"), 0.5) / 1e3, "ms");
  out->Add("engine.eval_ms.qacplus",
           Percentile(SpanDurationsUs(logs, "engine.eval.qacplus"), 0.5) / 1e3,
           "ms");
  out->Add("engine.eval_ms.qac",
           Percentile(SpanDurationsUs(logs, "engine.eval.qac"), 0.5) / 1e3,
           "ms");
  out->Add("engine.eval_ms.caq",
           Percentile(SpanDurationsUs(logs, "engine.eval.caq"), 0.5) / 1e3,
           "ms");
  out->Add("engine.evaluations_per_op", static_cast<double>(evals) / fig.ops,
           "count");
  out->Add("engine.skips_per_op", static_cast<double>(skips) / fig.ops,
           "count");
  out->Add("query_channel.feed_ms",
           Percentile(SpanDurationsUs(logs, "query_channel.feed"), 0.5) / 1e3,
           "ms");
  out->Add("query_channel.result_bytes_per_op",
           static_cast<double>(probes.channel->stats().result_log_bytes) /
               fig.ops,
           "B");
  out->Add("frag.store_insert_us",
           Percentile(SpanDurationsUs(logs, "frag.store_insert"), 0.5), "us");
  out->Add("frag.store_mb",
           static_cast<double>(probes.store->ApproxBytes()) / (1 << 20), "MB");
  out->Add("trace.overhead_pct", blocks.OverheadPct(), "%");
  if (!args.span_file.empty() && !WriteSpanFile(args.span_file, logs)) {
    std::fprintf(stderr, "quote_monitor: cannot write %s\n",
                 args.span_file.c_str());
    return false;
  }
  return true;
}

}  // namespace perfbench
