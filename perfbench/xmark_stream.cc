#include "xmark_stream.h"

#include <cstdio>

#include "frag/fragmenter.h"
#include "xmark/generator.h"

namespace perfbench {

using xcql::frag::Fragment;

bool XMarkStream::Init(uint64_t seed, double scale) {
  rng_.seed(seed);
  xcql::xmark::XMarkOptions xo;
  xo.scale = scale;  // and the generator's own default document seed
  auto doc = xcql::xmark::GenerateAuctionDoc(xo);
  ts_xml_ = xcql::xmark::AuctionTagStructureXml();
  auto ts = xcql::frag::TagStructure::Parse(ts_xml_);
  if (!doc.ok() || !ts.ok()) {
    std::fprintf(stderr, "xmark: %s\n",
                 (doc.ok() ? ts.status() : doc.status()).ToString().c_str());
    return false;
  }
  ts_ = std::make_unique<xcql::frag::TagStructure>(std::move(ts).MoveValue());
  xcql::frag::Fragmenter fragmenter(ts_.get());
  auto frags = fragmenter.Split(*doc.value());
  if (!frags.ok()) {
    std::fprintf(stderr, "xmark: %s\n", frags.status().ToString().c_str());
    return false;
  }
  document_ = std::move(frags).MoveValue();
  for (const Fragment& f : document_) {
    const auto* tag = ts_->FindById(f.tsid);
    if (tag != nullptr && tag->fragmented()) {
      latest_.push_back({f.id, f.tsid, f.valid_time, f.content->Clone()});
    }
    t_ = std::max(t_, f.valid_time.seconds());
  }
  if (latest_.empty()) {
    std::fprintf(stderr, "xmark: no fragmented fillers to update\n");
    return false;
  }
  return true;
}

std::vector<Fragment> XMarkStream::TakeDocument() {
  return std::move(document_);
}

Fragment XMarkStream::NextUpdate() {
  Fragment& base = latest_[rng_() % latest_.size()];
  Fragment f;
  f.id = base.id;
  f.tsid = base.tsid;
  t_ += 1 + static_cast<int64_t>(rng_() % 60);
  f.valid_time = xcql::DateTime(t_);
  f.content = base.content->Clone();
  f.content->SetAttr("rev", std::to_string(++rev_));
  base.content = f.content;  // published payloads are never mutated
  return f;
}

}  // namespace perfbench
