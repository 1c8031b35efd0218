// The XMark auction stream two workloads publish: the fragmented
// document, then updates — each a new version of a randomly picked
// fragmented filler, as `xcql_serve --updates` makes them. The document is
// the same for every seed, so runs on different seeds publish fragments of
// the same sizes; the seed picks the updates. The same seed always yields
// the same fragments, so a process can regenerate what another one
// published and compare digests.
#ifndef PERFBENCH_XMARK_STREAM_H_
#define PERFBENCH_XMARK_STREAM_H_

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "frag/fragment.h"
#include "frag/tag_structure.h"

namespace perfbench {

class XMarkStream {
 public:
  /// Generates and fragments the document and seeds the updates; false
  /// (reported on stderr) when the generator or the fragmenter fails.
  bool Init(uint64_t seed, double scale);

  const std::string& ts_xml() const { return ts_xml_; }
  const xcql::frag::TagStructure& ts() const { return *ts_; }

  /// The document's fragments, in publish order (once).
  std::vector<xcql::frag::Fragment> TakeDocument();
  /// The next update: a fresh validTime, the filler's latest payload with
  /// a new `rev` attribute.
  xcql::frag::Fragment NextUpdate();

 private:
  std::string ts_xml_;
  std::unique_ptr<xcql::frag::TagStructure> ts_;
  std::vector<xcql::frag::Fragment> document_;
  // Latest payload per updatable filler: the generator's own model of the
  // stream, never read back from the program.
  std::vector<xcql::frag::Fragment> latest_;
  std::mt19937_64 rng_;
  int64_t t_ = 0;
  int64_t rev_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_XMARK_STREAM_H_
