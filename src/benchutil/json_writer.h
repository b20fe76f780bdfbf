#pragma once
// Shared writer for the repo's BENCH_*.json artifacts. The document
//   {"bench": <name>, <meta fields...>, "rows": [ {...}, ... ]}
// is one obs::JsonRecord (the meta record, which starts with "bench") plus
// the rendered rows, so fields stay insertion-ordered and string/number
// escaping is handled in one place.

#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace apa::bench {

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name) : name_(std::move(bench_name)) {
    meta_.set("bench", name_);
  }

  /// Top-level metadata fields, rendered between "bench" and "rows".
  [[nodiscard]] obs::JsonRecord& meta() { return meta_; }
  void add_row(obs::JsonRecord row) { rows_.push_back(std::move(row)); }

  /// Writes the document to `path`, one field and one row per line so the
  /// committed files stay diffable, and reports it on stdout. Empty path is a
  /// silent no-op; an unwritable path warns on stderr. Returns success.
  bool write(const std::string& path) const;

 private:
  std::string name_;
  obs::JsonRecord meta_;
  std::vector<obs::JsonRecord> rows_;
};

}  // namespace apa::bench
