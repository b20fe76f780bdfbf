#include "benchutil/json_writer.h"

#include <cstdio>

namespace apa::bench {

bool BenchJsonWriter::write(const std::string& path) const {
  if (path.empty()) return false;
  std::string rows = "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows += i > 0 ? ",\n    " : "\n    ";
    rows += rows_[i].to_json();
  }
  rows += rows_.empty() ? "]" : "\n  ]";
  const std::string text =
      obs::JsonRecord(meta_).set_raw("rows", std::move(rows)).to_json("  ") + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", name_.c_str(),
                 path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (ok) std::printf("\nwrote %s\n", path.c_str());
  return ok;
}

}  // namespace apa::bench
