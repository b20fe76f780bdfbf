#include "benchutil/json_writer.h"

#include <cstdio>

#include "obs/json.h"

namespace apa::bench {

bool BenchJsonWriter::write(const std::string& path) const {
  if (path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", name_.c_str(),
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": %s,\n", obs::json_quote(name_).c_str());
  const std::string meta_json = meta_.to_json();
  if (meta_json.size() > 2) {  // non-empty object: splice its fields inline
    std::fprintf(f, "  %s,\n",
                 meta_json.substr(1, meta_json.size() - 2).c_str());
  }
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "    %s%s\n", rows_[i].to_json().c_str(),
                 i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace apa::bench
