#include "benchutil/algos.h"

#include "core/params.h"
#include "core/registry.h"
#include "support/check.h"

namespace apa::bench {

std::vector<std::string> resolve_algorithms(const std::vector<std::string>& requested) {
  std::vector<std::string> out;
  const auto add_filtered = [&](bool want_exact, bool want_apa) {
    out.emplace_back("classical");
    for (const auto& info : core::list_algorithms()) {
      const auto params = core::analyze(core::rule_by_name(info.name));
      if ((params.exact && want_exact) || (!params.exact && want_apa)) {
        out.push_back(info.name);
      }
    }
  };
  if (requested.size() == 1 && requested[0] == "all") {
    add_filtered(true, true);
    return out;
  }
  if (requested.size() == 1 && requested[0] == "apa") {
    add_filtered(false, true);
    return out;
  }
  if (requested.size() == 1 && requested[0] == "exact") {
    add_filtered(true, false);
    return out;
  }
  for (const auto& name : requested) {
    APA_CHECK_MSG(name == "classical" || core::has_algorithm(name),
                  "unknown algorithm '" << name << "'");
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> with_classical_first(std::vector<std::string> algos) {
  std::erase(algos, "classical");
  algos.insert(algos.begin(), "classical");
  return algos;
}

}  // namespace apa::bench
