// apamm-lint rule linter CLI (see rule_lint.h for the rule catalog).
//
//   ./build/tools/rule_lint                        # catalog + rules/
//   ./build/tools/rule_lint --rules-dir=rules
//   ./build/tools/rule_lint path/to/table.rule     # lint specific files only
//
// Exit status: 0 clean (warnings allowed unless --strict), 1 errors found,
// 2 usage/setup problem. Every finding prints one line:
//   error[brent-violation] rules/foo.rule: foo: Brent equation violated at ...

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "lint/rule_lint.h"
#include "support/cli.h"

int main(int argc, char** argv) {
  using namespace apa;
  namespace fs = std::filesystem;
  const CliArgs args(argc, argv);
  const bool strict = args.get_bool("strict");

  // Bounds export mode: dump the catalog's σ/φ error-bound table as JSON
  // (the single source of truth tools/obs/health_report reads) and exit.
  if (const std::string bounds_path = args.get("bounds-json", "");
      !bounds_path.empty()) {
    const std::string json = lint::bounds_json();
    if (bounds_path == "-") {
      std::fputs(json.c_str(), stdout);
      return 0;
    }
    std::FILE* f = std::fopen(bounds_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "rule_lint: cannot write '%s'\n",
                   bounds_path.c_str());
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("rule_lint: wrote catalog bounds to %s\n", bounds_path.c_str());
    return 0;
  }

  std::vector<lint::Finding> findings;
  const auto run = [&](const char* what, std::vector<lint::Finding> batch) {
    std::size_t errors = 0;
    for (const lint::Finding& f : batch) {
      if (f.severity == lint::Severity::kError) ++errors;
    }
    std::printf("-- %s: %zu finding(s), %zu error(s)\n", what, batch.size(), errors);
    findings.insert(findings.end(), batch.begin(), batch.end());
  };

  if (!args.positional().empty()) {
    for (const std::string& path : args.positional()) {
      run(path.c_str(), lint::lint_rule_file(path));
    }
  } else {
    if (args.get_bool("catalog", true)) {
      run("built-in catalog", lint::lint_catalog());
    }
    const std::string rules_dir = args.get("rules-dir", "rules");
    std::error_code ec;
    std::vector<fs::path> rule_files;
    for (const auto& entry : fs::directory_iterator(rules_dir, ec)) {
      if (entry.path().extension() == ".rule") rule_files.push_back(entry.path());
    }
    if (ec) {
      std::fprintf(stderr, "rule_lint: cannot open rules dir '%s': %s\n",
                   rules_dir.c_str(), ec.message().c_str());
      return 2;
    }
    std::sort(rule_files.begin(), rule_files.end());
    for (const fs::path& path : rule_files) {
      run(path.string().c_str(), lint::lint_rule_file(path.string()));
    }
  }

  std::size_t errors = 0, warnings = 0;
  for (const lint::Finding& f : findings) {
    std::printf("%s\n", lint::format(f).c_str());
    if (f.severity == lint::Severity::kError) ++errors;
    if (f.severity == lint::Severity::kWarning) ++warnings;
  }
  std::printf("rule_lint: %zu error(s), %zu warning(s), %zu finding(s) total\n",
              errors, warnings, findings.size());
  const bool fail = errors > 0 || (strict && warnings > 0);
  return fail ? 1 : 0;
}
