#pragma once
// Domain linter for bilinear matrix-multiplication rules (tools/rule_lint).
//
// The correctness of everything downstream — lambda* selection, the predicted
// error bound, the guard tolerances — rests on the (U, V, W) coefficient
// tables being transcribed exactly. This reproduction already found one
// published transcription defect by hand (the duplicated B-factor in Bini
// <3,2,2> M10, see DESIGN.md); the linter machine-checks that defect class and
// every structural invariant a rule must satisfy:
//
//   brent-violation    Brent equations re-verified symbolically over Q[L,L^-1]
//   sigma-mismatch     recomputed sigma differs from declared/catalog metadata
//   phi-mismatch       recomputed phi differs from declared/catalog metadata
//   rank-mismatch      built rank differs from declared/catalog metadata
//   rank-bounds        rank outside [max(mk,kn,mn), m*k*n]
//   degenerate-factor  a product whose A-side or B-side combination is zero
//   unused-product     a product no output combination consumes
//   duplicate-product  two products with proportional A- AND B-factors
//   duplicate-factor   two products sharing a proportional single-side factor
//                      in a rule that fails Brent (the M9/M10 defect class)
//
// Single-side duplicate factors are legal in valid rules (classical shares
// them by construction), so `duplicate-factor` only fires as supporting
// context for a Brent failure; `duplicate-product` (both sides proportional)
// is always reported since it means the rank is not minimal.

#include <map>
#include <string>
#include <vector>

#include "core/rule.h"

namespace apa::lint {

enum class Severity { kNote, kWarning, kError };

[[nodiscard]] const char* to_string(Severity s);

struct Finding {
  Severity severity = Severity::kError;
  std::string code;     ///< stable machine-readable id, e.g. "brent-violation"
  std::string object;   ///< rule name, file path, or "name:M<l>" locus
  std::string message;  ///< human-readable diagnostic
};

/// Declared metadata to cross-check against recomputed values; -1 disables the
/// corresponding check (sigma/phi of exact rules are declared as 0).
struct Expectations {
  index_t rank = -1;
  int sigma = -1;
  int phi = -1;
};

/// Structural and symbolic checks on one in-memory rule.
[[nodiscard]] std::vector<Finding> lint_rule(const core::Rule& rule,
                                             const Expectations& expected = {});

/// Loads `path` (serialize.h format), extracts any declared `sigma` / `phi` /
/// `rank` metadata lines, and lints the rule. Parse failures surface as a
/// single `parse-error` finding instead of an exception.
[[nodiscard]] std::vector<Finding> lint_rule_file(const std::string& path);

/// Lints every registry algorithm against its AlgorithmInfo rank and the
/// documented sigma/phi values (catalog.h, DESIGN.md).
[[nodiscard]] std::vector<Finding> lint_catalog();

/// The documented (rank, sigma, phi) table the catalog lint checks against —
/// the single source of truth for every rule's error model. Exposed so the
/// bounds export below (and tests) read the same values the linter enforces.
[[nodiscard]] const std::map<std::string, Expectations>&
documented_expectations();

/// One catalog rule's documented metadata plus its σ/φ-derived model error
/// bounds at single precision (core::ProductGuard::model_error_bound) — what
/// the guard tolerance and tools/obs/health_report derive from.
struct RuleBound {
  std::string name;
  index_t m = 0, k = 0, n = 0;
  index_t rank = 0;
  int sigma = 0;
  int phi = 0;
  bool exact = false;
  bool documented = false;  ///< false: not yet pinned in the linter's table
  double bound_1step = 0.0;  ///< model bound at 23 bits, one recursive step
  double bound_2step = 0.0;
};

/// Bounds for every registry algorithm, in catalog order.
[[nodiscard]] std::vector<RuleBound> catalog_bounds();

/// The same table rendered as a machine-readable JSON array — the
/// `rule_lint --bounds-json=PATH` payload consumed by health_report.
[[nodiscard]] std::string bounds_json();

[[nodiscard]] bool has_errors(const std::vector<Finding>& findings);

/// One-line rendering: "error[brent-violation] bini322: ...".
[[nodiscard]] std::string format(const Finding& finding);

}  // namespace apa::lint
