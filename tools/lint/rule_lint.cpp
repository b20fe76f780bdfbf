#include "lint/rule_lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include <cstdio>

#include "core/guard.h"
#include "core/params.h"
#include "core/registry.h"
#include "core/serialize.h"
#include "support/check.h"
#include "support/rational.h"

namespace apa::lint {
namespace {

using core::LaurentPoly;
using core::Rule;

void add(std::vector<Finding>& out, Severity severity, std::string code,
         std::string object, std::string message) {
  out.push_back({severity, std::move(code), std::move(object), std::move(message)});
}

/// Column l of a coefficient block as a dense vector over entries.
std::vector<const LaurentPoly*> column(const std::vector<LaurentPoly>& coeffs,
                                       index_t entries, index_t rank, index_t l) {
  std::vector<const LaurentPoly*> col;
  col.reserve(static_cast<std::size_t>(entries));
  for (index_t e = 0; e < entries; ++e) {
    col.push_back(&coeffs[static_cast<std::size_t>(e * rank + l)]);
  }
  return col;
}

bool column_is_zero(const std::vector<const LaurentPoly*>& col) {
  return std::all_of(col.begin(), col.end(),
                     [](const LaurentPoly* p) { return p->is_zero(); });
}

/// True when q == ratio * p with a single rational ratio (no lambda shift):
/// same degree support, entry-wise constant coefficient quotient.
bool poly_ratio(const LaurentPoly& p, const LaurentPoly& q, Rational& ratio,
                bool& ratio_set) {
  if (p.is_zero() || q.is_zero()) return p.is_zero() && q.is_zero();
  if (p.term_count() != q.term_count()) return false;
  for (const auto& [degree, coeff] : p.terms()) {
    const Rational other = q.coefficient(degree);
    if (other.is_zero()) return false;
    const Rational r = other / coeff;
    if (!ratio_set) {
      ratio = r;
      ratio_set = true;
    } else if (!(ratio == r)) {
      return false;
    }
  }
  return true;
}

/// True when the two factor columns are proportional by one rational constant.
bool columns_proportional(const std::vector<const LaurentPoly*>& x,
                          const std::vector<const LaurentPoly*>& y) {
  if (column_is_zero(x) || column_is_zero(y)) return false;
  Rational ratio(0);
  bool ratio_set = false;
  for (std::size_t e = 0; e < x.size(); ++e) {
    if (x[e]->is_zero() != y[e]->is_zero()) return false;
    if (x[e]->is_zero()) continue;
    if (!poly_ratio(*x[e], *y[e], ratio, ratio_set)) return false;
  }
  return true;
}

std::string product_name(index_t l) { return "M" + std::to_string(l + 1); }

/// Duplicate / proportional factor detection across products. `brent_failed`
/// escalates single-side duplicates from silence to errors: in a rule that
/// fails Brent, a shared factor is the signature of the published-table
/// transcription defect class (Bini <3,2,2> M10 duplicating M9's B-factor).
void check_duplicate_factors(const Rule& rule, bool brent_failed,
                             std::vector<Finding>& out) {
  const index_t a_entries = rule.m * rule.k;
  const index_t b_entries = rule.k * rule.n;
  for (index_t l1 = 0; l1 < rule.rank; ++l1) {
    const auto u1 = column(rule.u, a_entries, rule.rank, l1);
    const auto v1 = column(rule.v, b_entries, rule.rank, l1);
    for (index_t l2 = l1 + 1; l2 < rule.rank; ++l2) {
      const auto u2 = column(rule.u, a_entries, rule.rank, l2);
      const auto v2 = column(rule.v, b_entries, rule.rank, l2);
      const bool a_dup = columns_proportional(u1, u2);
      const bool b_dup = columns_proportional(v1, v2);
      const std::string locus =
          rule.name + ":" + product_name(l1) + "/" + product_name(l2);
      if (a_dup && b_dup) {
        add(out, Severity::kWarning, "duplicate-product", locus,
            "products " + product_name(l1) + " and " + product_name(l2) +
                " have proportional A- and B-factors; the rank is not minimal");
      } else if (brent_failed && (a_dup || b_dup)) {
        add(out, Severity::kError, "duplicate-factor", locus,
            std::string("products ") + product_name(l1) + " and " +
                product_name(l2) + " share a proportional " +
                (a_dup ? "A" : "B") +
                "-factor in a rule that fails the Brent equations — the "
                "transcription-defect signature (cf. the published Bini "
                "<3,2,2> M10 duplicating M9's B-factor, DESIGN.md)");
      }
    }
  }
}

void check_structure(const Rule& rule, std::vector<Finding>& out) {
  if (rule.m <= 0 || rule.k <= 0 || rule.n <= 0 || rule.rank <= 0) {
    add(out, Severity::kError, "rank-bounds", rule.name,
        "dimensions and rank must be positive");
    return;
  }
  const index_t trivial_upper = rule.m * rule.k * rule.n;
  const index_t trivial_lower =
      std::max({rule.m * rule.k, rule.k * rule.n, rule.m * rule.n});
  if (rule.rank > trivial_upper) {
    add(out, Severity::kError, "rank-bounds", rule.name,
        "rank " + std::to_string(rule.rank) + " exceeds the classical rank " +
            std::to_string(trivial_upper) + " for <" + std::to_string(rule.m) +
            "," + std::to_string(rule.k) + "," + std::to_string(rule.n) + ">");
  }
  if (rule.rank < trivial_lower) {
    add(out, Severity::kError, "rank-bounds", rule.name,
        "rank " + std::to_string(rule.rank) +
            " is below the trivial lower bound max(mk, kn, mn) = " +
            std::to_string(trivial_lower));
  }

  const index_t a_entries = rule.m * rule.k;
  const index_t b_entries = rule.k * rule.n;
  const index_t c_entries = rule.m * rule.n;
  for (index_t l = 0; l < rule.rank; ++l) {
    const bool a_zero = column_is_zero(column(rule.u, a_entries, rule.rank, l));
    const bool b_zero = column_is_zero(column(rule.v, b_entries, rule.rank, l));
    if (a_zero || b_zero) {
      add(out, Severity::kError, "degenerate-factor",
          rule.name + ":" + product_name(l),
          "product " + product_name(l) + " has an identically-zero " +
              (a_zero ? "A" : "B") + "-side combination");
    }
    const bool used = [&] {
      for (index_t e = 0; e < c_entries; ++e) {
        if (!rule.w[static_cast<std::size_t>(e * rule.rank + l)].is_zero()) {
          return true;
        }
      }
      return false;
    }();
    if (!used) {
      add(out, Severity::kWarning, "unused-product",
          rule.name + ":" + product_name(l),
          "product " + product_name(l) +
              " is not consumed by any output combination");
    }
  }
}

}  // namespace

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::vector<Finding> lint_rule(const Rule& rule, const Expectations& expected) {
  std::vector<Finding> out;
  check_structure(rule, out);
  if (has_errors(out)) {
    // Degenerate shapes make the symbolic checks meaningless; still run the
    // duplicate scan so a corrupted table gets its full diagnostic set.
    check_duplicate_factors(rule, /*brent_failed=*/true, out);
    return out;
  }

  if (expected.rank >= 0 && rule.rank != expected.rank) {
    add(out, Severity::kError, "rank-mismatch", rule.name,
        "built rank " + std::to_string(rule.rank) +
            " does not match declared rank " + std::to_string(expected.rank));
  }

  const core::Validation v = core::validate(rule);
  if (!v.valid) {
    add(out, Severity::kError, "brent-violation", rule.name, v.message);
  } else {
    const int sigma = v.sigma;
    const int phi = core::compute_phi(rule);
    if (expected.sigma >= 0 && sigma != expected.sigma) {
      add(out, Severity::kError, "sigma-mismatch", rule.name,
          "recomputed sigma = " + std::to_string(sigma) +
              " does not match declared sigma = " +
              std::to_string(expected.sigma));
    }
    if (expected.phi >= 0 && phi != expected.phi) {
      add(out, Severity::kError, "phi-mismatch", rule.name,
          "recomputed phi = " + std::to_string(phi) +
              " does not match declared phi = " + std::to_string(expected.phi));
    }
    if (v.exact && phi > 0) {
      add(out, Severity::kWarning, "phi-mismatch", rule.name,
          "rule is exact but carries negative lambda powers (phi = " +
              std::to_string(phi) + ")");
    }
  }
  check_duplicate_factors(rule, !v.valid, out);
  return out;
}

std::vector<Finding> lint_rule_file(const std::string& path) {
  std::vector<Finding> out;
  std::ifstream in(path);
  if (!in.good()) {
    add(out, Severity::kError, "parse-error", path, "cannot open file");
    return out;
  }

  // Declared metadata lines (optional `sigma` / `phi` tags, mandatory `rank`)
  // are extracted textually; the structural parse below re-reads the stream.
  Expectations expected;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;
    long value = 0;
    if (tag == "sigma" && (ls >> value)) expected.sigma = static_cast<int>(value);
    if (tag == "phi" && (ls >> value)) expected.phi = static_cast<int>(value);
    if (tag == "rank" && (ls >> value)) expected.rank = static_cast<index_t>(value);
  }
  in.clear();
  in.seekg(0);

  try {
    const Rule rule = core::read_rule(in, /*validate_brent=*/false);
    auto findings = lint_rule(rule, expected);
    for (Finding& f : findings) {
      f.object = path + ": " + f.object;
    }
    return findings;
  } catch (const ApaError& e) {
    add(out, Severity::kError, "parse-error", path, e.what());
    return out;
  }
}

const std::map<std::string, Expectations>& documented_expectations() {
  // Documented sigma/phi per catalog entry (catalog.h, registry.cpp
  // construction notes, DESIGN.md). Direct sums and tensor products with
  // exact rules preserve bini322's sigma = 1; phi adds across tensor factors.
  // The designer entries (apa433/apa552/apa555) pin the values their current
  // DP constructions produce — a construction change that shifts sigma or phi
  // must update this table (and the error-bound discussion in docs/THEORY.md).
  static const std::map<std::string, Expectations> kDocumented = {
      {"strassen", {7, 0, 0}},  {"winograd", {7, 0, 0}},
      {"bini322", {10, 1, 1}},  {"apa422", {14, 1, 1}},
      {"apa332", {16, 1, 1}},   {"apa522", {17, 1, 1}},
      {"apa722", {24, 1, 1}},   {"apa333", {25, 1, 1}},
      {"fast442", {28, 0, 0}},  {"apa433", {32, 1, 1}},
      {"apa552", {43, 1, 1}},   {"fast444", {49, 0, 0}},
      {"apa644", {70, 1, 1}},   {"apa664", {100, 1, 2}},
      {"apa555", {110, 1, 1}},
  };
  return kDocumented;
}

std::vector<Finding> lint_catalog() {
  const std::map<std::string, Expectations>& kDocumented =
      documented_expectations();
  std::vector<Finding> out;
  for (const core::AlgorithmInfo& info : core::list_algorithms()) {
    Expectations expected;
    expected.rank = info.rank;
    if (const auto it = kDocumented.find(info.name); it != kDocumented.end()) {
      expected.sigma = it->second.sigma;
      expected.phi = it->second.phi;
      if (it->second.rank != info.rank) {
        add(out, Severity::kError, "rank-mismatch", info.name,
            "registry rank " + std::to_string(info.rank) +
                " disagrees with the documented rank " +
                std::to_string(it->second.rank));
      }
    } else {
      add(out, Severity::kNote, "unpinned-metadata", info.name,
          "no documented sigma/phi to cross-check; add the entry to the "
          "linter's table once the construction is settled");
    }
    try {
      const Rule& rule = core::rule_by_name(info.name);
      auto findings = lint_rule(rule, expected);
      out.insert(out.end(), findings.begin(), findings.end());
    } catch (const ApaError& e) {
      add(out, Severity::kError, "parse-error", info.name, e.what());
    }
  }
  return out;
}

std::vector<RuleBound> catalog_bounds() {
  std::vector<RuleBound> out;
  const auto& documented = documented_expectations();
  for (const core::AlgorithmInfo& info : core::list_algorithms()) {
    RuleBound b;
    b.name = info.name;
    b.m = info.m;
    b.k = info.k;
    b.n = info.n;
    b.rank = info.rank;
    b.documented = documented.count(info.name) > 0;
    const core::AlgorithmParams params =
        core::analyze(core::rule_by_name(info.name));
    b.sigma = params.sigma;
    b.phi = params.phi;
    b.exact = params.exact;
    b.bound_1step = core::ProductGuard::model_error_bound(
        params, core::kPrecisionBitsSingle, 1);
    b.bound_2step = core::ProductGuard::model_error_bound(
        params, core::kPrecisionBitsSingle, 2);
    out.push_back(std::move(b));
  }
  return out;
}

std::string bounds_json() {
  std::ostringstream os;
  os << "{\"precision_bits\": " << core::kPrecisionBitsSingle
     << ", \"rules\": [\n";
  bool first = true;
  for (const RuleBound& b : catalog_bounds()) {
    if (!first) os << ",\n";
    first = false;
    char buf[64];
    os << "  {\"name\": \"" << b.name << "\", \"m\": " << b.m
       << ", \"k\": " << b.k << ", \"n\": " << b.n << ", \"rank\": " << b.rank
       << ", \"sigma\": " << b.sigma << ", \"phi\": " << b.phi
       << ", \"exact\": " << (b.exact ? "true" : "false")
       << ", \"documented\": " << (b.documented ? "true" : "false");
    std::snprintf(buf, sizeof(buf), "%.9e", b.bound_1step);
    os << ", \"bound_1step\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.9e", b.bound_2step);
    os << ", \"bound_2step\": " << buf << "}";
  }
  os << "\n]}\n";
  return os.str();
}

bool has_errors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

std::string format(const Finding& finding) {
  std::ostringstream os;
  os << to_string(finding.severity) << "[" << finding.code << "] "
     << finding.object << ": " << finding.message;
  return os.str();
}

}  // namespace apa::lint
