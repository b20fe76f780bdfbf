// Tests for tools/rule_lint: the shipped rules and catalog must lint clean,
// and the corrupted fixtures (the published Bini <3,2,2> M10 transcription
// defect, wrong declared sigma/phi metadata) must each fail with the precise
// diagnostic the linter documents.

#include "lint/rule_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/rule.h"
#include "core/serialize.h"
#include "support/check.h"

namespace apa::lint {
namespace {

const std::string kRepo = APAMM_REPO_DIR;

bool has_code(const std::vector<Finding>& findings, const std::string& code,
              Severity severity) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.code == code && f.severity == severity;
  });
}

std::string joined(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) out += format(f) + "\n";
  return out;
}

TEST(RuleLint, CatalogIsClean) {
  const auto findings = lint_catalog();
  EXPECT_TRUE(findings.empty()) << joined(findings);
}

TEST(RuleLint, ShippedRuleFilesAreClean) {
  for (const char* name : {"strassen", "bini322", "apa422", "fast442"}) {
    const auto findings =
        lint_rule_file(kRepo + "/rules/" + name + ".rule");
    EXPECT_TRUE(findings.empty()) << joined(findings);
  }
}

TEST(RuleLint, PublishedM10DefectFixtureFails) {
  const auto findings =
      lint_rule_file(kRepo + "/tests/fixtures/bini322_m10_dup.rule");
  EXPECT_TRUE(has_code(findings, "brent-violation", Severity::kError))
      << joined(findings);
  EXPECT_TRUE(has_code(findings, "duplicate-factor", Severity::kError))
      << joined(findings);
  // The duplicate-factor diagnostic must point at the M9/M10 pair.
  const auto it = std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.code == "duplicate-factor"; });
  ASSERT_NE(it, findings.end());
  EXPECT_NE(it->object.find("M9/M10"), std::string::npos) << format(*it);
}

TEST(RuleLint, SigmaPhiMetadataMismatchFixtureFails) {
  const std::string path =
      kRepo + "/tests/fixtures/bini322_sigma_mismatch.rule";
  const auto findings = lint_rule_file(path);
  EXPECT_TRUE(has_code(findings, "sigma-mismatch", Severity::kError))
      << joined(findings);
  EXPECT_TRUE(has_code(findings, "phi-mismatch", Severity::kError))
      << joined(findings);
  // The loader itself must also refuse the file when validating.
  EXPECT_THROW((void)core::read_rule_file(path, /*validate_brent=*/true),
               ApaError);
  // With validation off it parses fine (coefficients are the corrected rule).
  const core::Rule rule = core::read_rule_file(path, /*validate_brent=*/false);
  EXPECT_EQ(rule.rank, 10);
}

TEST(RuleLint, MissingFileIsParseError) {
  const auto findings = lint_rule_file(kRepo + "/tests/fixtures/no_such.rule");
  EXPECT_TRUE(has_code(findings, "parse-error", Severity::kError));
}

TEST(RuleLint, RankExpectationMismatch) {
  Expectations expected;
  expected.rank = 8;
  const auto findings = lint_rule(core::rule_by_name("strassen"), expected);
  EXPECT_TRUE(has_code(findings, "rank-mismatch", Severity::kError))
      << joined(findings);
}

TEST(RuleLint, SigmaExpectationMismatch) {
  Expectations expected;
  expected.sigma = 1;  // strassen is exact: recomputed sigma is 0
  const auto findings = lint_rule(core::rule_by_name("strassen"), expected);
  EXPECT_TRUE(has_code(findings, "sigma-mismatch", Severity::kError))
      << joined(findings);
}

TEST(RuleLint, DegenerateFactorAndUnusedProduct) {
  // <1,1,1; 1> with everything zero: A-side degenerate and the product unused.
  core::Rule rule("degenerate", 1, 1, 1, 1);
  const auto findings = lint_rule(rule);
  EXPECT_TRUE(has_code(findings, "degenerate-factor", Severity::kError))
      << joined(findings);
  EXPECT_TRUE(has_code(findings, "unused-product", Severity::kWarning))
      << joined(findings);
}

TEST(RuleLint, RankBoundsViolation) {
  // rank 2 exceeds the classical rank m*k*n = 1.
  core::Rule rule("overranked", 1, 1, 1, 2);
  const auto findings = lint_rule(rule);
  EXPECT_TRUE(has_code(findings, "rank-bounds", Severity::kError))
      << joined(findings);
}

TEST(RuleLint, DuplicateProductWarnsInValidRule) {
  // Pad strassen to rank 8 by splitting M1's contribution across two copies
  // of the same product: still satisfies Brent, but the rank is not minimal,
  // which must surface as a duplicate-product warning (not an error).
  const core::Rule& strassen = core::rule_by_name("strassen");
  core::Rule rule("strassen_padded", 2, 2, 2, 8);
  const core::LaurentPoly half =
      core::LaurentPoly::monomial(Rational(1, 2), 0);
  for (index_t r = 0; r < 2; ++r) {
    for (index_t c = 0; c < 2; ++c) {
      for (index_t l = 0; l < 7; ++l) {
        rule.U(r, c, l) = strassen.U(r, c, l);
        rule.V(r, c, l) = strassen.V(r, c, l);
        rule.W(r, c, l) = (l == 0) ? strassen.W(r, c, l) * half
                                   : strassen.W(r, c, l);
      }
      rule.U(r, c, 7) = strassen.U(r, c, 0);
      rule.V(r, c, 7) = strassen.V(r, c, 0);
      rule.W(r, c, 7) = strassen.W(r, c, 0) * half;
    }
  }
  ASSERT_TRUE(core::validate(rule).valid);
  const auto findings = lint_rule(rule);
  EXPECT_TRUE(has_code(findings, "duplicate-product", Severity::kWarning))
      << joined(findings);
  EXPECT_FALSE(has_errors(findings)) << joined(findings);
}

TEST(RuleLint, WriteRuleEmitsVerifiedMetadata) {
  // write_rule pins sigma/phi for valid rules; the round-trip must load with
  // validation on (which cross-checks the declared values).
  std::stringstream stream;
  core::write_rule(stream, core::rule_by_name("bini322"));
  const std::string text = stream.str();
  EXPECT_NE(text.find("sigma 1"), std::string::npos);
  EXPECT_NE(text.find("phi 1"), std::string::npos);
  const core::Rule loaded = core::read_rule(stream, /*validate_brent=*/true);
  EXPECT_EQ(loaded.rank, 10);
}

TEST(RuleLint, FormatIsStable) {
  const Finding f{Severity::kError, "brent-violation", "bini322", "residual"};
  EXPECT_EQ(format(f), "error[brent-violation] bini322: residual");
}

}  // namespace
}  // namespace apa::lint
