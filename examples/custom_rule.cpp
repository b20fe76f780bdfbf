// Composing a custom algorithm from the library's building blocks: design a
// rule for an odd shape, validate it, tune lambda empirically, execute it,
// and write it as a .rule file — the full authoring workflow in one file.
// The file is the reviewable artifact: tools/rule_lint checks it, and the
// executor runs it as data (core::read_rule_file), with no per-rule code.
//
//   ./custom_rule [--dims=6,3,4] [--dim=720] [--out=custom.rule]
//   ./rule_lint custom.rule

#include <cstdio>
#include <string>

#include "core/designer.h"
#include "core/fastmm.h"
#include "core/lambda_opt.h"
#include "core/serialize.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto dims = args.get_int_list("dims", {6, 3, 4});
  APA_CHECK_MSG(dims.size() == 3, "--dims expects m,k,n");
  const index_t test_dim = args.get_int("dim", 720);

  // 1. Design: the DP search composes Bini/Strassen bases into a minimum-rank
  //    rule for the requested block shape.
  const core::Rule rule = core::design(dims[0], dims[1], dims[2]);
  const core::AlgorithmParams params = core::analyze(rule);
  std::printf("designed <%ld,%ld,%ld>: rank %ld (classical %ld), %s, sigma=%d phi=%d\n",
              static_cast<long>(dims[0]), static_cast<long>(dims[1]),
              static_cast<long>(dims[2]), static_cast<long>(rule.rank),
              static_cast<long>(dims[0] * dims[1] * dims[2]),
              params.exact ? "exact" : "APA", params.sigma, params.phi);
  std::printf("construction: %s\n\n", rule.name.c_str());

  // 2. Lambda: empirical refinement around the theoretical optimum (5 powers
  //    of two, the paper's protocol).
  double lambda_value = 1.0;
  if (!params.exact) {
    core::LambdaSearchOptions search;
    search.dim = 240;
    const auto result = core::optimize_lambda(rule, search);
    lambda_value = result.best_lambda;
    std::printf("lambda sweep:\n");
    for (const auto& [lam, err] : result.probes) {
      std::printf("  lambda=%9.3e  error=%9.3e%s\n", lam, err,
                  lam == result.best_lambda ? "  <- chosen" : "");
    }
    std::printf("\n");
  }

  // 3. Execute against the classical baseline.
  core::FastMatmulOptions options;
  options.lambda = params.exact ? std::optional<double>{} : lambda_value;
  const core::FastMatmul fast(rule, options);
  const core::FastMatmul classical("classical");
  Rng rng(1);
  Matrix<float> a(test_dim, test_dim), b(test_dim, test_dim), c(test_dim, test_dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  classical.multiply(a.view().as_const(), b.view().as_const(), c.view());
  WallTimer classical_timer;
  classical.multiply(a.view().as_const(), b.view().as_const(), c.view());
  const double classical_seconds = classical_timer.seconds();
  fast.multiply(a.view().as_const(), b.view().as_const(), c.view());
  WallTimer fast_timer;
  fast.multiply(a.view().as_const(), b.view().as_const(), c.view());
  const double fast_seconds = fast_timer.seconds();
  std::printf("dim %ld: classical %.4fs, custom %.4fs (%.1f%% speedup)\n\n",
              static_cast<long>(test_dim), classical_seconds, fast_seconds,
              100.0 * (classical_seconds / fast_seconds - 1.0));

  // 4. Write the rule as data for review (tools/rule_lint) and reuse.
  if (const std::string out = args.get("out", ""); !out.empty()) {
    core::write_rule_file(out, rule);
    std::printf("wrote %s (lint it with rule_lint)\n", out.c_str());
  }
  return 0;
}
