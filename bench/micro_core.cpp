// Microbenchmarks (google-benchmark) for the core framework itself: symbolic
// validation cost, rule evaluation, designer search, and per-call executor
// overhead relative to a bare gemm — the "interpretation tax" the code
// generator exists to shave. The 1024^3 rows price the guarded APA path of a
// training step per call: bini322 on a block-divisible shape against one that
// peels a fringe row, and the Freivalds check for each transpose pair.

#include <benchmark/benchmark.h>

#include <cmath>

#include "benchutil/gbench_json.h"
#include "blas/gemm.h"
#include "core/designer.h"
#include "core/executor.h"
#include "core/guard.h"
#include "core/params.h"
#include "core/registry.h"
#include "support/rng.h"

namespace {

using namespace apa;
using namespace apa::core;

void BM_ValidateBini(benchmark::State& state) {
  const Rule rule = rule_by_name("bini322");
  for (auto _ : state) {
    const Validation v = validate(rule);
    benchmark::DoNotOptimize(v.valid);
  }
}
BENCHMARK(BM_ValidateBini);

void BM_ValidateFast444(benchmark::State& state) {
  const Rule rule = rule_by_name("fast444");
  for (auto _ : state) {
    const Validation v = validate(rule);
    benchmark::DoNotOptimize(v.valid);
  }
}
BENCHMARK(BM_ValidateFast444);

void BM_EvaluateRule(benchmark::State& state) {
  const Rule& rule = rule_by_name("apa555");
  for (auto _ : state) {
    const EvaluatedRule ev = EvaluatedRule::from(rule, std::exp2(-11.5));
    benchmark::DoNotOptimize(ev.rank);
  }
}
BENCHMARK(BM_EvaluateRule);

void BM_DesignerSearch(benchmark::State& state) {
  for (auto _ : state) {
    const DesignSummary summary = design_summary(5, 5, 5);
    benchmark::DoNotOptimize(summary.rank);
  }
}
BENCHMARK(BM_DesignerSearch);

/// Executor one-step overhead vs plain gemm at a small size where the
/// interpretation cost is visible.
void BM_ExecutorVsGemm(benchmark::State& state) {
  const bool use_executor = state.range(0) != 0;
  const index_t dim = 192;
  Rng rng(1);
  Matrix<float> a(dim, dim), b(dim, dim), c(dim, dim);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const EvaluatedRule ev = EvaluatedRule::from(rule_by_name("strassen"), 1.0);
  for (auto _ : state) {
    if (use_executor) {
      multiply<float>(ev, a.view().as_const(), b.view().as_const(), c.view(), 1,
                      Strategy::kSequential, 1);
    } else {
      blas::gemm<float>(a.view(), b.view(), c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_ExecutorVsGemm)->Arg(0)->Arg(1);

/// Stored shape of an operand whose logical shape is rows x cols.
Matrix<float> stored_operand(index_t rows, index_t cols, bool trans, Rng& rng) {
  Matrix<float> m(trans ? cols : rows, trans ? rows : cols);
  fill_random_uniform<float>(m.view(), rng);
  return m;
}

/// bini322, hybrid, 2 threads: range(0) = m (1024 or 1026; 1024 % 3 != 0
/// peels one fringe row, 1026 is block-divisible), range(1) = transpose pair
/// 0 = (N,N), 1 = (N,T), 2 = (T,N); k = n = 1024.
void BM_ExecutorFringe(benchmark::State& state) {
  const index_t m = state.range(0), k = 1024, n = 1024;
  const bool ta = state.range(1) == 2, tb = state.range(1) == 1;
  Rng rng(2);
  const Matrix<float> a = stored_operand(m, k, ta, rng);
  const Matrix<float> b = stored_operand(k, n, tb, rng);
  Matrix<float> c(m, n);
  const Rule& rule = rule_by_name("bini322");
  const EvaluatedRule ev = EvaluatedRule::from(
      rule, analyze(rule).optimal_lambda(kPrecisionBitsSingle, 1));
  for (auto _ : state) {
    multiply<float>(ev, a.view().as_const(), b.view().as_const(), c.view(), 1,
                    Strategy::kHybrid, 2, ta, tb);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_ExecutorFringe)
    ->ArgsProduct({{1024, 1026}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// ProductGuard::verify of a 1024^3 product, one probe: range(0) = transpose
/// pair 0 = (N,N), 1 = (N,T), 2 = (T,N), 3 = (T,T). Transposed operands are
/// read through their stored rows (power-of-two leading dimension).
void BM_GuardVerify(benchmark::State& state) {
  const index_t dim = 1024;
  const bool ta = state.range(0) >= 2, tb = state.range(0) % 2 == 1;
  Rng rng(3);
  const Matrix<float> a = stored_operand(dim, dim, ta, rng);
  const Matrix<float> b = stored_operand(dim, dim, tb, rng);
  Matrix<float> c(dim, dim);
  blas::gemm<float>(ta ? blas::Trans::kYes : blas::Trans::kNo,
                    tb ? blas::Trans::kYes : blas::Trans::kNo, dim, dim, dim, 1.0f,
                    a.data(), a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld());
  const ProductGuard guard(std::exp2(-23));
  for (auto _ : state) {
    const GuardReport report = guard.verify(a.view().as_const(), b.view().as_const(),
                                            c.view().as_const(), rng, ta, tb);
    benchmark::DoNotOptimize(report.worst_ratio);
  }
}
BENCHMARK(BM_GuardVerify)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_LambdaEvaluate(benchmark::State& state) {
  const LaurentPoly p = LaurentPoly::monomial(Rational(3, 2), -1) +
                        LaurentPoly(1) + LaurentPoly::lambda(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.evaluate(0.001));
  }
}
BENCHMARK(BM_LambdaEvaluate);

}  // namespace

int main(int argc, char** argv) {
  return apa::bench::run_gbench_with_json(argc, argv, "micro_core",
                                          "BENCH_micro_core.json");
}
