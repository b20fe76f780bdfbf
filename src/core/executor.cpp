#include "core/executor.h"

#include <omp.h>

#include <map>
#include <vector>

#include "blas/combine.h"
#include "blas/gemm.h"
#include "blas/plan.h"
#include "core/params.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/pool.h"

namespace apa::core {
namespace {

using Levels = std::span<const EvaluatedRule* const>;

/// One logical GEMM operand flowing through the recursion: a stored row-major
/// view plus a transpose flag (`trans` means the logical operand is the
/// transpose of the stored view). Sub-blocks of a transposed operand stay
/// zero-copy: taking logical block (i, j) just takes stored block (j, i).
/// The transpose is finally resolved for free inside the gemm packing gather.
template <class T>
struct Operand {
  MatrixView<const T> view;
  bool trans = false;

  [[nodiscard]] index_t rows() const { return trans ? view.cols : view.rows; }
  [[nodiscard]] index_t cols() const { return trans ? view.rows : view.cols; }

  /// Logical sub-block of size r x c starting at logical (i0, j0).
  [[nodiscard]] Operand block(index_t i0, index_t j0, index_t r, index_t c) const {
    return trans ? Operand{view.block(j0, i0, c, r), true}
                 : Operand{view.block(i0, j0, r, c), false};
  }

  [[nodiscard]] blas::Trans trans_flag() const {
    return trans ? blas::Trans::kYes : blas::Trans::kNo;
  }
};

template <class T>
void run_chain(Levels levels, Operand<T> a, Operand<T> b, MatrixView<T> c,
               Strategy strategy, int num_threads);

template <class T>
Operand<T> input_block(Operand<T> mat, index_t entry, index_t grid_cols,
                       index_t block_rows, index_t block_cols) {
  const index_t r = entry / grid_cols;
  const index_t c = entry % grid_cols;
  return mat.block(r * block_rows, c * block_cols, block_rows, block_cols);
}

/// Per-level execution context: owns the product buffers and geometry.
template <class T>
class LevelRunner {
 public:
  LevelRunner(Levels levels, Operand<T> a, Operand<T> b, MatrixView<T> c,
              Strategy strategy, int num_threads)
      : levels_(levels),
        rule_(*levels.front()),
        a_(a),
        b_(b),
        c_(c),
        strategy_(strategy),
        threads_(std::max(1, num_threads)),
        bm_(a.rows() / rule_.m),
        bk_(a.cols() / rule_.k),
        bn_(b.cols() / rule_.n),
        products_(rule_.rank * bm_, bn_) {
    if (levels_.size() == 1) prepack_shared_blocks();
  }

  void run() {
    switch (strategy_) {
      case Strategy::kSequential:
        for (index_t l = 0; l < rule_.rank; ++l) compute_product(l, 1);
        combine_outputs(1);
        break;
      case Strategy::kDfs:
        for (index_t l = 0; l < rule_.rank; ++l) compute_product(l, threads_);
        combine_outputs(threads_);
        break;
      case Strategy::kBfs: {
        const index_t r = rule_.rank;
#pragma omp parallel for schedule(static) num_threads(threads_)
        for (index_t l = 0; l < r; ++l) compute_product(l, 1);
        combine_outputs(threads_);
        break;
      }
      case Strategy::kHybrid: {
        // Paper Fig 2: q products per thread single-threaded, then the
        // remainder with the whole team.
        const index_t p = threads_;
        const index_t q = rule_.rank / p;
        const index_t first_remainder = q * p;
        if (q > 0) {
#pragma omp parallel num_threads(threads_)
          {
            const index_t tid = omp_get_thread_num();
            for (index_t idx = tid * q; idx < (tid + 1) * q; ++idx) {
              compute_product(idx, 1);
            }
          }
        }
        for (index_t l = first_remainder; l < rule_.rank; ++l) {
          compute_product(l, threads_);
        }
        combine_outputs(threads_);
        break;
      }
    }
  }

 private:
  [[nodiscard]] MatrixView<T> product_view(index_t l) {
    return products_.view().block(l * bm_, 0, bm_, bn_);
  }

  /// At the bottom level every product is a direct gemm, and any input block
  /// aliased by 2+ bare single-unit terms would be re-packed by each of those
  /// gemms. Pack each such block once up front; the packs are read-only during
  /// the (possibly concurrent) product computations.
  void prepack_shared_blocks() {
    APA_TRACE_SCOPE("core.prepack");
    std::map<index_t, int> a_uses, b_uses;
    for (index_t l = 0; l < rule_.rank; ++l) {
      const auto& ut = rule_.u_terms[static_cast<std::size_t>(l)];
      const auto& vt = rule_.v_terms[static_cast<std::size_t>(l)];
      if (ut.size() == 1 && ut[0].second == 1.0) ++a_uses[ut[0].first];
      if (vt.size() == 1 && vt[0].second == 1.0) ++b_uses[vt[0].first];
    }
    for (const auto& [entry, uses] : a_uses) {
      if (uses < 2) continue;
      const Operand<T> blk = input_block(a_, entry, rule_.k, bm_, bk_);
      a_packs_.emplace(entry, blas::PackedPanel<T>::pack_a(blk.trans, blk.view));
      APA_COUNTER_INC("core.prepack.shared_blocks");
    }
    for (const auto& [entry, uses] : b_uses) {
      if (uses < 2) continue;
      const Operand<T> blk = input_block(b_, entry, rule_.n, bk_, bn_);
      b_packs_.emplace(entry, blas::PackedPanel<T>::pack_b(blk.trans, blk.view));
      APA_COUNTER_INC("core.prepack.shared_blocks");
    }
  }

  [[nodiscard]] const blas::PackedPanel<T>* find_pack(
      const std::map<index_t, blas::PackedPanel<T>>& packs, index_t entry) const {
    const auto it = packs.find(entry);
    return it == packs.end() ? nullptr : &it->second;
  }

  /// Forms one linear-combination operand: aliases the input block (keeping
  /// its transpose flag) for a bare single-unit term, otherwise materializes
  /// a plain row-major temporary via the (transposed) write-once combine.
  Operand<T> form_operand(const std::vector<std::pair<index_t, double>>& terms_in,
                          Operand<T> in, index_t grid_cols, index_t rows, index_t cols,
                          PooledMatrix<T>& temp, int threads) const {
    if (terms_in.size() == 1 && terms_in[0].second == 1.0) {
      APA_COUNTER_INC("core.operand.aliased");
      return input_block(in, terms_in[0].first, grid_cols, rows, cols);
    }
    APA_COUNTER_INC("core.operand.materialized");
    // Write-once combine traffic (each source block read once, the temp
    // written once) — with the combine_* phase times this calibrates the cost
    // model's addition bandwidth from real traffic (src/tune/calibrate.h).
    APA_COUNTER_ADD("core.combine.bytes",
                    (static_cast<std::uint64_t>(terms_in.size()) + 1) *
                        static_cast<std::uint64_t>(rows) *
                        static_cast<std::uint64_t>(cols) * sizeof(T));
    std::vector<blas::Scaled<T>> terms;
    terms.reserve(terms_in.size());
    for (const auto& [entry, coeff] : terms_in) {
      terms.push_back(
          {static_cast<T>(coeff), input_block(in, entry, grid_cols, rows, cols).view});
    }
    temp = PooledMatrix<T>(rows, cols);
    if (in.trans) {
      blas::linear_combination_transposed<T>(terms, temp.view(), threads);
    } else {
      blas::linear_combination<T>(terms, temp.view(), threads);
    }
    return Operand<T>{temp.view().as_const(), false};
  }

  /// Forms A_l and B_l (skipping the copy when a combination is a single
  /// unit-coefficient term) and multiplies into M_l.
  void compute_product(index_t l, int threads) {
    const auto& ut = rule_.u_terms[static_cast<std::size_t>(l)];
    const auto& vt = rule_.v_terms[static_cast<std::size_t>(l)];

    PooledMatrix<T> a_temp, b_temp;
    const Operand<T> a_op = [&] {
      APA_TRACE_SCOPE_ID("core.combine_a", l);
      return form_operand(ut, a_, rule_.k, bm_, bk_, a_temp, threads);
    }();
    const Operand<T> b_op = [&] {
      APA_TRACE_SCOPE_ID("core.combine_b", l);
      return form_operand(vt, b_, rule_.n, bk_, bn_, b_temp, threads);
    }();

    // Sub-multiplication: descend the chain while levels remain, else gemm
    // (reusing the prepacked panel when this product aliases a shared block).
    APA_TRACE_SCOPE_ID("core.submul", l);
    if (levels_.size() > 1) {
      run_chain<T>(levels_.subspan(1), a_op, b_op, product_view(l),
                   threads > 1 ? strategy_ : Strategy::kSequential, threads);
    } else {
      const blas::PackedPanel<T>* a_pack =
          (ut.size() == 1 && ut[0].second == 1.0) ? find_pack(a_packs_, ut[0].first)
                                                  : nullptr;
      const blas::PackedPanel<T>* b_pack =
          (vt.size() == 1 && vt[0].second == 1.0) ? find_pack(b_packs_, vt[0].first)
                                                  : nullptr;
      blas::gemm_planned<T>(a_op.trans_flag(), a_op.view, a_pack, b_op.trans_flag(),
                            b_op.view, b_pack, product_view(l), T{1}, T{0}, {},
                            threads);
    }
  }

  /// C blocks = W-combinations of the products, write-once, rows parallelized
  /// inside each combination (memory-bandwidth bound, paper section 3.2).
  void combine_outputs(int threads) {
    for (index_t e = 0; e < rule_.m * rule_.n; ++e) {
      APA_TRACE_SCOPE_ID("core.combine_c", e);
      const auto& wt = rule_.w_terms[static_cast<std::size_t>(e)];
      APA_COUNTER_ADD("core.combine.bytes",
                      (static_cast<std::uint64_t>(wt.size()) + 1) *
                          static_cast<std::uint64_t>(bm_) *
                          static_cast<std::uint64_t>(bn_) * sizeof(T));
      std::vector<blas::Scaled<T>> terms;
      terms.reserve(wt.size());
      for (const auto& [l, coeff] : wt) {
        terms.push_back({static_cast<T>(coeff), product_view(l).as_const()});
      }
      const index_t r = e / rule_.n;
      const index_t col = e % rule_.n;
      blas::linear_combination<T>(terms, c_.block(r * bm_, col * bn_, bm_, bn_), threads);
    }
  }

  Levels levels_;
  const EvaluatedRule& rule_;
  Operand<T> a_;
  Operand<T> b_;
  MatrixView<T> c_;
  Strategy strategy_;
  int threads_;
  index_t bm_, bk_, bn_;
  PooledMatrix<T> products_;  // rank stacked (bm x bn) blocks
  std::map<index_t, blas::PackedPanel<T>> a_packs_, b_packs_;  // bottom level only
};

template <class T>
void run_chain(Levels levels, Operand<T> a, Operand<T> b, MatrixView<T> c,
               Strategy strategy, int num_threads) {
  APA_CHECK(a.cols() == b.rows() && c.rows == a.rows() && c.cols == b.cols());
  const auto gemm = [num_threads](Operand<T> x, Operand<T> y, MatrixView<T> out,
                                  T beta) {
    blas::gemm_planned<T>(x.trans_flag(), x.view, nullptr, y.trans_flag(), y.view,
                          nullptr, out, T{1}, beta, {}, num_threads);
  };
  if (levels.empty()) {
    gemm(a, b, c, T{0});
    return;
  }
  const EvaluatedRule& rule = *levels.front();
  const index_t m = a.rows(), k = a.cols(), n = b.cols();

  // Dimensions too small to split: skip this level (and any further ones).
  if (m < rule.m || k < rule.k || n < rule.n) {
    gemm(a, b, c, T{0});
    return;
  }

  // Dynamic peeling (Benson & Ballard, PPoPP'15): the rule runs on the largest
  // block-divisible core, as zero-copy views of the operands (transposed ones
  // included); thin classical gemms then finish the fringe. Peeling is per
  // level; deeper levels peel their own (smaller) operands as needed.
  const index_t m0 = m / rule.m * rule.m;
  const index_t k0 = k / rule.k * rule.k;
  const index_t n0 = n / rule.n * rule.n;
  LevelRunner<T>(levels, a.block(0, 0, m0, k0), b.block(0, 0, k0, n0),
                 c.block(0, 0, m0, n0), strategy, num_threads)
      .run();
  if (m0 == m && k0 == k && n0 == n) return;

  APA_TRACE_SCOPE("core.pad");
  APA_COUNTER_INC("core.pad.levels");
  if (k0 < k) {  // C[:m0, :n0] += A[:m0, k0:] B[k0:, :n0]
    gemm(a.block(0, k0, m0, k - k0), b.block(k0, 0, k - k0, n0), c.block(0, 0, m0, n0),
         T{1});
  }
  if (n0 < n) {  // C[:m0, n0:] = A[:m0, :] B[:, n0:]
    gemm(a.block(0, 0, m0, k), b.block(0, n0, k, n - n0), c.block(0, n0, m0, n - n0),
         T{0});
  }
  if (m0 < m) {  // C[m0:, :] = A[m0:, :] B
    gemm(a.block(m0, 0, m - m0, k), b, c.block(m0, 0, m - m0, n), T{0});
  }
}

}  // namespace

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kSequential: return "sequential";
    case Strategy::kDfs: return "dfs";
    case Strategy::kBfs: return "bfs";
    case Strategy::kHybrid: return "hybrid";
  }
  return "?";
}

template <class T>
void multiply(const EvaluatedRule& rule, MatrixView<const T> a, MatrixView<const T> b,
              MatrixView<T> c, int steps, Strategy strategy, int num_threads,
              bool transpose_a, bool transpose_b) {
  std::vector<const EvaluatedRule*> levels(static_cast<std::size_t>(std::max(0, steps)),
                                           &rule);
  run_chain<T>(levels, Operand<T>{a, transpose_a}, Operand<T>{b, transpose_b}, c,
               strategy, num_threads);
}

template <class T>
void multiply_nonstationary(std::span<const EvaluatedRule* const> levels,
                            MatrixView<const T> a, MatrixView<const T> b,
                            MatrixView<T> c, Strategy strategy, int num_threads,
                            bool transpose_a, bool transpose_b) {
  for (const EvaluatedRule* level : levels) APA_CHECK(level != nullptr);
  run_chain<T>(levels, Operand<T>{a, transpose_a}, Operand<T>{b, transpose_b}, c,
               strategy, num_threads);
}

template <class T>
void multiply(const Rule& rule, MatrixView<const T> a, MatrixView<const T> b,
              MatrixView<T> c, const ExecOptions& options, bool transpose_a,
              bool transpose_b) {
  double lambda_value = options.lambda;
  if (lambda_value == 0.0) {
    const AlgorithmParams params = analyze(rule);
    const int bits = std::is_same_v<T, float> ? kPrecisionBitsSingle : kPrecisionBitsDouble;
    lambda_value = params.optimal_lambda(bits, std::max(1, options.steps));
  }
  const EvaluatedRule evaluated = EvaluatedRule::from(rule, lambda_value);
  multiply<T>(evaluated, a, b, c, options.steps, options.strategy, options.num_threads,
              transpose_a, transpose_b);
}

template void multiply<float>(const Rule&, MatrixView<const float>,
                              MatrixView<const float>, MatrixView<float>,
                              const ExecOptions&, bool, bool);
template void multiply<double>(const Rule&, MatrixView<const double>,
                               MatrixView<const double>, MatrixView<double>,
                               const ExecOptions&, bool, bool);
template void multiply<float>(const EvaluatedRule&, MatrixView<const float>,
                              MatrixView<const float>, MatrixView<float>, int, Strategy,
                              int, bool, bool);
template void multiply<double>(const EvaluatedRule&, MatrixView<const double>,
                               MatrixView<const double>, MatrixView<double>, int,
                               Strategy, int, bool, bool);
template void multiply_nonstationary<float>(std::span<const EvaluatedRule* const>,
                                            MatrixView<const float>,
                                            MatrixView<const float>, MatrixView<float>,
                                            Strategy, int, bool, bool);
template void multiply_nonstationary<double>(std::span<const EvaluatedRule* const>,
                                             MatrixView<const double>,
                                             MatrixView<const double>,
                                             MatrixView<double>, Strategy, int, bool,
                                             bool);

}  // namespace apa::core
