#include "core/executor.h"

#include <omp.h>

#include <map>
#include <vector>

#include "blas/combine.h"
#include "blas/gemm.h"
#include "blas/packing.h"
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

/// A product's coefficient list is a bare alias: one input block, coefficient 1.
bool is_bare(const std::vector<std::pair<index_t, double>>& terms) {
  return terms.size() == 1 && terms[0].second == 1.0;
}

/// Per-level execution context: owns the product buffers and geometry.
///
/// At the bottom level every product is one direct gemm, so the level walks C
/// in row bands: for each band of h rows it forms the A combinations of those
/// rows, computes the r band products into an r x h x bn stack with the
/// strategy's schedule, and combines them into C's rows. h is the gemm's A
/// cache-block height (kMc), so a band's gemm blocks its rows exactly as the
/// whole product's gemm would, and every element of every product and of every
/// combination comes from the same code in the same order as with one band. The
/// level bands when r*bk*bn (the packed B panels every band reads) plus
/// r*h*bn (the band stack) is less than r*bm*bn (the whole stack); otherwise
/// it runs one band of bm rows. A short bottom level (bm <= 2*kMc) hands its
/// gemms each combination as terms instead of materializing it.
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
        band_rows_(levels.size() == 1 ? band_rows(bm_, bk_) : bm_),
        short_(levels.size() == 1 && bm_ <= 2 * blas::detail::BlockShape<T>::kMc),
        products_(rule_.rank * band_rows_, bn_) {
    if (levels_.size() == 1) prepack_panels();
  }

  void run() {
    for (index_t row0 = 0; row0 < bm_; row0 += band_rows_) {
      band_row0_ = row0;
      band_ = std::min(band_rows_, bm_ - row0);
      if (levels_.size() == 1) prepack_shared_a_blocks();
      run_band();
    }
  }

 private:
  using Terms = std::vector<std::pair<index_t, double>>;
  using Scaled = std::vector<blas::Scaled<T>>;

  /// A bottom-level gemm operand: Σ cᵢ·op(Xᵢ) over terms sharing `trans`.
  struct GemmOperand {
    Scaled terms;
    blas::Trans trans = blas::Trans::kNo;
  };

  /// Rows per band: kMc when banding shrinks the workspace, else all bm rows.
  static index_t band_rows(index_t bm, index_t bk) {
    const index_t h = blas::detail::BlockShape<T>::kMc;
    return bk + h < bm ? h : bm;
  }

  void run_band() {
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

  /// Band rows of product l's slot in the stack.
  [[nodiscard]] MatrixView<T> product_view(index_t l) {
    return products_.view().block(l * band_rows_, 0, band_, bn_);
  }

  /// The current band's rows of A's input block `entry`.
  [[nodiscard]] Operand<T> a_block(index_t entry) const {
    return input_block(a_, entry, rule_.k, bm_, bk_).block(band_row0_, 0, band_, bk_);
  }

  [[nodiscard]] Operand<T> b_block(index_t entry) const {
    return input_block(b_, entry, rule_.n, bk_, bn_);
  }

  /// Threads for work done outside the strategy's schedule.
  [[nodiscard]] int team() const {
    return strategy_ == Strategy::kSequential ? 1 : threads_;
  }

  /// How many products alias each input block as a bare term.
  [[nodiscard]] static std::map<index_t, index_t> bare_uses(
      const std::vector<Terms>& terms) {
    std::map<index_t, index_t> uses;
    for (const Terms& t : terms) {
      if (is_bare(t)) ++uses[t[0].first];
    }
    return uses;
  }

  /// At the bottom level every product is a direct gemm that would pack its B
  /// operand on each read. Pack once every B panel the level reads more than
  /// once: an input block aliased as a bare term by several products, and,
  /// when the level runs several bands, every product's B (each band reads
  /// it). A combined B_l is packed straight from its terms. The packs are
  /// read-only during the (possibly concurrent) products. Also records the A
  /// blocks to share within each band.
  void prepack_panels() {
    for (const auto& [entry, n] : bare_uses(rule_.u_terms)) {
      if (n > 1) shared_a_.push_back(entry);
    }
    const index_t bands = (bm_ + band_rows_ - 1) / band_rows_;
    {
      APA_TRACE_SCOPE("core.prepack");
      for (const auto& [entry, n] : bare_uses(rule_.v_terms)) {
        if (n * bands < 2) continue;
        const Operand<T> blk = b_block(entry);
        b_packs_.emplace(entry,
                         blas::PackedPanel<T>::pack_b(blk.trans, blk.view, team()));
        APA_COUNTER_INC("core.prepack.shared_blocks");
      }
    }
    if (bands < 2) return;
    formed_b_.resize(static_cast<std::size_t>(rule_.rank));
    for (index_t l = 0; l < rule_.rank; ++l) {
      const Terms& vt = rule_.v_terms[static_cast<std::size_t>(l)];
      if (is_bare(vt)) continue;
      APA_COUNTER_INC("core.operand.packed");
      APA_TRACE_SCOPE("core.prepack");
      formed_b_[static_cast<std::size_t>(l)] = blas::PackedPanel<T>::pack_b(
          b_.trans, scaled_blocks(vt, [this](index_t e) { return b_block(e); }), team());
    }
  }

  /// Packs, for the current band, each A input block aliased as a bare term
  /// by two or more products, so those products' gemms share one pack.
  void prepack_shared_a_blocks() {
    a_packs_.clear();
    if (shared_a_.empty()) return;
    APA_TRACE_SCOPE("core.prepack");
    for (const index_t entry : shared_a_) {
      const Operand<T> blk = a_block(entry);
      a_packs_.emplace(entry, blas::PackedPanel<T>::pack_a(blk.trans, blk.view));
      APA_COUNTER_INC("core.prepack.shared_blocks");
    }
  }

  [[nodiscard]] static const blas::PackedPanel<T>* find_pack(
      const std::map<index_t, blas::PackedPanel<T>>& packs, const Terms& terms) {
    if (!is_bare(terms)) return nullptr;
    const auto it = packs.find(terms[0].first);
    return it == packs.end() ? nullptr : &it->second;
  }

  /// The blocks `block_of` returns for a combination's entries, scaled by its
  /// coefficients.
  template <class BlockOf>
  static Scaled scaled_blocks(const Terms& terms, BlockOf block_of) {
    Scaled out;
    out.reserve(terms.size());
    for (const auto& [entry, coeff] : terms) {
      out.push_back({static_cast<T>(coeff), block_of(entry).view});
    }
    return out;
  }

  /// Forms one linear-combination operand from the blocks `block_of` returns:
  /// aliases the block (keeping its transpose flag) for a bare single-unit
  /// term, otherwise materializes a plain row-major temporary via the
  /// (transposed) write-once combine.
  template <class BlockOf>
  Operand<T> form_operand(const Terms& terms, BlockOf block_of, PooledMatrix<T>& temp,
                          int threads) const {
    if (is_bare(terms)) {
      APA_COUNTER_INC("core.operand.aliased");
      return block_of(terms[0].first);
    }
    APA_COUNTER_INC("core.operand.materialized");
    const Operand<T> shape = block_of(0);  // every block: same shape, same flag
    const index_t rows = shape.rows(), cols = shape.cols();
    // Write-once combine traffic (each source block read once, the temp
    // written once) — with the combine_* phase times this calibrates the cost
    // model's addition bandwidth from real traffic (src/tune/calibrate.h).
    APA_COUNTER_ADD("core.combine.bytes",
                    (static_cast<std::uint64_t>(terms.size()) + 1) *
                        static_cast<std::uint64_t>(rows) *
                        static_cast<std::uint64_t>(cols) * sizeof(T));
    temp = PooledMatrix<T>(rows, cols);
    if (shape.trans) {
      blas::linear_combination_transposed<T>(scaled_blocks(terms, block_of), temp.view(),
                                             threads);
    } else {
      blas::linear_combination<T>(scaled_blocks(terms, block_of), temp.view(), threads);
    }
    return Operand<T>{temp.view().as_const(), false};
  }

  /// At a short level a combination stays a list of scaled blocks, which its
  /// gemm combines inside the packs: no temporary, no combine pass.
  [[nodiscard]] bool packs_in_gemm(const Terms& terms) const {
    return short_ && !is_bare(terms);
  }

  template <class BlockOf>
  static GemmOperand packed_operand(const Terms& terms, BlockOf block_of) {
    APA_COUNTER_INC("core.operand.packed");
    return {scaled_blocks(terms, block_of), block_of(0).trans_flag()};
  }

  static GemmOperand plain(const Operand<T>& op) {
    return {{{T{1}, op.view}}, op.trans_flag()};
  }

  /// Forms the band's A_l and (unless prepacked) B_l, skipping the copy when a
  /// combination is a single unit-coefficient term or, at a short level, any
  /// combination (its gemm packs the terms), and multiplies into M_l.
  void compute_product(index_t l, int threads) {
    const auto li = static_cast<std::size_t>(l);
    const Terms& ut = rule_.u_terms[li];
    const Terms& vt = rule_.v_terms[li];
    const auto a_of = [this](index_t e) { return a_block(e); };
    const auto b_of = [this](index_t e) { return b_block(e); };

    PooledMatrix<T> a_temp, b_temp;
    if (levels_.size() > 1) {
      const Operand<T> a_op = [&] {
        APA_TRACE_SCOPE_ID("core.combine_a", l);
        return form_operand(ut, a_of, a_temp, threads);
      }();
      const Operand<T> b_op = [&] {
        APA_TRACE_SCOPE_ID("core.combine_b", l);
        return form_operand(vt, b_of, b_temp, threads);
      }();
      APA_TRACE_SCOPE_ID("core.submul", l);
      run_chain<T>(levels_.subspan(1), a_op, b_op, product_view(l),
                   threads > 1 ? strategy_ : Strategy::kSequential, threads);
      return;
    }

    // Bottom level: one gemm, reusing the prepacked panels of shared or
    // banded operands. A B_l combined and packed up front has no view left:
    // its gemm reads only the pack, so the operand carries just the shape.
    const GemmOperand a_op = [&] {
      if (packs_in_gemm(ut)) return packed_operand(ut, a_of);
      APA_TRACE_SCOPE_ID("core.combine_a", l);
      return plain(form_operand(ut, a_of, a_temp, threads));
    }();
    const bool formed = li < formed_b_.size() && !formed_b_[li].empty();
    const GemmOperand b_op = [&] {
      if (formed) return plain({MatrixView<const T>(nullptr, bk_, bn_, bn_), false});
      if (packs_in_gemm(vt)) return packed_operand(vt, b_of);
      APA_TRACE_SCOPE_ID("core.combine_b", l);
      return plain(form_operand(vt, b_of, b_temp, threads));
    }();
    const blas::PackedPanel<T>* b_pack = formed ? &formed_b_[li] : find_pack(b_packs_, vt);
    APA_TRACE_SCOPE_ID("core.submul", l);
    blas::gemm_planned<T>(a_op.trans, a_op.terms, find_pack(a_packs_, ut), b_op.trans,
                          b_op.terms, b_pack, product_view(l), T{1}, T{0}, {}, threads);
  }

  /// The band's rows of the C blocks = W-combinations of the products,
  /// write-once, rows parallelized inside each combination (memory-bandwidth
  /// bound, paper section 3.2).
  void combine_outputs(int threads) {
    for (index_t e = 0; e < rule_.m * rule_.n; ++e) {
      APA_TRACE_SCOPE_ID("core.combine_c", e);
      const auto& wt = rule_.w_terms[static_cast<std::size_t>(e)];
      APA_COUNTER_ADD("core.combine.bytes",
                      (static_cast<std::uint64_t>(wt.size()) + 1) *
                          static_cast<std::uint64_t>(band_) *
                          static_cast<std::uint64_t>(bn_) * sizeof(T));
      std::vector<blas::Scaled<T>> terms;
      terms.reserve(wt.size());
      for (const auto& [l, coeff] : wt) {
        terms.push_back({static_cast<T>(coeff), product_view(l).as_const()});
      }
      const index_t r = e / rule_.n;
      const index_t col = e % rule_.n;
      blas::linear_combination<T>(
          terms, c_.block(r * bm_ + band_row0_, col * bn_, band_, bn_), threads);
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
  index_t band_rows_;          // rows per band (bm_ when the level runs one band)
  bool short_;                 // bottom level with bm <= 2*kMc: gemms pack combinations
  index_t band_row0_ = 0;      // current band: first row within each block row
  index_t band_ = 0;           // current band: row count
  PooledMatrix<T> products_;   // rank stacked (band_rows_ x bn) blocks
  // Bottom level only: shared A blocks (entries, and their packs for the
  // current band), shared B blocks, and the combined B_l of a banded level
  // (empty for bare B_l).
  std::vector<index_t> shared_a_;
  std::map<index_t, blas::PackedPanel<T>> a_packs_, b_packs_;
  std::vector<blas::PackedPanel<T>> formed_b_;
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
