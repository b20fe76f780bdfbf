#include "blas/plan.h"

#include <omp.h>

#include <algorithm>
#include <vector>

#include "blas/microkernel.h"
#include "blas/packing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace apa::blas {
namespace {

using detail::BlockShape;
using detail::MicroShape;

/// Applies an epilogue to a rows x cols region of C whose top-left element is
/// (row0, col0) of the logical output (bias indexes columns globally, the
/// ReLU-backward gate indexes both). Per-element operation order matches the
/// unfused separate passes exactly, so fused results are bit-identical.
template <class T>
void epilogue_region(const Epilogue<T>& ep, T* c, index_t ldc, index_t rows,
                     index_t cols, index_t row0, index_t col0) {
  switch (ep.kind) {
    case EpilogueKind::kNone:
      return;
    case EpilogueKind::kBiasAdd: {
      const T* bias = ep.bias + col0;
      for (index_t i = 0; i < rows; ++i) {
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) row[j] += bias[j];
      }
      return;
    }
    case EpilogueKind::kRelu: {
      for (index_t i = 0; i < rows; ++i) {
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) row[j] = row[j] > T{0} ? row[j] : T{0};
      }
      return;
    }
    case EpilogueKind::kBiasAddRelu: {
      const T* bias = ep.bias + col0;
      for (index_t i = 0; i < rows; ++i) {
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) {
          const T v = row[j] + bias[j];
          row[j] = v > T{0} ? v : T{0};
        }
      }
      return;
    }
    case EpilogueKind::kReluGrad: {
      for (index_t i = 0; i < rows; ++i) {
        const T* gate = &ep.gate(row0 + i, col0);
        T* row = c + i * ldc;
        for (index_t j = 0; j < cols; ++j) row[j] = gate[j] > T{0} ? row[j] : T{0};
      }
      return;
    }
  }
}

/// Macro-kernel: multiply a packed mc x kc block of A with a packed kc x nc
/// block of B into C, applying alpha and beta; when `ep` is non-null (final
/// k-block), the epilogue runs on each tile while it is still cache-hot.
/// (row0, col0) locate the C block in the logical output.
template <class T>
void macro_kernel(index_t mc, index_t nc, index_t kc, T alpha, const T* a_packed,
                  const T* b_packed, T beta, T* c, index_t ldc, const Epilogue<T>* ep,
                  index_t row0, index_t col0) {
  constexpr index_t mr = MicroShape<T>::kMr;
  constexpr index_t nr = MicroShape<T>::kNr;
  for (index_t j = 0; j < nc; j += nr) {
    const index_t nb = std::min(nr, nc - j);
    const T* b_panel = b_packed + (j / nr) * kc * nr;
    for (index_t i = 0; i < mc; i += mr) {
      const index_t mb = std::min(mr, mc - i);
      const T* a_panel = a_packed + (i / mr) * kc * mr;
      T* c_tile = c + i * ldc + j;
      if (mb == mr && nb == nr) {
        detail::microkernel(kc, alpha, a_panel, b_panel, beta, c_tile, ldc);
      } else {
        detail::microkernel_edge(kc, mb, nb, alpha, a_panel, b_panel, beta, c_tile, ldc);
      }
      if (ep != nullptr) {
        epilogue_region(*ep, c_tile, ldc, mb, nb, row0 + i, col0 + j);
      }
    }
  }
}

/// One gemm operand as the engine reads it: a prepacked panel, or
/// Σ cᵢ·op(Xᵢ) over stored blocks of one shape that share the transpose flag.
template <class T>
struct Source {
  bool trans = false;
  std::span<const Scaled<T>> terms;
  const PackedPanel<T>* packed = nullptr;

  /// A single unit term packs straight from its view.
  [[nodiscard]] bool direct() const {
    return terms.size() == 1 && terms[0].coeff == T{1};
  }
  [[nodiscard]] const T* data() const { return terms[0].view.data; }
  [[nodiscard]] index_t ld() const { return terms[0].view.ld; }
};

/// Packs one cache block of a multi-term operand with linear_combination's
/// row kernel, so the combination is never materialized. Combining in stored
/// orientation is what linear_combination_transposed does for transposed
/// terms, so every packed element rounds as the materialized combination's
/// does. The block is `depth` (kc) deep and `outer` (mc or nc) wide, in
/// micropanels W (MR or NR) wide; its stored rows run along the depth for A^T
/// and B, and along the outer dimension for A and B^T. It is packed in
/// slices, each combined into an L1 buffer and scattered into micropanel
/// layout:
/// - along the depth, a slice is one stored row, copied strip by strip into
///   every micropanel;
/// - along the outer dimension, a slice is the W stored rows of one
///   micropanel, transposed into it.
/// Distinct slices write disjoint elements, so a team may split a block by
/// slices.
template <class T, index_t W>
class TermPacker {
 public:
  TermPacker(std::span<const Scaled<T>> terms, bool along_depth, index_t row0,
             index_t col0, index_t depth, index_t outer, T* packed)
      : terms_(terms),
        row_terms_(terms.begin(), terms.end()),
        along_depth_(along_depth),
        row0_(row0),
        col0_(col0),
        depth_(depth),
        outer_(outer),
        packed_(packed) {}

  [[nodiscard]] index_t slices() const {
    return along_depth_ ? depth_ : (outer_ + W - 1) / W;
  }

  void pack_slice(index_t s) {
    alignas(64) T buf[kBufMax];
    if (along_depth_) {
      // Stored row s holds depth index s across the whole outer extent.
      combine(row0_ + s, 1, outer_, buf);
      T* dst = packed_ + s * W;
      for (index_t o = 0; o < outer_; o += W, dst += W * depth_) {
        const index_t count = std::min(W, outer_ - o);
        for (index_t j = 0; j < count; ++j) dst[j] = buf[o + j];
        for (index_t j = count; j < W; ++j) dst[j] = T{0};
      }
      return;
    }
    // Stored rows [s*W, s*W + rows) hold micropanel s's outer indices across
    // the whole depth; rows past the operand pad the panel with zeros.
    const index_t rows = std::min(W, outer_ - s * W);
    combine(row0_ + s * W, rows, depth_, buf);
    T* dst = packed_ + s * W * depth_;
    for (index_t d = 0; d < depth_; ++d, dst += W) {
      for (index_t i = 0; i < rows; ++i) dst[i] = buf[i * depth_ + d];
      for (index_t i = rows; i < W; ++i) dst[i] = T{0};
    }
  }

  void pack_all() {
    for (index_t s = 0; s < slices(); ++s) pack_slice(s);
  }

 private:
  /// A slice: one stored row of up to MC or NC elements, or W stored rows of
  /// up to KC.
  static constexpr index_t kBufMax = std::max(
      {BlockShape<T>::kMc, BlockShape<T>::kNc, W * BlockShape<T>::kKc});

  /// out = Σ cᵢ·Xᵢ over the rows x cols stored block at (row, col0_), written
  /// densely (leading dimension cols).
  void combine(index_t row, index_t rows, index_t cols, T* out) {
    for (std::size_t t = 0; t < terms_.size(); ++t) {
      const MatrixView<const T>& x = terms_[t].view;
      row_terms_[t].view = MatrixView<const T>(&x(row, col0_), rows, cols, x.ld);
    }
    detail::combine_rows<T>(row_terms_, MatrixView<T>(out, rows, cols, cols), 0, rows);
  }

  std::span<const Scaled<T>> terms_;
  std::vector<Scaled<T>> row_terms_;  ///< the terms' current slice
  bool along_depth_;
  index_t row0_, col0_, depth_, outer_;
  T* packed_;
};

/// Packer of the mc x kc block of op(A) at logical (ic, pc).
template <class T>
TermPacker<T, MicroShape<T>::kMr> a_block_packer(const Source<T>& a, index_t ic,
                                                 index_t pc, index_t mc, index_t kc,
                                                 T* packed) {
  return a.trans ? TermPacker<T, MicroShape<T>::kMr>(a.terms, true, pc, ic, kc, mc, packed)
                 : TermPacker<T, MicroShape<T>::kMr>(a.terms, false, ic, pc, kc, mc, packed);
}

/// Packer of the kc x nc block of op(B) at logical (pc, jc).
template <class T>
TermPacker<T, MicroShape<T>::kNr> b_block_packer(const Source<T>& b, index_t pc,
                                                 index_t jc, index_t kc, index_t nc,
                                                 T* packed) {
  return b.trans ? TermPacker<T, MicroShape<T>::kNr>(b.terms, false, jc, pc, kc, nc, packed)
                 : TermPacker<T, MicroShape<T>::kNr>(b.terms, true, pc, jc, kc, nc, packed);
}

/// Single-threaded blocked gemm over packed (or prepacked) operands. Pack
/// buffers are leased from the BufferPool, so the training loop's repeated
/// calls at recurring shapes stop malloc-ing.
template <class T>
void engine_serial(const Source<T>& a, const Source<T>& b, index_t m, index_t n,
                   index_t k, T alpha, T beta, T* c, index_t ldc, const Epilogue<T>& ep) {
  constexpr index_t mc_max = BlockShape<T>::kMc;
  constexpr index_t kc_max = BlockShape<T>::kKc;
  constexpr index_t nc_max = BlockShape<T>::kNc;

  PooledBuffer<T> a_buf(a.packed != nullptr ? 0
                                             : static_cast<std::size_t>(mc_max) * kc_max);
  PooledBuffer<T> b_buf(b.packed != nullptr ? 0
                                             : static_cast<std::size_t>(kc_max) * nc_max);

  for (index_t jc = 0; jc < n; jc += nc_max) {
    const index_t nc = std::min(nc_max, n - jc);
    for (index_t pc = 0; pc < k; pc += kc_max) {
      const index_t kc = std::min(kc_max, k - pc);
      const T beta_eff = (pc == 0) ? beta : T{1};
      const Epilogue<T>* tile_ep =
          (pc + kc == k && ep.kind != EpilogueKind::kNone) ? &ep : nullptr;
      const T* b_block;
      if (b.packed != nullptr) {
        b_block = b.packed->block(jc / nc_max, pc / kc_max);
      } else {
        APA_TRACE_SCOPE("blas.pack_b");
        if (b.direct()) {
          detail::pack_b(b.trans, b.data(), b.ld(), pc, jc, kc, nc, b_buf.data());
        } else {
          b_block_packer(b, pc, jc, kc, nc, b_buf.data()).pack_all();
        }
        b_block = b_buf.data();
      }
      for (index_t ic = 0; ic < m; ic += mc_max) {
        const index_t mc = std::min(mc_max, m - ic);
        const T* a_block;
        if (a.packed != nullptr) {
          a_block = a.packed->block(ic / mc_max, pc / kc_max);
        } else {
          APA_TRACE_SCOPE("blas.pack_a");
          if (a.direct()) {
            detail::pack_a(a.trans, a.data(), a.ld(), ic, pc, mc, kc, a_buf.data());
          } else {
            a_block_packer(a, ic, pc, mc, kc, a_buf.data()).pack_all();
          }
          a_block = a_buf.data();
        }
        APA_TRACE_SCOPE("blas.kernel");
        macro_kernel(mc, nc, kc, alpha, a_block, b_block, beta_eff, c + ic * ldc + jc,
                     ldc, tile_ep, ic, jc);
      }
    }
  }
}

/// Shared-pack parallel gemm: the team shares one packed A block and one
/// packed B block per iteration (packing is itself split across threads at
/// micropanel granularity, or by stored rows for a multi-term operand), and
/// the macro-kernel loop over NR-column strips is parallelized. Replaces the
/// column-stripe scheme, which re-packed A redundantly in every thread. The
/// implicit barrier after each `omp for` orders packing before compute and
/// compute before the next block's repack.
template <class T>
void engine_parallel(const Source<T>& a, const Source<T>& b, index_t m, index_t n,
                     index_t k, T alpha, T beta, T* c, index_t ldc, const Epilogue<T>& ep,
                     int threads) {
  constexpr index_t mr = MicroShape<T>::kMr;
  constexpr index_t nr = MicroShape<T>::kNr;
  constexpr index_t mc_max = BlockShape<T>::kMc;
  constexpr index_t kc_max = BlockShape<T>::kKc;
  constexpr index_t nc_max = BlockShape<T>::kNc;

  PooledBuffer<T> a_buf(a.packed != nullptr ? 0
                                             : static_cast<std::size_t>(mc_max) * kc_max);
  PooledBuffer<T> b_buf(b.packed != nullptr ? 0
                                             : static_cast<std::size_t>(kc_max) * nc_max);
  T* const a_shared = a_buf.data();
  T* const b_shared = b_buf.data();

#pragma omp parallel num_threads(threads)
  {
    for (index_t jc = 0; jc < n; jc += nc_max) {
      const index_t nc = std::min(nc_max, n - jc);
      const index_t n_panels = (nc + nr - 1) / nr;
      for (index_t pc = 0; pc < k; pc += kc_max) {
        const index_t kc = std::min(kc_max, k - pc);
        const T beta_eff = (pc == 0) ? beta : T{1};
        const Epilogue<T>* tile_ep =
            (pc + kc == k && ep.kind != EpilogueKind::kNone) ? &ep : nullptr;
        const T* b_block;
        if (b.packed != nullptr) {
          b_block = b.packed->block(jc / nc_max, pc / kc_max);
        } else if (b.direct()) {
          // Span covers this thread's share of the pack plus the barrier wait.
          APA_TRACE_SCOPE("blas.pack_b");
#pragma omp for schedule(static)
          for (index_t q = 0; q < n_panels; ++q) {
            detail::pack_b_panel(b.trans, b.data(), b.ld(), pc, jc + q * nr, kc,
                                 std::min(nr, nc - q * nr), b_shared + q * kc * nr);
          }
          b_block = b_shared;
        } else {
          APA_TRACE_SCOPE("blas.pack_b");
          auto packer = b_block_packer(b, pc, jc, kc, nc, b_shared);
          const index_t slices = packer.slices();
#pragma omp for schedule(static)
          for (index_t sl = 0; sl < slices; ++sl) packer.pack_slice(sl);
          b_block = b_shared;
        }
        for (index_t ic = 0; ic < m; ic += mc_max) {
          const index_t mc = std::min(mc_max, m - ic);
          const T* a_block;
          if (a.packed != nullptr) {
            a_block = a.packed->block(ic / mc_max, pc / kc_max);
          } else if (a.direct()) {
            const index_t m_panels = (mc + mr - 1) / mr;
            APA_TRACE_SCOPE("blas.pack_a");
#pragma omp for schedule(static)
            for (index_t p = 0; p < m_panels; ++p) {
              detail::pack_a_panel(a.trans, a.data(), a.ld(), ic + p * mr, pc,
                                   std::min(mr, mc - p * mr), kc,
                                   a_shared + p * mr * kc);
            }
            a_block = a_shared;
          } else {
            APA_TRACE_SCOPE("blas.pack_a");
            auto packer = a_block_packer(a, ic, pc, mc, kc, a_shared);
            const index_t slices = packer.slices();
#pragma omp for schedule(static)
            for (index_t sl = 0; sl < slices; ++sl) packer.pack_slice(sl);
            a_block = a_shared;
          }
          APA_TRACE_SCOPE("blas.kernel");
#pragma omp for schedule(static)
          for (index_t q = 0; q < n_panels; ++q) {
            const index_t j = q * nr;
            const index_t nb = std::min(nr, nc - j);
            const T* b_panel = b_block + q * kc * nr;
            for (index_t i = 0; i < mc; i += mr) {
              const index_t mb = std::min(mr, mc - i);
              const T* a_panel = a_block + (i / mr) * kc * mr;
              T* c_tile = c + (ic + i) * ldc + jc + j;
              if (mb == mr && nb == nr) {
                detail::microkernel(kc, alpha, a_panel, b_panel, beta_eff, c_tile, ldc);
              } else {
                detail::microkernel_edge(kc, mb, nb, alpha, a_panel, b_panel, beta_eff,
                                         c_tile, ldc);
              }
              if (tile_ep != nullptr) {
                epilogue_region(*tile_ep, c_tile, ldc, mb, nb, ic + i, jc + j);
              }
            }
          }
        }
      }
    }
  }
}

template <class T>
void validate_epilogue(const Epilogue<T>& ep, index_t m, index_t n) {
  switch (ep.kind) {
    case EpilogueKind::kNone:
    case EpilogueKind::kRelu:
      return;
    case EpilogueKind::kBiasAdd:
    case EpilogueKind::kBiasAddRelu:
      APA_CHECK_MSG(ep.bias != nullptr, "epilogue bias must be non-null");
      return;
    case EpilogueKind::kReluGrad:
      APA_CHECK_MSG(ep.gate.data != nullptr && ep.gate.rows == m && ep.gate.cols == n,
                    "epilogue gate must match the output shape");
      return;
  }
}

/// The operand `terms` describe, checked: at least one term, all of one
/// stored shape. A side with a prepacked panel reads only the first term's
/// shape, so its view may carry null data.
template <class T>
Source<T> checked_source(bool trans, std::span<const Scaled<T>> terms,
                         const PackedPanel<T>* packed) {
  APA_CHECK_MSG(!terms.empty(), "a gemm operand needs at least one term");
  for (const Scaled<T>& t : terms) {
    APA_CHECK_MSG(t.view.rows == terms[0].view.rows && t.view.cols == terms[0].view.cols,
                  "every term of a gemm operand must have the same shape");
  }
  return Source<T>{trans, terms, packed};
}

/// Packs the `total` independent cache blocks of a prepacked panel,
/// `pack_block(blk)` packing block blk. The blocks write disjoint slots, so
/// the gather threads at block granularity with the exact serial layout.
template <class PackBlock>
void pack_blocks(index_t total, int num_threads, PackBlock pack_block) {
  const int team = static_cast<int>(
      std::min<index_t>(std::max(num_threads, 1), total));
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
  for (index_t blk = 0; blk < total; ++blk) pack_block(blk);
}

/// Packs the `total` blocks of a multi-term prepacked panel one after
/// another, each split across the team by slices, since a combination's
/// panel is often a single block; `packer_at(blk)` makes block blk's packer.
template <class PackerAt>
void pack_blocks_by_slices(index_t total, int num_threads, PackerAt packer_at) {
  const int team = std::max(num_threads, 1);
  if (team == 1) {
    for (index_t blk = 0; blk < total; ++blk) packer_at(blk).pack_all();
    return;
  }
#pragma omp parallel num_threads(team)
  for (index_t blk = 0; blk < total; ++blk) {
    auto packer = packer_at(blk);
    const index_t slices = packer.slices();
#pragma omp for schedule(static)
    for (index_t sl = 0; sl < slices; ++sl) packer.pack_slice(sl);
  }
}

}  // namespace

template <class T>
void apply_epilogue(const Epilogue<T>& ep, MatrixView<T> c) {
  if (ep.kind == EpilogueKind::kNone) return;
  APA_TRACE_SCOPE("blas.epilogue");
  validate_epilogue(ep, c.rows, c.cols);
  epilogue_region(ep, c.data, c.ld, c.rows, c.cols, 0, 0);
}

template <class T>
PackedPanel<T> PackedPanel<T>::pack_a(bool trans, MatrixView<const T> stored,
                                      int num_threads) {
  APA_TRACE_SCOPE("blas.prepack_a");
  constexpr index_t mr = MicroShape<T>::kMr;
  constexpr index_t mc_max = BlockShape<T>::kMc;
  constexpr index_t kc_max = BlockShape<T>::kKc;
  PackedPanel<T> p;
  p.side_ = Side::kA;
  p.rows_ = trans ? stored.cols : stored.rows;  // m
  p.cols_ = trans ? stored.rows : stored.cols;  // k
  p.outer_blocks_ = (p.rows_ + mc_max - 1) / mc_max;
  p.k_blocks_ = (p.cols_ + kc_max - 1) / kc_max;
  // Uniform slot stride sized for the largest block, so small operands (the
  // executor's sub-blocks) don't pay a full MC x KC slot.
  const index_t mc_fit = std::min(mc_max, (p.rows_ + mr - 1) / mr * mr);
  p.slot_ = static_cast<std::size_t>(mc_fit) * std::min(kc_max, p.cols_);
  p.storage_ = PooledBuffer<T>(p.slot_ * static_cast<std::size_t>(p.outer_blocks_) *
                               static_cast<std::size_t>(p.k_blocks_));
  pack_blocks(p.outer_blocks_ * p.k_blocks_, num_threads, [&](index_t blk) {
    const index_t ic = (blk / p.k_blocks_) * mc_max;
    const index_t pc = (blk % p.k_blocks_) * kc_max;
    detail::pack_a(trans, stored.data, stored.ld, ic, pc, std::min(mc_max, p.rows_ - ic),
                   std::min(kc_max, p.cols_ - pc),
                   p.storage_.data() + static_cast<std::size_t>(blk) * p.slot_);
  });
  return p;
}

template <class T>
PackedPanel<T> PackedPanel<T>::pack_b(bool trans, MatrixView<const T> stored,
                                      int num_threads) {
  const Scaled<T> term{T{1}, stored};
  return pack_b(trans, std::span(&term, 1), num_threads);
}

template <class T>
PackedPanel<T> PackedPanel<T>::pack_b(bool trans, std::span<const Scaled<T>> terms,
                                      int num_threads) {
  APA_TRACE_SCOPE("blas.prepack_b");
  constexpr index_t nr = MicroShape<T>::kNr;
  constexpr index_t kc_max = BlockShape<T>::kKc;
  constexpr index_t nc_max = BlockShape<T>::kNc;
  const Source<T> src = checked_source<T>(trans, terms, nullptr);
  PackedPanel<T> p;
  p.side_ = Side::kB;
  p.rows_ = trans ? terms[0].view.cols : terms[0].view.rows;  // k
  p.cols_ = trans ? terms[0].view.rows : terms[0].view.cols;  // n
  p.outer_blocks_ = (p.cols_ + nc_max - 1) / nc_max;
  p.k_blocks_ = (p.rows_ + kc_max - 1) / kc_max;
  const index_t nc_fit = std::min(nc_max, (p.cols_ + nr - 1) / nr * nr);
  p.slot_ = static_cast<std::size_t>(std::min(kc_max, p.rows_)) * nc_fit;
  p.storage_ = PooledBuffer<T>(p.slot_ * static_cast<std::size_t>(p.outer_blocks_) *
                               static_cast<std::size_t>(p.k_blocks_));
  const index_t total = p.outer_blocks_ * p.k_blocks_;
  struct Block {
    index_t pc, jc, kc, nc;
    T* dst;
  };
  const auto block = [&](index_t blk) {
    const index_t jc = (blk / p.k_blocks_) * nc_max;
    const index_t pc = (blk % p.k_blocks_) * kc_max;
    return Block{pc, jc, std::min(kc_max, p.rows_ - pc), std::min(nc_max, p.cols_ - jc),
                 p.storage_.data() + static_cast<std::size_t>(blk) * p.slot_};
  };
  if (src.direct()) {
    pack_blocks(total, num_threads, [&](index_t blk) {
      const Block at = block(blk);
      detail::pack_b(trans, src.data(), src.ld(), at.pc, at.jc, at.kc, at.nc, at.dst);
    });
  } else {
    pack_blocks_by_slices(total, num_threads, [&](index_t blk) {
      const Block at = block(blk);
      return b_block_packer(src, at.pc, at.jc, at.kc, at.nc, at.dst);
    });
  }
  return p;
}

template <class T>
void gemm_planned(Trans ta, std::span<const Scaled<T>> a, const PackedPanel<T>* a_packed,
                  Trans tb, std::span<const Scaled<T>> b, const PackedPanel<T>* b_packed,
                  MatrixView<T> c, T alpha, T beta, const Epilogue<T>& epilogue,
                  int num_threads) {
  APA_TRACE_SCOPE("blas.gemm");
  if (a_packed != nullptr || b_packed != nullptr) {
    APA_COUNTER_INC("blas.gemm.prepack_hits");
  } else {
    APA_COUNTER_INC("blas.gemm.prepack_misses");
  }
  const Source<T> sa = checked_source(ta == Trans::kYes, a, a_packed);
  const Source<T> sb = checked_source(tb == Trans::kYes, b, b_packed);
  const index_t m = sa.trans ? a[0].view.cols : a[0].view.rows;
  const index_t k = sa.trans ? a[0].view.rows : a[0].view.cols;
  const index_t kb = sb.trans ? b[0].view.cols : b[0].view.rows;
  const index_t n = sb.trans ? b[0].view.rows : b[0].view.cols;
  APA_CHECK(k == kb && c.rows == m && c.cols == n);
  // Classical operation count, recorded so the tuning layer can calibrate an
  // achieved-GFLOPS machine constant from ordinary traffic: dividing this
  // counter by the "blas.gemm" phase time yields the cost model's sub-gemm
  // throughput without a dedicated measurement pass (src/tune/calibrate.h).
  APA_COUNTER_ADD("blas.gemm.flops", 2ULL * static_cast<std::uint64_t>(m) *
                                         static_cast<std::uint64_t>(k) *
                                         static_cast<std::uint64_t>(n));
  if (a_packed != nullptr) {
    APA_CHECK_MSG(a_packed->side() == PackedPanel<T>::Side::kA &&
                      a_packed->rows() == m && a_packed->cols() == k,
                  "prepacked A panel does not match op(A) " << m << "x" << k);
  }
  if (b_packed != nullptr) {
    APA_CHECK_MSG(b_packed->side() == PackedPanel<T>::Side::kB &&
                      b_packed->rows() == k && b_packed->cols() == n,
                  "prepacked B panel does not match op(B) " << k << "x" << n);
  }
  validate_epilogue(epilogue, m, n);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T{0}) {
    for (index_t i = 0; i < m; ++i) {
      for (index_t j = 0; j < n; ++j) {
        c(i, j) = (beta == T{0}) ? T{0} : beta * c(i, j);
      }
    }
    apply_epilogue(epilogue, c);
    return;
  }

  constexpr index_t nr = detail::MicroShape<T>::kNr;
  const int usable =
      static_cast<int>(std::min<index_t>(num_threads, (n + nr - 1) / nr));
  if (usable <= 1) {
    engine_serial(sa, sb, m, n, k, alpha, beta, c.data, c.ld, epilogue);
  } else {
    engine_parallel(sa, sb, m, n, k, alpha, beta, c.data, c.ld, epilogue, usable);
  }
}

template void apply_epilogue<float>(const Epilogue<float>&, MatrixView<float>);
template void apply_epilogue<double>(const Epilogue<double>&, MatrixView<double>);
template class PackedPanel<float>;
template class PackedPanel<double>;
template void gemm_planned<float>(Trans, std::span<const Scaled<float>>,
                                  const PackedPanel<float>*, Trans,
                                  std::span<const Scaled<float>>, const PackedPanel<float>*,
                                  MatrixView<float>, float, float,
                                  const Epilogue<float>&, int);
template void gemm_planned<double>(Trans, std::span<const Scaled<double>>,
                                   const PackedPanel<double>*, Trans,
                                   std::span<const Scaled<double>>,
                                   const PackedPanel<double>*, MatrixView<double>, double,
                                   double, const Epilogue<double>&, int);

}  // namespace apa::blas
