#pragma once
// Planned GEMM: prepacked operand panels and fused epilogues.
//
// The blocked gemm packs each operand into micropanel layout once per call
// and reuses every packed block across the whole call (each kc x nc block of
// B serves every m-block). A PackedPanel lifts that pack out of one call, for
// callers that feed the same operand to several products: the APA executor
// packs each input block that two or more of a rule's rank-r products alias
// as a bare term, and, at a level it walks in row bands, every product's B
// (each band reads it). The pack gather is transpose-aware (A^T / B^T
// operands cost nothing extra) and writes pool-leased cache-aligned storage
// in the same (kc, mc/nc) block order the macro-kernel consumes. A panel read
// by a single product saves nothing over packing on the fly, so the NN layers
// pack per call.
//
// Epilogues fuse the elementwise passes NN layers otherwise make over the
// freshly written output (bias add, ReLU, ReLU-backward masking) into the
// macro/microkernel boundary: each C tile is updated while it is still hot in
// registers/L1, after its final k-block accumulation. Fused results are
// bit-identical to the unfused two-pass evaluation (same per-element operation
// order), which the test suite asserts.
//
// Threading uses a shared-pack scheme: one packed A block and one packed B
// block are shared by the whole OpenMP team (packing itself is split across
// threads at micropanel granularity), and the macro-kernel loop over NR-column
// strips is parallelized. This replaces the old column-stripe scheme, which
// packed A redundantly in every thread.
//
// An operand may also be a sum of scaled stored blocks, Σ cᵢ·op(Xᵢ) (the A
// and B combinations of an APA rule): the pack then builds each packed block
// from the source blocks a stored row at a time (a micropanel's rows at a
// time where stored rows run across the panels), combining the terms into an
// L1 buffer with linear_combination's row kernel and scattering it into
// micropanel layout. The combination is never materialized, and every packed
// element rounds exactly as the materialized combination's. A threaded gemm
// splits such a pack across its team by those rows, not by panels.

#include <span>

#include "blas/combine.h"
#include "blas/gemm.h"
#include "support/matrix.h"
#include "support/pool.h"

namespace apa::blas {

enum class EpilogueKind {
  kNone,
  kBiasAdd,      ///< c(i,j) += bias[j]
  kRelu,         ///< c(i,j) = max(0, c(i,j))
  kBiasAddRelu,  ///< c(i,j) = max(0, c(i,j) + bias[j])
  kReluGrad,     ///< c(i,j) = gate(i,j) > 0 ? c(i,j) : 0
};

/// Elementwise epilogue applied to C after the final k-block accumulation.
/// `bias` must have C's column count (kBiasAdd / kBiasAddRelu); `gate` must
/// have C's shape (kReluGrad) — for ReLU backward it is the forward
/// activation (or pre-activation: both have the same sign support).
template <class T>
struct Epilogue {
  EpilogueKind kind = EpilogueKind::kNone;
  const T* bias = nullptr;
  MatrixView<const T> gate;
};

/// Applies `ep` to all of `c` as a separate full-matrix pass. This is the
/// unfused reference semantics, used by backends that cannot fuse into their
/// inner kernels (the APA executor applies it after the combine stage).
template <class T>
void apply_epilogue(const Epilogue<T>& ep, MatrixView<T> c);

/// One GEMM operand packed once into micropanel block layout. Storage is
/// leased from the global BufferPool, so repeated pack/drop cycles at the
/// same shape (a training loop) recycle one allocation.
template <class T>
class PackedPanel {
 public:
  enum class Side { kA, kB };

  PackedPanel() = default;
  PackedPanel(PackedPanel&&) noexcept = default;
  PackedPanel& operator=(PackedPanel&&) noexcept = default;
  PackedPanel(const PackedPanel&) = delete;
  PackedPanel& operator=(const PackedPanel&) = delete;

  /// Packs op(A) (logical m x k). `trans` means `stored` holds A^T, i.e. the
  /// logical operand is the transpose of the stored row-major matrix.
  /// `num_threads` > 1 splits the pack gather across an OpenMP team at cache
  /// block granularity — the layout is identical to the serial pack, so
  /// threaded and serial panels are interchangeable bit-for-bit.
  [[nodiscard]] static PackedPanel pack_a(bool trans, MatrixView<const T> stored,
                                          int num_threads = 1);
  /// Packs op(B) (logical k x n).
  [[nodiscard]] static PackedPanel pack_b(bool trans, MatrixView<const T> stored,
                                          int num_threads = 1);
  /// Packs op(B) = Σ cᵢ·op(Xᵢ) for terms of one stored shape, each
  /// transposed when `trans` is set; a single unit term packs as its plain
  /// view does. A multi-term pack is combined in place (see above) and split
  /// across the team by stored rows, block after block.
  [[nodiscard]] static PackedPanel pack_b(bool trans, std::span<const Scaled<T>> terms,
                                          int num_threads = 1);

  [[nodiscard]] bool empty() const { return storage_.empty(); }
  [[nodiscard]] Side side() const { return side_; }
  /// Logical op-operand dimensions (m x k for side A, k x n for side B).
  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }

  /// Packed data of one cache block: for side A, block (ic/MC, pc/KC); for
  /// side B, block (jc/NC, pc/KC). Exposed for the gemm engine.
  [[nodiscard]] const T* block(index_t outer_idx, index_t k_idx) const {
    return storage_.data() +
           static_cast<std::size_t>(outer_idx * k_blocks_ + k_idx) * slot_;
  }

 private:
  Side side_ = Side::kA;
  index_t rows_ = 0, cols_ = 0;
  index_t outer_blocks_ = 0, k_blocks_ = 0;
  std::size_t slot_ = 0;  ///< elements per block slot (uniform stride)
  PooledBuffer<T> storage_;
};

/// c = alpha * op(A) * op(B) + beta * c, then the epilogue, where op(A) =
/// Σ cᵢ·op(Aᵢ) over the terms `a` (at least one; every term has the same
/// stored shape and `ta` applies to each) and op(B) likewise. A single unit
/// term is a plain operand; more terms, or other coefficients, are combined
/// inside the pack. `a_packed` / `b_packed` may be null (the operand is packed
/// on the fly from its terms) or must match the operand's op-shape exactly. A
/// side whose panel is given supplies only its shape and is never read, so its
/// view may carry null data (the APA executor drops a combined operand once it
/// is packed). num_threads == 1 performs no OpenMP calls (safe under an
/// enclosing parallel region).
template <class T>
void gemm_planned(Trans ta, std::span<const Scaled<T>> a, const PackedPanel<T>* a_packed,
                  Trans tb, std::span<const Scaled<T>> b, const PackedPanel<T>* b_packed,
                  MatrixView<T> c, T alpha = T{1}, T beta = T{0},
                  const Epilogue<T>& epilogue = {}, int num_threads = 1);

/// Plain operands: one unit term each.
template <class T>
void gemm_planned(Trans ta, MatrixView<const T> a, const PackedPanel<T>* a_packed,
                  Trans tb, MatrixView<const T> b, const PackedPanel<T>* b_packed,
                  MatrixView<T> c, T alpha = T{1}, T beta = T{0},
                  const Epilogue<T>& epilogue = {}, int num_threads = 1) {
  const Scaled<T> a_term{T{1}, a}, b_term{T{1}, b};
  gemm_planned<T>(ta, std::span(&a_term, 1), a_packed, tb, std::span(&b_term, 1),
                  b_packed, c, alpha, beta, epilogue, num_threads);
}

/// Convenience: no prepacked operands, epilogue fused into the blocked gemm.
template <class T>
void gemm_fused(Trans ta, Trans tb, MatrixView<const T> a, MatrixView<const T> b,
                MatrixView<T> c, T alpha = T{1}, T beta = T{0},
                const Epilogue<T>& epilogue = {}, int num_threads = 1) {
  gemm_planned<T>(ta, a, nullptr, tb, b, nullptr, c, alpha, beta, epilogue,
                  num_threads);
}

extern template void apply_epilogue<float>(const Epilogue<float>&, MatrixView<float>);
extern template void apply_epilogue<double>(const Epilogue<double>&,
                                            MatrixView<double>);
extern template class PackedPanel<float>;
extern template class PackedPanel<double>;
extern template void gemm_planned<float>(Trans, std::span<const Scaled<float>>,
                                         const PackedPanel<float>*, Trans,
                                         std::span<const Scaled<float>>,
                                         const PackedPanel<float>*, MatrixView<float>,
                                         float, float, const Epilogue<float>&, int);
extern template void gemm_planned<double>(Trans, std::span<const Scaled<double>>,
                                          const PackedPanel<double>*, Trans,
                                          std::span<const Scaled<double>>,
                                          const PackedPanel<double>*,
                                          MatrixView<double>, double, double,
                                          const Epilogue<double>&, int);

}  // namespace apa::blas
