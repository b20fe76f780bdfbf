#pragma once
// Randomized numerical-health verification of (approximate) matrix products.
//
// A Freivalds-style probe checks C ≈ op(A)·op(B) in O(mn + kn + mk) time —
// asymptotically free next to the O(mkn) product it certifies. The residual
// C·r − op(A)·(op(B)·r) is compared against a tolerance derived from the APA
// error model (paper section 2.3): an honest rule run at its
// optimal lambda delivers relative error ≈ 2^(−dσ/(σ+sφ)), so anything far
// above that bound means the multiply left its validated regime — a mis-tuned
// lambda, an overflowed intermediate, or a rule applied outside its domain.
// Randomizing the probe (Malik & Becker, PAPERS.md) keeps a single adversarial
// error pattern from hiding from a fixed test vector.
//
// The guard also scans the output block for non-finite values, which the
// residual test alone could miss only in pathological cancellation cases but
// which deserve a distinct signal (fallback still helps when inputs are clean).

#include "core/params.h"
#include "support/matrix.h"
#include "support/rng.h"

namespace apa::core {

struct GuardOptions {
  /// Slack multiplier over the model error bound. The bound is measured
  /// against the worst row of sum_j (|op(A)||op(B)|)_ij — matrix-level, since
  /// block APA rules leak O(lambda^sigma) of neighboring block rows into each
  /// output row, so honest sparse rows carry residual from the rest of the
  /// matrix. Honest products sit well below 1x; the multiplier absorbs
  /// constant factors the sigma/phi model drops.
  double tolerance_multiplier = 16.0;
  /// Independent random probes per verification; each probe catches an
  /// adversarial error with probability >= 1/2, honest errors deterministically.
  int num_probes = 1;
  /// Absolute floor so all-zero operands do not trip on roundoff noise.
  double min_absolute_tolerance = 1e-30;
};

struct GuardReport {
  bool ok = true;
  /// C contained NaN/Inf (checked before the residual test).
  bool nonfinite_output = false;
  /// max over rows and probes of |residual| / tolerance; > 1 fails.
  double worst_ratio = 0.0;
};

class ProductGuard {
 public:
  /// `relative_error_bound`: expected relative error of the product being
  /// certified (use model_error_bound for APA rules, or ~2^-precision for
  /// exact products).
  explicit ProductGuard(double relative_error_bound, GuardOptions options = {});

  /// Expected relative error of `params` run at its *optimal* lambda for
  /// `steps` recursive levels — the rule's validated regime. Deliberately
  /// independent of the lambda actually in use: a corrupted lambda must not
  /// be allowed to loosen its own tolerance.
  [[nodiscard]] static double model_error_bound(const AlgorithmParams& params,
                                                int precision_bits, int steps);

  /// Verify C ≈ op(A)·op(B) where op transposes the stored row-major matrix.
  /// Never modifies operands; draws probe signs from `rng`.
  [[nodiscard]] GuardReport verify(MatrixView<const float> a,
                                   MatrixView<const float> b,
                                   MatrixView<const float> c, Rng& rng,
                                   bool transpose_a = false,
                                   bool transpose_b = false) const;

  /// Vectorizable non-finite scan over an output block.
  [[nodiscard]] static bool all_finite(MatrixView<const float> c);

  [[nodiscard]] double relative_error_bound() const { return relative_error_bound_; }
  [[nodiscard]] const GuardOptions& options() const { return options_; }

 private:
  double relative_error_bound_;
  GuardOptions options_;
};

}  // namespace apa::core
