#pragma once
// Rule combinators (paper sections 2.2 and 6): dimension symmetries, direct
// sums along each dimension, and tensor (Kronecker) products. These generate
// every larger algorithm in the registry from the exactly-published bases.
//
// All combinators preserve validity: a symbolic-validity proof of the inputs
// carries over (verified empirically for every registry rule in the tests).

#include "core/rule.h"

namespace apa::core {

/// <m,k,n> -> <n,k,m> via (A*B)^T = B^T * A^T.
[[nodiscard]] Rule transpose_rule(const Rule& rule);

/// <m,k,n> -> <k,n,m> via the cyclic symmetry of the matmul tensor.
[[nodiscard]] Rule cycle_rule(const Rule& rule);

/// The 6 dimension orderings reachable by cycle/transpose. `perm` selects:
/// 0: (m,k,n)  1: (k,n,m)  2: (n,m,k)  3: (n,k,m)  4: (m,n,k)  5: (k,m,n)
[[nodiscard]] Rule permute_rule(const Rule& rule, int perm);

/// Stack along rows of A / C: <m1,k,n> (+) <m2,k,n> = <m1+m2, k, n>.
[[nodiscard]] Rule direct_sum_m(const Rule& top, const Rule& bottom);

/// Split the inner dimension: <m,k1,n> (+) <m,k2,n> = <m, k1+k2, n>
/// (C = A1*B1 + A2*B2; both summands write to all of C).
[[nodiscard]] Rule direct_sum_k(const Rule& left, const Rule& right);

/// Concatenate along columns of B / C: <m,k,n1> (+) <m,k,n2> = <m, k, n1+n2>.
[[nodiscard]] Rule direct_sum_n(const Rule& left, const Rule& right);

/// Tensor product: <m1,k1,n1> (x) <m2,k2,n2> = <m1*m2, k1*k2, n1*n2>,
/// rank r1*r2. Laurent degrees add, so phi grows additively (section 2.3).
[[nodiscard]] Rule tensor_product(const Rule& outer, const Rule& inner);

/// Orientation matching (paper section 6): true when a <rule_m,rule_k,rule_n>
/// rule's dimensions, read in the problem's descending-dimension order
/// (stable: ties keep m < k < n), are non-increasing — the largest rule
/// dimension splits the largest problem dimension. E.g. <4,4,2> applied to
/// dW = x^T dy in VGG-19 (25088 x batch x 4096) fits only with the 2 on the
/// small batch dimension instead of shattering it. orient_rule and
/// nn::MatmulBackend both take the first permutation (permute_rule order) that
/// fits, so they agree on every shape.
[[nodiscard]] bool orientation_fits(index_t rule_m, index_t rule_k, index_t rule_n,
                                    index_t problem_m, index_t problem_k,
                                    index_t problem_n);

/// Permutes `rule` to the lowest-id permutation that orientation_fits the
/// problem. Deterministic for ties.
[[nodiscard]] Rule orient_rule(const Rule& rule, index_t problem_m, index_t problem_k,
                               index_t problem_n);

}  // namespace apa::core
