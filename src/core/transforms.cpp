#include "core/transforms.h"

#include <algorithm>

#include "support/check.h"

namespace apa::core {

Rule transpose_rule(const Rule& rule) {
  // C' = A'B' with A' = n x k, B' = k x m. Apply the original rule to
  // (B'^T, A'^T): U'[(q,p)] = V[(p,q)], V'[(j,i)] = U[(i,j)], W'[(b,a)] = W[(a,b)].
  Rule out(rule.name + "^T", rule.n, rule.k, rule.m, rule.rank);
  for (index_t l = 0; l < rule.rank; ++l) {
    for (index_t p = 0; p < rule.k; ++p) {
      for (index_t q = 0; q < rule.n; ++q) out.U(q, p, l) = rule.V(p, q, l);
    }
    for (index_t i = 0; i < rule.m; ++i) {
      for (index_t j = 0; j < rule.k; ++j) out.V(j, i, l) = rule.U(i, j, l);
    }
    for (index_t a = 0; a < rule.m; ++a) {
      for (index_t b = 0; b < rule.n; ++b) out.W(b, a, l) = rule.W(a, b, l);
    }
  }
  return out;
}

Rule cycle_rule(const Rule& rule) {
  // In the symmetric form the tensor is sum e_(x,y) (x) e_(y,z) (x) e_(z,x)
  // with x in [m], y in [k], z in [n] and the C factor indexed transposed.
  // Cycling the three factors yields a rule for <k, n, m>:
  //   U'[(y,z)] = V[(y,z)],  V'[(z,x)] = W[(x,z)],  W'[(y,x)] = U[(x,y)].
  Rule out(rule.name + "~", rule.k, rule.n, rule.m, rule.rank);
  for (index_t l = 0; l < rule.rank; ++l) {
    for (index_t y = 0; y < rule.k; ++y) {
      for (index_t z = 0; z < rule.n; ++z) out.U(y, z, l) = rule.V(y, z, l);
    }
    for (index_t z = 0; z < rule.n; ++z) {
      for (index_t x = 0; x < rule.m; ++x) out.V(z, x, l) = rule.W(x, z, l);
    }
    for (index_t x = 0; x < rule.m; ++x) {
      for (index_t y = 0; y < rule.k; ++y) out.W(y, x, l) = rule.U(x, y, l);
    }
  }
  return out;
}

Rule permute_rule(const Rule& rule, int perm) {
  APA_CHECK(perm >= 0 && perm < 6);
  switch (perm) {
    case 0: return rule;
    case 1: return cycle_rule(rule);
    case 2: return cycle_rule(cycle_rule(rule));
    case 3: return transpose_rule(rule);
    case 4: return transpose_rule(cycle_rule(rule));
    case 5: return transpose_rule(cycle_rule(cycle_rule(rule)));
    default: return rule;
  }
}

Rule direct_sum_m(const Rule& top, const Rule& bottom) {
  APA_CHECK_MSG(top.k == bottom.k && top.n == bottom.n,
                "direct_sum_m: inner/outer dims must match");
  const index_t m = top.m + bottom.m;
  Rule out("(" + top.name + "+" + bottom.name + ")_m", m, top.k, top.n,
           top.rank + bottom.rank);
  for (index_t l = 0; l < top.rank; ++l) {
    for (index_t i = 0; i < top.m; ++i) {
      for (index_t j = 0; j < top.k; ++j) out.U(i, j, l) = top.U(i, j, l);
    }
    for (index_t p = 0; p < top.k; ++p) {
      for (index_t q = 0; q < top.n; ++q) out.V(p, q, l) = top.V(p, q, l);
    }
    for (index_t a = 0; a < top.m; ++a) {
      for (index_t b = 0; b < top.n; ++b) out.W(a, b, l) = top.W(a, b, l);
    }
  }
  for (index_t l = 0; l < bottom.rank; ++l) {
    const index_t lo = top.rank + l;
    for (index_t i = 0; i < bottom.m; ++i) {
      for (index_t j = 0; j < bottom.k; ++j) out.U(top.m + i, j, lo) = bottom.U(i, j, l);
    }
    for (index_t p = 0; p < bottom.k; ++p) {
      for (index_t q = 0; q < bottom.n; ++q) out.V(p, q, lo) = bottom.V(p, q, l);
    }
    for (index_t a = 0; a < bottom.m; ++a) {
      for (index_t b = 0; b < bottom.n; ++b) out.W(top.m + a, b, lo) = bottom.W(a, b, l);
    }
  }
  return out;
}

Rule direct_sum_k(const Rule& left, const Rule& right) {
  APA_CHECK_MSG(left.m == right.m && left.n == right.n,
                "direct_sum_k: outer dims must match");
  const index_t k = left.k + right.k;
  Rule out("(" + left.name + "+" + right.name + ")_k", left.m, k, left.n,
           left.rank + right.rank);
  for (index_t l = 0; l < left.rank; ++l) {
    for (index_t i = 0; i < left.m; ++i) {
      for (index_t j = 0; j < left.k; ++j) out.U(i, j, l) = left.U(i, j, l);
    }
    for (index_t p = 0; p < left.k; ++p) {
      for (index_t q = 0; q < left.n; ++q) out.V(p, q, l) = left.V(p, q, l);
    }
    for (index_t a = 0; a < left.m; ++a) {
      for (index_t b = 0; b < left.n; ++b) out.W(a, b, l) = left.W(a, b, l);
    }
  }
  for (index_t l = 0; l < right.rank; ++l) {
    const index_t lo = left.rank + l;
    for (index_t i = 0; i < right.m; ++i) {
      for (index_t j = 0; j < right.k; ++j) out.U(i, left.k + j, lo) = right.U(i, j, l);
    }
    for (index_t p = 0; p < right.k; ++p) {
      for (index_t q = 0; q < right.n; ++q) out.V(left.k + p, q, lo) = right.V(p, q, l);
    }
    for (index_t a = 0; a < right.m; ++a) {
      for (index_t b = 0; b < right.n; ++b) out.W(a, b, lo) = right.W(a, b, l);
    }
  }
  return out;
}

Rule direct_sum_n(const Rule& left, const Rule& right) {
  APA_CHECK_MSG(left.m == right.m && left.k == right.k,
                "direct_sum_n: outer dims must match");
  const index_t n = left.n + right.n;
  Rule out("(" + left.name + "+" + right.name + ")_n", left.m, left.k, n,
           left.rank + right.rank);
  for (index_t l = 0; l < left.rank; ++l) {
    for (index_t i = 0; i < left.m; ++i) {
      for (index_t j = 0; j < left.k; ++j) out.U(i, j, l) = left.U(i, j, l);
    }
    for (index_t p = 0; p < left.k; ++p) {
      for (index_t q = 0; q < left.n; ++q) out.V(p, q, l) = left.V(p, q, l);
    }
    for (index_t a = 0; a < left.m; ++a) {
      for (index_t b = 0; b < left.n; ++b) out.W(a, b, l) = left.W(a, b, l);
    }
  }
  for (index_t l = 0; l < right.rank; ++l) {
    const index_t lo = left.rank + l;
    for (index_t i = 0; i < right.m; ++i) {
      for (index_t j = 0; j < right.k; ++j) out.U(i, j, lo) = right.U(i, j, l);
    }
    for (index_t p = 0; p < right.k; ++p) {
      for (index_t q = 0; q < right.n; ++q) out.V(p, left.n + q, lo) = right.V(p, q, l);
    }
    for (index_t a = 0; a < right.m; ++a) {
      for (index_t b = 0; b < right.n; ++b) out.W(a, left.n + b, lo) = right.W(a, b, l);
    }
  }
  return out;
}

Rule tensor_product(const Rule& outer, const Rule& inner) {
  const index_t m = outer.m * inner.m;
  const index_t k = outer.k * inner.k;
  const index_t n = outer.n * inner.n;
  Rule out("(" + outer.name + "x" + inner.name + ")", m, k, n,
           outer.rank * inner.rank);
  for (index_t l1 = 0; l1 < outer.rank; ++l1) {
    for (index_t l2 = 0; l2 < inner.rank; ++l2) {
      const index_t l = l1 * inner.rank + l2;
      for (index_t i1 = 0; i1 < outer.m; ++i1) {
        for (index_t j1 = 0; j1 < outer.k; ++j1) {
          const LaurentPoly& c1 = outer.U(i1, j1, l1);
          if (c1.is_zero()) continue;
          for (index_t i2 = 0; i2 < inner.m; ++i2) {
            for (index_t j2 = 0; j2 < inner.k; ++j2) {
              const LaurentPoly& c2 = inner.U(i2, j2, l2);
              if (c2.is_zero()) continue;
              out.U(i1 * inner.m + i2, j1 * inner.k + j2, l) = c1 * c2;
            }
          }
        }
      }
      for (index_t p1 = 0; p1 < outer.k; ++p1) {
        for (index_t q1 = 0; q1 < outer.n; ++q1) {
          const LaurentPoly& c1 = outer.V(p1, q1, l1);
          if (c1.is_zero()) continue;
          for (index_t p2 = 0; p2 < inner.k; ++p2) {
            for (index_t q2 = 0; q2 < inner.n; ++q2) {
              const LaurentPoly& c2 = inner.V(p2, q2, l2);
              if (c2.is_zero()) continue;
              out.V(p1 * inner.k + p2, q1 * inner.n + q2, l) = c1 * c2;
            }
          }
        }
      }
      for (index_t a1 = 0; a1 < outer.m; ++a1) {
        for (index_t b1 = 0; b1 < outer.n; ++b1) {
          const LaurentPoly& c1 = outer.W(a1, b1, l1);
          if (c1.is_zero()) continue;
          for (index_t a2 = 0; a2 < inner.m; ++a2) {
            for (index_t b2 = 0; b2 < inner.n; ++b2) {
              const LaurentPoly& c2 = inner.W(a2, b2, l2);
              if (c2.is_zero()) continue;
              out.W(a1 * inner.m + a2, b1 * inner.n + b2, l) = c1 * c2;
            }
          }
        }
      }
    }
  }
  return out;
}

bool orientation_fits(index_t rule_m, index_t rule_k, index_t rule_n,
                      index_t problem_m, index_t problem_k, index_t problem_n) {
  const index_t problem[3] = {problem_m, problem_k, problem_n};
  int order[3] = {0, 1, 2};  // problem dims by descending size
  std::stable_sort(order, order + 3,
                   [&](int a, int b) { return problem[a] > problem[b]; });
  const index_t dims[3] = {rule_m, rule_k, rule_n};
  return dims[order[0]] >= dims[order[1]] && dims[order[1]] >= dims[order[2]];
}

Rule orient_rule(const Rule& rule, index_t problem_m, index_t problem_k,
                 index_t problem_n) {
  for (int perm = 0; perm < 6; ++perm) {
    Rule candidate = permute_rule(rule, perm);
    if (orientation_fits(candidate.m, candidate.k, candidate.n, problem_m,
                         problem_k, problem_n)) {
      return candidate;
    }
  }
  return rule;  // unreachable: some permutation always sorts
}

}  // namespace apa::core
