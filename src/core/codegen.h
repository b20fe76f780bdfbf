#pragma once
// C++ code generation for bilinear rules, mirroring the Benson-Ballard
// framework the paper extends: given a rule, emit a standalone translation
// unit with the linear combinations fully unrolled as Scaled-term lists and
// each product lowered to a gemm call. The generated file depends only on
// this library's blas/ headers and compiles as-is.
//
// The runtime executor (core/executor.h) interprets the same structures; the
// generated code documents what the executor does for a given rule, and the
// test build compiles freshly emitted kernels and checks them against the
// executor. It is not a faster path: in paired timing the emitted kernels tie
// the executor or trail it by up to 1.25x, with bit-identical results
// (EXPERIMENTS.md, "Generated kernels vs the executor").

#include <string>

#include "core/rule.h"

namespace apa::core {

struct CodegenOptions {
  /// Lambda substituted into the coefficients (generated code is monomorphic
  /// in lambda, like the paper's generated kernels).
  double lambda = 0.00048828125;  // 2^-11, near optimal for sigma = phi = 1
  std::string function_name;      ///< default: sanitized rule name + "_multiply"
};

/// Returns the full contents of a .cpp file implementing one recursive step of
/// `rule` for float operands.
[[nodiscard]] std::string generate_cpp(const Rule& rule, const CodegenOptions& options = {});

}  // namespace apa::core
