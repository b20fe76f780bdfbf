#pragma once
// The one timing protocol of the bench binaries: interleaved rounds. Each
// round runs every variant once, in forward order on even rounds and reversed
// on odd ones, so with two variants the side that runs first alternates, and
// slow drift of a shared host (clock, thermal, a busy neighbour) lands on
// every variant alike instead of on whichever runs last. A report gives each
// variant's median and quartiles of seconds and, against a baseline variant
// timed in the same rounds, the median, quartiles and wins of the per-round
// variant/baseline time ratio.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace apa::bench {

/// One timed alternative; `run` performs one full unit of work.
struct Variant {
  std::string name;
  std::function<void()> run;
};

/// Lower quartile, median and upper quartile of a sample.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Linear-interpolated quartiles of a non-empty sample.
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// Per-round ratios variant[r] / baseline[r] of two equally long series.
struct PairedRatio {
  Quartiles ratio;
  int wins = 0;  ///< rounds where the variant took less time; ties count as neither
};

[[nodiscard]] PairedRatio paired_ratio(const std::vector<double>& variant,
                                       const std::vector<double>& baseline);

/// Seconds of every variant in every timed round.
struct Rounds {
  std::vector<std::string> names;
  std::vector<std::vector<double>> seconds;  ///< [variant][round]

  [[nodiscard]] Quartiles time(std::size_t variant) const;
  [[nodiscard]] PairedRatio against(std::size_t variant, std::size_t baseline) const;
};

/// Runs `warmup` untimed rounds in forward order, then `rounds` (at least 1)
/// timed interleaved rounds.
[[nodiscard]] Rounds run_rounds(const std::vector<Variant>& variants, int rounds,
                                int warmup = 1);

/// The report every bench prints: `leading` columns, then seconds (median,
/// q1, q3), the ratio to the baseline (median, q1, q3), wins/rounds, and
/// `trailing` bench-specific columns.
[[nodiscard]] std::vector<std::string> report_columns(
    std::vector<std::string> leading, const std::vector<std::string>& trailing = {});
/// One variant's row of that report; the baseline's own ratio cells read "-".
[[nodiscard]] std::vector<std::string> report_cells(
    std::vector<std::string> leading, const Rounds& rounds, std::size_t variant,
    std::size_t baseline, const std::vector<std::string>& trailing = {});

}  // namespace apa::bench
