#include "benchutil/harness.h"

#include <algorithm>

#include "obs/trace.h"
#include "support/check.h"
#include "support/table.h"
#include "support/timer.h"

namespace apa::bench {

namespace {

double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

Quartiles quartiles(std::vector<double> samples) {
  APA_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  return {quantile(samples, 0.25), quantile(samples, 0.5), quantile(samples, 0.75)};
}

PairedRatio paired_ratio(const std::vector<double>& variant,
                         const std::vector<double>& baseline) {
  APA_CHECK(variant.size() == baseline.size());
  PairedRatio out;
  std::vector<double> ratios(variant.size());
  for (std::size_t r = 0; r < ratios.size(); ++r) {
    ratios[r] = variant[r] / baseline[r];
    out.wins += variant[r] < baseline[r] ? 1 : 0;
  }
  out.ratio = quartiles(std::move(ratios));
  return out;
}

Quartiles Rounds::time(std::size_t variant) const { return quartiles(seconds.at(variant)); }

PairedRatio Rounds::against(std::size_t variant, std::size_t baseline) const {
  return paired_ratio(seconds.at(variant), seconds.at(baseline));
}

Rounds run_rounds(const std::vector<Variant>& variants, int rounds, int warmup) {
  APA_CHECK(!variants.empty());
  rounds = std::max(1, rounds);
  Rounds out;
  for (const Variant& v : variants) out.names.push_back(v.name);
  out.seconds.assign(variants.size(), std::vector<double>(static_cast<std::size_t>(rounds)));
  {
    APA_TRACE_SCOPE("bench.warmup");
    for (int w = 0; w < warmup; ++w) {
      for (const Variant& v : variants) v.run();
    }
  }
  const std::size_t n = variants.size();
  for (int round = 0; round < rounds; ++round) {
    APA_TRACE_SCOPE_ID("bench.round", round);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t v = round % 2 == 0 ? i : n - 1 - i;
      const WallTimer timer;
      variants[v].run();
      out.seconds[v][static_cast<std::size_t>(round)] = timer.seconds();
    }
  }
  return out;
}

std::vector<std::string> report_columns(std::vector<std::string> leading,
                                        const std::vector<std::string>& trailing) {
  for (const char* column : {"sec", "sec-q1", "sec-q3", "ratio", "ratio-q1", "ratio-q3", "wins"}) {
    leading.emplace_back(column);
  }
  leading.insert(leading.end(), trailing.begin(), trailing.end());
  return leading;
}

std::vector<std::string> report_cells(std::vector<std::string> leading, const Rounds& rounds,
                                      std::size_t variant, std::size_t baseline,
                                      const std::vector<std::string>& trailing) {
  const Quartiles t = rounds.time(variant);
  for (const double s : {t.median, t.q1, t.q3}) leading.push_back(format_sci(s, 3));
  if (variant == baseline) {
    leading.insert(leading.end(), 4, "-");
  } else {
    const PairedRatio r = rounds.against(variant, baseline);
    for (const double x : {r.ratio.median, r.ratio.q1, r.ratio.q3}) {
      leading.push_back(format_double(x, 3));
    }
    leading.push_back(std::to_string(r.wins) + "/" +
                      std::to_string(rounds.seconds[variant].size()));
  }
  leading.insert(leading.end(), trailing.begin(), trailing.end());
  return leading;
}

}  // namespace apa::bench
