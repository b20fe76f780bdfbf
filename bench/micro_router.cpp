// Router arbitration quality: warmed TunedBackend versus every static backend
// choice over an <M,K,N> x batch sweep (BENCH_router.json).
//
// For each shape the bench lets the router explore to a decision on live
// traffic, then times the routed call and each static config (classical plus
// each APA rule, default policy) in --reps interleaved rounds. The headline
// metric is the fraction of shapes where the warmed router matches or beats
// the *best single* static config — the config a user without per-shape
// tuning would have to pick once for the whole sweep (best total of median
// times): a shape matches when the median per-round router/best-single ratio
// is within --tol, and its wins count the rounds the router was faster. A
// second router instance is then warm-started from the cache the first one
// wrote, demonstrating that the explore cost is paid once: it must serve
// every shape with zero explore samples.
//
// Usage: micro_router [--dims=1024,2048] [--batches=128,384,1024,4096]
//                     [--algos=bini322,strassen] [--reps=3] [--router-reps=3]
//                     [--router-warmup=1] [--tol=0.10] [--min-dim=128]
//                     [--json=BENCH_router.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "benchutil/harness.h"
#include "benchutil/json_writer.h"
#include "nn/backend.h"
#include "support/cli.h"
#include "support/rng.h"
#include "support/table.h"
#include "tune/router.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const auto dims = args.get_int_list("dims", {1024, 2048});
  const auto batches = args.get_int_list("batches", {128, 384, 1024, 4096});
  const auto algos = args.get_list("algos", {"bini322", "strassen"});
  const int rounds = static_cast<int>(args.get_int("reps", 3));
  // "Matches" tolerance: covers run-to-run timing noise plus the per-call
  // Freivalds verification routed APA traffic pays and unguarded statics skip.
  const double tol = args.get_double("tol", 0.10);
  const index_t min_dim = args.get_int("min-dim", 128);

  const std::string cache_path =
      (std::filesystem::temp_directory_path() / "apamm_micro_router.cache")
          .string();
  std::remove(cache_path.c_str());

  // Static configs: the choices a user could hard-code today.
  std::map<std::string, nn::MatmulBackend> statics;
  nn::BackendOptions base;
  base.min_dim_for_fast = min_dim;
  statics.emplace("classical", nn::MatmulBackend("classical", base));
  for (const auto& algo : algos) statics.emplace(algo, nn::MatmulBackend(algo, base));

  tune::RouterOptions tuning;
  tuning.algorithms = algos;
  tuning.backend = base;
  tuning.cache_path = cache_path;
  tuning.cpu = "micro-router-bench";
  tuning.measure_reps = static_cast<int>(args.get_int("router-reps", 3));
  tuning.warmup_reps = static_cast<int>(args.get_int("router-warmup", 1));
  const tune::TunedBackend router(tuning);

  bench::BenchJsonWriter json("micro_router");
  TablePrinter table(bench::report_columns({"m", "k", "n", "config"}, {"verdict"}));

  struct ShapeResult {
    index_t m, k, n;
    bench::Rounds timed;  ///< the static configs, then "router"
    std::string choice;
  };
  std::vector<ShapeResult> results;
  std::map<std::string, double> static_totals;

  for (const auto dim : dims) {
    for (const auto batch : batches) {
      ShapeResult r;
      r.m = batch;
      r.k = dim;
      r.n = dim;
      Rng rng(static_cast<std::uint64_t>(dim * 31 + batch));
      Matrix<float> a(r.m, r.k), b(r.k, r.n), c(r.m, r.n);
      fill_random_uniform<float>(a.view(), rng);
      fill_random_uniform<float>(b.view(), rng);
      const auto av = a.view().as_const();
      const auto bv = b.view().as_const();

      // Explore on live traffic until the router commits, then time the
      // routed (exploit) path and every static config in interleaved rounds.
      for (int call = 0; call < 256 && !router.is_decided(r.m, r.k, r.n);
           ++call) {
        router.matmul(av, bv, c.view());
      }
      if (!router.is_decided(r.m, r.k, r.n)) {
        std::fprintf(stderr, "router failed to decide %lld x %lld x %lld\n",
                     static_cast<long long>(r.m), static_cast<long long>(r.k),
                     static_cast<long long>(r.n));
        return EXIT_FAILURE;
      }
      std::vector<bench::Variant> configs;
      for (const auto& [name, backend] : statics) {
        configs.push_back({name, [&] { backend.matmul(av, bv, c.view()); }});
      }
      configs.push_back({"router", [&] { router.matmul(av, bv, c.view()); }});
      r.timed = bench::run_rounds(configs, rounds);
      for (std::size_t i = 0; i + 1 < configs.size(); ++i) {
        static_totals[configs[i].name] += r.timed.time(i).median;
      }
      const auto route = router.route_for(r.m, r.k, r.n);
      r.choice = route ? route->algorithm +
                             (route->steps > 1
                                  ? "x" + std::to_string(route->steps)
                                  : "")
                       : "static";
      results.push_back(std::move(r));
    }
  }

  // The single static config a tuning-free user would pick: best sweep total.
  std::string best_single = "classical";
  for (const auto& [name, total] : static_totals) {
    if (total < static_totals[best_single]) best_single = name;
  }

  int matched = 0;
  for (const auto& r : results) {
    const bench::Rounds& t = r.timed;
    const std::size_t router_i = t.names.size() - 1;
    const auto single_i = static_cast<std::size_t>(
        std::find(t.names.begin(), t.names.end(), best_single) - t.names.begin());
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < router_i; ++i) {
      if (t.time(i).median < t.time(best_i).median) best_i = i;
    }
    const bench::PairedRatio vs_single = t.against(router_i, single_i);
    const bool ok = vs_single.ratio.median <= 1.0 + tol;
    matched += ok ? 1 : 0;

    obs::JsonRecord row;
    row.set("m", static_cast<long long>(r.m))
        .set("k", static_cast<long long>(r.k))
        .set("n", static_cast<long long>(r.n));
    for (std::size_t i = 0; i < t.names.size(); ++i) {
      row.set(t.names[i] + "_seconds", t.time(i).median);
    }
    row.set("router_choice", r.choice)
        .set("best_static", t.names[best_i])
        .set("best_static_seconds", t.time(best_i).median)
        .set("ratio_vs_best_single", vs_single.ratio.median)
        .set("ratio_vs_best_single_q1", vs_single.ratio.q1)
        .set("ratio_vs_best_single_q3", vs_single.ratio.q3)
        .set("wins_vs_best_single", vs_single.wins)
        .set("matches_best_single", ok);
    json.add_row(std::move(row));

    for (std::size_t i = 0; i < t.names.size(); ++i) {
      const std::string config = i == router_i ? "router:" + r.choice : t.names[i];
      table.add_row(bench::report_cells(
          {std::to_string(r.m), std::to_string(r.k), std::to_string(r.n), config}, t, i,
          single_i, {i == router_i ? (ok ? "ok" : "SLOWER") : ""}));
    }
  }
  table.print();

  const double fraction =
      results.empty() ? 1.0 : static_cast<double>(matched) / results.size();
  std::printf(
      "\nrouter matched/beat best single static config ('%s') on %d/%zu "
      "shapes (%.0f%%, tol %.0f%%)\n",
      best_single.c_str(), matched, results.size(), fraction * 100, tol * 100);

  // Warm-start: a second instance must route the whole sweep from the cache
  // the first one persisted, with zero exploration.
  const tune::TunedBackend warm(tuning);
  const tune::RouterStats warm_stats = warm.stats();
  std::printf("warm-start: cache %s, %llu entries, explore samples %llu\n",
              tune::to_string(warm_stats.cache_status),
              static_cast<unsigned long long>(warm_stats.warm_entries),
              static_cast<unsigned long long>(warm_stats.explore_samples));

  json.meta()
      .set("reps", rounds)
      .set("tolerance", tol)
      .set("best_single_static", best_single)
      .set("matched_shapes", matched)
      .set("total_shapes", static_cast<long long>(results.size()))
      .set("matched_fraction", fraction)
      .set("warm_cache_status", tune::to_string(warm_stats.cache_status))
      .set("warm_entries",
           static_cast<unsigned long long>(warm_stats.warm_entries));
  json.write(args.get("json", "BENCH_router.json"));
  std::remove(cache_path.c_str());
  return 0;
}
