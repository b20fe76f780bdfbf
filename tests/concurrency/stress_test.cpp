// Concurrency stress suite (ctest -L concurrency) — the TSan targets.
//
// Exercises every lock-free or shared-state path under a full 8-thread OpenMP
// team so ThreadSanitizer (-DAPAMM_TSAN=ON, TSAN_OPTIONS=suppressions=
// tsan.supp) can observe the interleavings: read-shared packed panels across
// concurrent planned gemms, the team-shared pack buffers inside one parallel
// gemm, the executor's hybrid q+remainder schedule (one band and row-banded),
// short products whose gemms pack their combinations from shared source
// blocks, concurrent inference on one trained MLP, BufferPool lease churn, and the obs
// layer's single-producer trace rings and interning registries.
// The assertions double as correctness checks in regular builds, so the suite
// is cheap enough to stay in tier-1. Under TSan run one test per process, as
// ctest does: run whole, the binary reports false races on stack slots an
// OpenMP worker of an earlier test last touched, because TSan cannot see
// libgomp's join barrier (docs/STATIC_ANALYSIS.md).

#include <gtest/gtest.h>
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.h"
#include "blas/plan.h"
#include "core/executor.h"
#include "core/registry.h"
#include "nn/mlp.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/matrix.h"
#include "support/pool.h"
#include "support/rng.h"

namespace {

using namespace apa;

constexpr int kThreads = 8;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { omp_set_dynamic(0); }
};

/// Reference product for a plain (m x k) * (k x n) row-major multiply.
template <class T>
Matrix<T> reference_product(const Matrix<T>& a, const Matrix<T>& b) {
  Matrix<T> c(a.rows(), b.cols());
  c.set_zero();
  blas::gemm_reference<T>(blas::Trans::kNo, blas::Trans::kNo, a.rows(), b.cols(),
                          a.cols(), T{1}, a.data(), a.ld(), b.data(), b.ld(), T{0},
                          c.data(), c.ld());
  return c;
}

TEST_F(ConcurrencyTest, SharedPackedPanelsAcrossConcurrentGemms) {
  // PackedPanels read-shared by 8 single-threaded gemm_planned calls running
  // concurrently — the APA executor's pattern under the hybrid schedule, where
  // each thread's products consume the input blocks packed once up front.
  const index_t m = 96, k = 64, n = 80;
  Rng rng(41);
  Matrix<float> a(m, k), b(k, n);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<float> expected = reference_product(a, b);

  const auto pa = blas::PackedPanel<float>::pack_a(false, a.view().as_const());
  const auto pb = blas::PackedPanel<float>::pack_b(false, b.view().as_const());

  std::vector<double> errors(kThreads, 1.0);
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    Matrix<float> c(m, n);
    for (int rep = 0; rep < 4; ++rep) {
      c.set_zero();
      blas::gemm_planned<float>(blas::Trans::kNo, a.view().as_const(), &pa,
                                blas::Trans::kNo, b.view().as_const(), &pb, c.view(),
                                1.0f, 0.0f, {}, /*num_threads=*/1);
    }
    errors[static_cast<std::size_t>(tid)] = relative_frobenius_error(
        c.view().as_const(), expected.view().as_const());
  }
  for (const double err : errors) EXPECT_LT(err, 1e-5);
}

TEST_F(ConcurrencyTest, ConcurrentPredictAfterTrainStepMatchesSerial) {
  // forward() is const and keeps no per-layer cache, so threads may share one
  // trained model for inference. The first and last layers run classical
  // gemm, the hidden ones bini322; the concurrent calls are the first
  // forwards after the weight update.
  nn::BackendOptions options;
  options.min_dim_for_fast = 32;
  nn::MlpConfig config;
  config.layer_sizes = {48, 96, 96, 10};
  config.seed = 44;
  nn::Mlp model(config, nn::MatmulBackend("bini322", options),
                nn::MatmulBackend("classical", options));
  ASSERT_FALSE(model.layer_uses_fast(0));
  ASSERT_FALSE(model.layer_uses_fast(2));

  const index_t batch = 64;
  Rng rng(45);
  Matrix<float> x(batch, 48);
  fill_random_uniform<float>(x.view(), rng);
  std::vector<int> labels(static_cast<std::size_t>(batch));
  for (index_t i = 0; i < batch; ++i) {
    labels[static_cast<std::size_t>(i)] = static_cast<int>(i % 10);
  }
  model.train_step(x.view().as_const(), labels);

  constexpr int kCallers = 4;
  std::vector<Matrix<float>> logits;
  for (int t = 0; t < kCallers; ++t) logits.emplace_back(batch, 10);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&model, &x, &logits, t] {
      model.predict(x.view().as_const(), logits[static_cast<std::size_t>(t)].view());
    });
  }
  for (std::thread& caller : callers) caller.join();

  Matrix<float> serial(batch, 10);
  model.predict(x.view().as_const(), serial.view());
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(max_abs_diff(logits[static_cast<std::size_t>(t)].view(), serial.view()),
              0.0)
        << "caller " << t;
  }
}

TEST_F(ConcurrencyTest, TeamSharedPackInsideParallelGemm) {
  // A single gemm_planned call with an internal 8-thread team: the pack of A
  // and B into team-shared buffers is barrier-ordered before the compute
  // phase — the race TSan is pointed at here.
  const index_t m = 160, k = 96, n = 144;
  Rng rng(42);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  const Matrix<float> expected = reference_product(a, b);
  for (int rep = 0; rep < 3; ++rep) {
    c.set_zero();
    blas::gemm_fused<float>(blas::Trans::kNo, blas::Trans::kNo, a.view().as_const(),
                            b.view().as_const(), c.view(), 1.0f, 0.0f, {},
                            kThreads);
    EXPECT_LT(relative_frobenius_error(c.view().as_const(),
                                       expected.view().as_const()),
              1e-5);
  }
}

TEST_F(ConcurrencyTest, HybridAndBfsExecutorSchedulesUnderFullTeam) {
  // The paper's hybrid schedule: q products per thread with single-threaded
  // gemm, then the remainder with the whole team. strassen (exact) keeps the
  // tolerance tight; bini322 additionally exercises a non-zero remainder wave.
  // The tall 421 x 8 x 32 input makes the executor walk C in row bands (two
  // per rule, the last one short, plus a peeled fringe row): every band's
  // products read-share the B panels packed once per call, and the stack is
  // reused band after band. It is kept small because TSan forgets a thread's
  // older accesses: past its history window it cannot restore the stack of a
  // libgomp worker's write, so the libgomp suppressions cannot match and the
  // fork/join hand-off it cannot see reads as a race.
  struct Shape {
    index_t m, k, n;
  };
  for (const Shape shape : {Shape{128, 128, 128}, Shape{421, 8, 32}}) {
    Rng rng(43);
    Matrix<float> a(shape.m, shape.k), b(shape.k, shape.n), c(shape.m, shape.n);
    fill_random_uniform<float>(a.view(), rng);
    fill_random_uniform<float>(b.view(), rng);
    const Matrix<float> expected = reference_product(a, b);
    for (const char* algo : {"strassen", "bini322"}) {
      const core::Rule& rule = core::rule_by_name(algo);
      for (const core::Strategy strategy :
           {core::Strategy::kHybrid, core::Strategy::kBfs}) {
        core::ExecOptions options;
        options.steps = 1;
        options.strategy = strategy;
        options.num_threads = kThreads;
        c.set_zero();
        core::multiply<float>(rule, a.view().as_const(), b.view().as_const(),
                              c.view(), options);
        EXPECT_LT(relative_frobenius_error(c.view().as_const(),
                                           expected.view().as_const()),
                  1e-2)
            << algo << "/" << core::to_string(strategy) << " m=" << shape.m;
      }
    }
  }
}

TEST_F(ConcurrencyTest, ShortProductsPackSharedSourceBlocksConcurrently) {
  // A short bottom level (bm <= 2 * kMc) hands each product's A and B
  // combinations to its gemm, whose packs read the source blocks in place:
  // under BFS and hybrid the concurrent products' packs read the same input
  // blocks, and bini322's remainder wave packs each block with the whole team,
  // split by rows. 60 x 32 x 128 (about 500 kFLOP) keeps each run inside
  // TSan's history window (see above). The sequential schedule is the
  // bit-exact reference.
  constexpr int kTeam = 4;
  Rng rng(44);
  Matrix<float> a(60, 32), b(32, 128), expected(60, 128), c(60, 128);
  fill_random_uniform<float>(a.view(), rng);
  fill_random_uniform<float>(b.view(), rng);
  for (const char* algo : {"bini322", "fast442"}) {
    const core::Rule& rule = core::rule_by_name(algo);
    core::ExecOptions options;
    options.steps = 1;
    core::multiply<float>(rule, a.view().as_const(), b.view().as_const(),
                          expected.view(), options);
    for (const core::Strategy strategy :
         {core::Strategy::kHybrid, core::Strategy::kBfs}) {
      options.strategy = strategy;
      options.num_threads = kTeam;
      c.set_zero();
      core::multiply<float>(rule, a.view().as_const(), b.view().as_const(), c.view(),
                            options);
      EXPECT_EQ(max_abs_diff(c.view(), expected.view()), 0.0)
          << algo << "/" << core::to_string(strategy);
    }
  }
}

TEST_F(ConcurrencyTest, PooledBufferLeaseChurnAcrossThreads) {
  // 8 threads lease, fill, and return overlapping buffer sizes, racing on the
  // pool's free-list mutex and the recycled allocations themselves.
  BufferPool<float>::instance().clear();
  std::vector<std::uint64_t> sums(kThreads, 0);
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    std::uint64_t local = 0;
    for (int rep = 0; rep < 200; ++rep) {
      const std::size_t count = 256 + static_cast<std::size_t>((tid + rep) % 4) * 64;
      PooledBuffer<float> lease(count);
      EXPECT_EQ(lease.size(), count);  // ASSERT would return out of the omp block
      for (std::size_t i = 0; i < count; ++i) {
        lease.data()[i] = static_cast<float>(tid + 1);
      }
      local += static_cast<std::uint64_t>(lease.data()[count - 1]);
    }
    sums[static_cast<std::size_t>(tid)] = local;
  }
  for (int tid = 0; tid < kThreads; ++tid) {
    EXPECT_EQ(sums[static_cast<std::size_t>(tid)],
              static_cast<std::uint64_t>(200 * (tid + 1)));
  }
  BufferPool<float>::instance().clear();
}

TEST_F(ConcurrencyTest, TraceRingsAndMetricsRegistriesUnderContention) {
  // All 8 threads hammer the same span / counter / histogram names: interning
  // races in the registries, release-published single-producer rings, relaxed
  // accumulator adds. Drained only after the team joins (quiescent contract).
  obs::set_enabled(true);
  obs::set_tracing(true);
  obs::reset_trace();
  obs::reset_phases();
  obs::reset_counters();
  constexpr int kReps = 500;
#pragma omp parallel num_threads(kThreads)
  {
    for (int rep = 0; rep < kReps; ++rep) {
      APA_TRACE_SCOPE("stress.span");
      APA_COUNTER_INC("stress.counter");
      APA_HISTOGRAM_RECORD("stress.histogram", rep);
    }
  }
  obs::set_tracing(false);
  constexpr std::uint64_t kTotal = static_cast<std::uint64_t>(kThreads) * kReps;
  EXPECT_EQ(obs::counter_value("stress.counter"), kTotal);
  std::uint64_t spans = 0;
  for (const auto& t : obs::phase_totals()) {
    if (t.name == "stress.span") spans = t.count;
  }
  EXPECT_EQ(spans, kTotal);
  EXPECT_EQ(obs::trace_events().size() + obs::trace_dropped(), kTotal);
  std::uint64_t hist_count = 0;
  for (const auto& h : obs::histogram_samples()) {
    if (h.name == "stress.histogram") hist_count = h.count;
  }
  EXPECT_EQ(hist_count, kTotal);
  obs::reset_trace();
  obs::reset_phases();
  obs::reset_counters();
}

TEST_F(ConcurrencyTest, TraceCapacityResizeUnderConcurrentRecording) {
  // One thread hammers set_trace_capacity through a cycle of bounds while the
  // other seven record spans nonstop — the generation-bump resize protocol
  // must never tear a ring or crash a producer mid-record. Counts are
  // unknowable across generations; correctness here is "TSan-clean and the
  // rings still work afterwards".
  obs::set_enabled(true);
  obs::set_tracing(true);
  obs::reset_trace();
  const std::uint64_t original = obs::trace_capacity();
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    if (tid == 0) {
      const std::uint64_t bounds[] = {16, 128, 1024, 64};
      for (int rep = 0; rep < 200; ++rep) {
        obs::set_trace_capacity(bounds[rep % 4]);
      }
    } else {
      for (int rep = 0; rep < 2000; ++rep) {
        APA_TRACE_SCOPE_ID("stress.resize_span", rep);
      }
    }
  }
  // Drained events are structurally intact whatever generation survived.
  for (const auto& e : obs::trace_events()) {
    EXPECT_EQ(e.name, "stress.resize_span");
    EXPECT_GE(e.id, 0);
    EXPECT_LT(e.id, 2000);
  }
  // The rings keep recording after the churn: every thread lands exactly
  // one span under the final bound.
  obs::set_trace_capacity(64);
  obs::reset_trace();
#pragma omp parallel num_threads(kThreads)
  {
    APA_TRACE_SCOPE("stress.post_resize");
  }
  EXPECT_EQ(obs::trace_events().size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(obs::trace_dropped(), 0u);
  obs::set_tracing(false);
  obs::reset_trace();
  obs::set_trace_capacity(original);
}

TEST_F(ConcurrencyTest, FlightRingsRecordConcurrentlyAndDumpAfterQuiesce) {
  // All 8 threads stream breadcrumbs concurrently (racing on the ring
  // registry's atomic slots and their own release-published counts), then a
  // quiescent dump must capture every retained note. The dump-races-producers
  // path is exercised only by the real crash triggers, deliberately outside
  // the TSan suite: its torn-entry tolerance is a documented data race, and
  // tsan.supp's policy is that nothing under src/ gets suppressed.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("apamm_stress_flight_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  obs::reset_flight();
  obs::set_flight_dir(dir.string());
#pragma omp parallel num_threads(kThreads)
  {
    const int tid = omp_get_thread_num();
    for (int rep = 0; rep < 500; ++rep) {
      obs::flight_note("stress.flight", tid, rep);
    }
  }
  const int dumped = obs::flight_dump("stress");
  obs::set_flight_dir("");
  EXPECT_GE(dumped, 1);
  EXPECT_TRUE(fs::exists(dir / "flight_0.json"));
  std::uint64_t notes = 0;
  for (const auto& e : obs::flight_events()) {
    if (e.tag == "stress.flight") ++notes;
  }
  // Quiescent drain: every note within each ring's bound survives.
  EXPECT_EQ(notes, 500u * kThreads);
  obs::reset_flight();
  fs::remove_all(dir);
}

}  // namespace
