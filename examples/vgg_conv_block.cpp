// Accelerate a VGG-19-style convolution block through the im2col lowering —
// the direction the paper's introduction points at (conv layers are also
// matmul-bottlenecked, refs [9,11]). Times forward+backward of one conv layer
// with an APA backend against classical.
//
// The im2col gemm is heavily rectangular (rows = batch*pixels, cols = a few
// hundred), so whether an APA step pays depends on the machine's compute/
// bandwidth balance. Next to the measured times the example prints the
// calibrated cost model's verdict for the forward gemm (paper section 2.4) —
// the same prediction tune::TunedBackend uses as its explore prior.
//
//   ./vgg_conv_block [--algo=fast444] [--batch=8] [--channels=64] [--hw=56]

#include <cstdio>
#include <vector>

#include "nn/conv.h"
#include "support/cli.h"
#include "support/timer.h"
#include "tune/calibrate.h"

int main(int argc, char** argv) {
  using namespace apa;
  const CliArgs args(argc, argv);
  const std::string algo = args.get("algo", "fast444");
  const index_t batch = args.get_int("batch", 8);

  nn::ConvShape shape;
  shape.in_channels = args.get_int("channels", 64);
  shape.out_channels = shape.in_channels * 2;  // VGG stage transition
  shape.in_height = args.get_int("hw", 56);
  shape.in_width = shape.in_height;

  const index_t gemm_m = batch * shape.out_height() * shape.out_width();
  std::printf("conv %ldx%ldx%ld -> %ld channels, 3x3, batch %ld\n",
              static_cast<long>(shape.in_channels), static_cast<long>(shape.in_height),
              static_cast<long>(shape.in_width), static_cast<long>(shape.out_channels),
              static_cast<long>(batch));
  std::printf("im2col gemm: (%ld x %ld) * (%ld x %ld)\n\n", static_cast<long>(gemm_m),
              static_cast<long>(shape.patch_size()), static_cast<long>(shape.patch_size()),
              static_cast<long>(shape.out_channels));

  Rng rng(1);
  Matrix<float> x(batch, shape.in_size());
  fill_random_uniform<float>(x.view(), rng, 0.0f, 1.0f);
  Matrix<float> y(batch, shape.out_size());
  Matrix<float> dx(batch, shape.in_size());
  MatrixView<float> dx_view = dx.view();

  const tune::CostCalibration cost = tune::calibrate();
  double classical_seconds = 0;

  for (const std::string& name : std::vector<std::string>{"classical", algo}) {
    Rng layer_rng(2);
    nn::ConvLayer layer(shape, layer_rng);
    const nn::MatmulBackend backend(name);
    const auto* fast =
        backend.dispatch_for(gemm_m, shape.patch_size(), shape.out_channels);
    if (fast != nullptr) {
      const double apa = cost.predict_apa_seconds(fast->rule(), gemm_m,
                                                  shape.patch_size(),
                                                  shape.out_channels);
      const double gemm = cost.predict_classical_seconds(
          gemm_m, shape.patch_size(), shape.out_channels);
      std::printf("cost model for the forward gemm: %.2e s APA vs %.2e s gemm "
                  "(%s)\n",
                  apa, gemm, apa < gemm ? "predicted profitable"
                                        : "predicted unprofitable");
    } else if (name != "classical") {
      std::printf("forward gemm is below the fast cutoff: classical gemm\n");
    }
    // One warm + two timed forward/backward passes, keep the fastest.
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      layer.forward(x.view().as_const(), y.view(), backend);
      layer.backward(x.view().as_const(), y.view().as_const(), &dx_view, backend);
      if (rep > 0) best = std::min(best, timer.seconds());
    }
    if (name == "classical") {
      classical_seconds = best;
      std::printf("%-10s %.4f s/step\n", name.c_str(), best);
    } else {
      std::printf("%-10s %.4f s/step (%.1f%% speedup)\n", name.c_str(), best,
                  100.0 * (classical_seconds / best - 1.0));
    }
  }
  return 0;
}
