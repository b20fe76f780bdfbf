#include "data/synthetic_mnist.h"

#include <gtest/gtest.h>

#include <set>

namespace apa::data {
namespace {

SyntheticMnistOptions tiny() {
  SyntheticMnistOptions o;
  o.train_size = 500;
  o.test_size = 100;
  return o;
}

TEST(RenderDigit, CanvasInUnitRangeAndNonEmpty) {
  Matrix<float> canvas(kImageSide, kImageSide);
  for (int digit = 0; digit < kNumClasses; ++digit) {
    render_digit(digit, canvas.view());
    double mass = 0;
    for (float v : canvas.span()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      mass += v;
    }
    EXPECT_GT(mass, 20.0) << "digit " << digit << " glyph too sparse";
  }
}

TEST(RenderDigit, DigitsAreDistinct) {
  Matrix<float> a(kImageSide, kImageSide), b(kImageSide, kImageSide);
  for (int i = 0; i < kNumClasses; ++i) {
    for (int j = i + 1; j < kNumClasses; ++j) {
      render_digit(i, a.view());
      render_digit(j, b.view());
      EXPECT_GT(max_abs_diff(a.view(), b.view()), 0.5)
          << "digits " << i << " and " << j << " render identically";
    }
  }
}

TEST(RenderDigit, EightIsSupersetOfZero) {
  // Sanity on the seven-segment table: 8 lights every segment of 0.
  Matrix<float> zero(kImageSide, kImageSide), eight(kImageSide, kImageSide);
  render_digit(0, zero.view());
  render_digit(8, eight.view());
  for (index_t i = 0; i < kImageSide; ++i) {
    for (index_t j = 0; j < kImageSide; ++j) {
      if (zero(i, j) > 0) {
        EXPECT_GT(eight(i, j), 0.0f);
      }
    }
  }
}

TEST(RenderDigit, InvalidDigitThrows) {
  Matrix<float> canvas(kImageSide, kImageSide);
  EXPECT_THROW(render_digit(10, canvas.view()), std::logic_error);
  EXPECT_THROW(render_digit(-1, canvas.view()), std::logic_error);
}

TEST(SyntheticMnist, ShapesAndRanges) {
  const auto splits = make_synthetic_mnist(tiny());
  EXPECT_EQ(splits.train.size(), 500);
  EXPECT_EQ(splits.test.size(), 100);
  EXPECT_EQ(splits.train.features(), kImagePixels);
  for (float v : splits.train.images.span()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(SyntheticMnist, AllClassesPresent) {
  const auto splits = make_synthetic_mnist(tiny());
  std::set<int> seen(splits.train.labels.begin(), splits.train.labels.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumClasses));
  for (int label : splits.train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, kNumClasses);
  }
}

TEST(SyntheticMnist, DeterministicForSeed) {
  const auto a = make_synthetic_mnist(tiny());
  const auto b = make_synthetic_mnist(tiny());
  EXPECT_EQ(a.train.labels, b.train.labels);
  EXPECT_EQ(max_abs_diff(a.train.images.view(), b.train.images.view()), 0.0);
}

TEST(SyntheticMnist, DifferentSeedsDiffer) {
  auto opts = tiny();
  const auto a = make_synthetic_mnist(opts);
  opts.seed = 999;
  const auto b = make_synthetic_mnist(opts);
  EXPECT_GT(max_abs_diff(a.train.images.view(), b.train.images.view()), 0.1);
}

TEST(SyntheticMnist, SamplesOfSameClassVary) {
  auto opts = tiny();
  opts.train_size = 2000;
  const auto splits = make_synthetic_mnist(opts);
  // Find two samples of digit 3 and check jitter/noise made them differ.
  index_t first = -1, second = -1;
  for (index_t i = 0; i < splits.train.size(); ++i) {
    if (splits.train.labels[static_cast<std::size_t>(i)] == 3) {
      if (first < 0) {
        first = i;
      } else {
        second = i;
        break;
      }
    }
  }
  ASSERT_GE(second, 0);
  EXPECT_GT(max_abs_diff(
                splits.train.images.view().block(first, 0, 1, kImagePixels),
                splits.train.images.view().block(second, 0, 1, kImagePixels)),
            0.05);
}

TEST(Dataset, ShuffleKeepsImageLabelPairsTogether) {
  auto splits = make_synthetic_mnist(tiny());
  // Tag: digit glyphs are distinguishable, so verify a sample still matches
  // its label's clean glyph better than any other after shuffling.
  Rng rng(77);
  const auto before_labels = splits.train.labels;
  shuffle(splits.train, rng);
  // Same multiset of labels.
  auto sorted_before = before_labels;
  auto sorted_after = splits.train.labels;
  std::sort(sorted_before.begin(), sorted_before.end());
  std::sort(sorted_after.begin(), sorted_after.end());
  EXPECT_EQ(sorted_before, sorted_after);
  // Order actually changed.
  EXPECT_NE(before_labels, splits.train.labels);
}

TEST(Dataset, BatchViewsAreViews) {
  auto splits = make_synthetic_mnist(tiny());
  const auto batch = splits.train.batch_images(10, 5);
  EXPECT_EQ(batch.rows, 5);
  EXPECT_EQ(batch.cols, kImagePixels);
  EXPECT_EQ(batch.data, &splits.train.images(10, 0));
  const auto labels = splits.train.batch_labels(10, 5);
  EXPECT_EQ(labels.size(), 5u);
  EXPECT_EQ(labels[0], splits.train.labels[10]);
}

}  // namespace
}  // namespace apa::data
