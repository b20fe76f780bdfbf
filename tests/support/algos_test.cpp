#include "benchutil/algos.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/registry.h"

namespace apa::bench {
namespace {

TEST(ResolveAlgorithms, AllIncludesClassicalAndEveryRegistryEntry) {
  const auto algos = resolve_algorithms({"all"});
  EXPECT_EQ(algos.front(), "classical");
  EXPECT_EQ(algos.size(), core::list_algorithms().size() + 1);
}

TEST(ResolveAlgorithms, ApaFilterExcludesExactRules) {
  const auto algos = resolve_algorithms({"apa"});
  EXPECT_EQ(std::count(algos.begin(), algos.end(), "strassen"), 0);
  EXPECT_EQ(std::count(algos.begin(), algos.end(), "fast444"), 0);
  EXPECT_EQ(std::count(algos.begin(), algos.end(), "bini322"), 1);
}

TEST(ResolveAlgorithms, ExactFilterExcludesApaRules) {
  const auto algos = resolve_algorithms({"exact"});
  EXPECT_EQ(std::count(algos.begin(), algos.end(), "bini322"), 0);
  EXPECT_EQ(std::count(algos.begin(), algos.end(), "fast444"), 1);
}

TEST(ResolveAlgorithms, ExplicitListPreservedInOrder) {
  const auto algos = resolve_algorithms({"classical", "fast442"});
  ASSERT_EQ(algos.size(), 2u);
  EXPECT_EQ(algos[0], "classical");
  EXPECT_EQ(algos[1], "fast442");
}

TEST(ResolveAlgorithms, UnknownNameThrows) {
  EXPECT_THROW((void)resolve_algorithms({"classical", "nope"}), std::logic_error);
}

TEST(WithClassicalFirst, MovesOrAddsTheBaselineToTheFront) {
  using List = std::vector<std::string>;
  EXPECT_EQ(with_classical_first({"strassen", "classical", "bini322"}),
            (List{"classical", "strassen", "bini322"}));
  EXPECT_EQ(with_classical_first({"bini322"}), (List{"classical", "bini322"}));
  EXPECT_EQ(with_classical_first({"classical"}), List{"classical"});
}

}  // namespace
}  // namespace apa::bench
