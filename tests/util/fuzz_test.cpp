// Randomized differential tests: library containers vs STL references.
#include <gtest/gtest.h>

#include <vector>

#include "util/args.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace lcrb {
namespace {

class BitsetFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitsetFuzzTest, MatchesVectorBoolReference) {
  Rng rng(GetParam());
  const std::size_t n = 257;  // crosses word boundaries awkwardly
  DynamicBitset bs(n);
  std::vector<bool> ref(n, false);

  for (int op = 0; op < 2000; ++op) {
    const std::size_t i = rng.next_below(n);
    switch (rng.next_below(4)) {
      case 0:
        bs.set(i);
        ref[i] = true;
        break;
      case 1:
        bs.clear(i);
        ref[i] = false;
        break;
      case 2: {
        const bool was_clear = !ref[i];
        EXPECT_EQ(bs.set_if_clear(i), was_clear);
        ref[i] = true;
        break;
      }
      case 3:
        EXPECT_EQ(bs.test(i), ref[i]) << "bit " << i;
        break;
    }
  }
  std::size_t ref_count = 0;
  for (bool b : ref) ref_count += b;
  EXPECT_EQ(bs.count(), ref_count);
  const auto idx = bs.to_indices();
  ASSERT_EQ(idx.size(), ref_count);
  for (auto i : idx) EXPECT_TRUE(ref[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ArgsEdgeCases, NegativeNumbersAsValues) {
  Args a({"--delta", "-5", "--rate", "-0.25"});
  EXPECT_EQ(a.get_int("delta", 0), -5);
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0), -0.25);
}

TEST(ArgsEdgeCases, EmptyValueViaEquals) {
  Args a({"--name="});
  EXPECT_TRUE(a.has("name"));
  EXPECT_EQ(a.get_string("name", "def"), "");
}

TEST(ArgsEdgeCases, RepeatedFlagLastWins) {
  Args a({"--k", "1", "--k", "2"});
  EXPECT_EQ(a.get_int("k", 0), 2);
}

}  // namespace
}  // namespace lcrb
