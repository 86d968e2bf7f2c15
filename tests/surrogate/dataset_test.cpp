#include "anb/surrogate/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"

namespace anb {
namespace {

Dataset make_iota(std::size_t n, std::size_t d = 3) {
  Dataset ds(d);
  std::vector<double> x(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < d; ++f)
      x[f] = static_cast<double>(i * d + f);
    ds.add(x, static_cast<double>(i));
  }
  return ds;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset ds(2);
  EXPECT_TRUE(ds.empty());
  ds.add(std::vector<double>{1.0, 2.0}, 3.0);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.num_features(), 2u);
  EXPECT_DOUBLE_EQ(ds.target(0), 3.0);
  EXPECT_DOUBLE_EQ(ds.row(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(ds.feature(0, 0), 1.0);
}

TEST(DatasetTest, BoundsChecked) {
  Dataset ds = make_iota(3);
  EXPECT_THROW(ds.row(3), Error);
  EXPECT_THROW(ds.target(3), Error);
  EXPECT_THROW(ds.feature(0, 9), Error);
  EXPECT_THROW(ds.add(std::vector<double>{1.0}, 0.0), Error);
  EXPECT_THROW(Dataset(0), Error);
}

TEST(DatasetTest, AddRejectsNanFeature) {
  Dataset ds = make_iota(2);
  try {
    ds.add(std::vector<double>{1.0, std::nan(""), 3.0}, 0.0);
    FAIL() << "a NaN feature was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("row 2, column 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ds.size(), 2u);
}

TEST(DatasetTest, SubsetCopiesRows) {
  const Dataset ds = make_iota(5);
  const std::vector<std::size_t> idx{4, 0, 2};
  const Dataset sub = ds.subset(idx);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.target(0), 4.0);
  EXPECT_DOUBLE_EQ(sub.target(1), 0.0);
  EXPECT_DOUBLE_EQ(sub.target(2), 2.0);
}

TEST(DatasetTest, SplitFractionsAndDisjointness) {
  const Dataset ds = make_iota(100);
  Rng rng(1);
  const DatasetSplits splits = ds.split(0.8, 0.1, rng);
  EXPECT_EQ(splits.train.size(), 80u);
  EXPECT_EQ(splits.val.size(), 10u);
  EXPECT_EQ(splits.test.size(), 10u);

  // Targets are unique here, so disjointness is checkable via targets.
  std::set<double> seen;
  for (const auto* part : {&splits.train, &splits.val, &splits.test}) {
    for (std::size_t i = 0; i < part->size(); ++i) {
      EXPECT_TRUE(seen.insert(part->target(i)).second);
    }
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(DatasetTest, SplitDeterministicPerSeed) {
  const Dataset ds = make_iota(50);
  Rng a(9), b(9), c(10);
  const auto sa = ds.split(0.6, 0.2, a);
  const auto sb = ds.split(0.6, 0.2, b);
  const auto sc = ds.split(0.6, 0.2, c);
  EXPECT_EQ(sa.train.target(0), sb.train.target(0));
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.train.size(); ++i)
    any_diff |= sa.train.target(i) != sc.train.target(i);
  EXPECT_TRUE(any_diff);
}

TEST(DatasetTest, SplitValidatesFractions) {
  const Dataset ds = make_iota(10);
  Rng rng(1);
  EXPECT_THROW(ds.split(0.9, 0.2, rng), Error);
  EXPECT_THROW(ds.split(-0.1, 0.2, rng), Error);
  const Dataset tiny = make_iota(2);
  EXPECT_THROW(tiny.split(0.5, 0.25, rng), Error);
}

TEST(DatasetTest, CsvRoundTrip) {
  const Dataset ds = make_iota(7, 4);
  const Dataset back = Dataset::from_csv(ds.to_csv());
  ASSERT_EQ(back.size(), ds.size());
  ASSERT_EQ(back.num_features(), ds.num_features());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.target(i), ds.target(i));
    for (std::size_t f = 0; f < ds.num_features(); ++f)
      EXPECT_DOUBLE_EQ(back.feature(i, f), ds.feature(i, f));
  }
}

TEST(DatasetTest, FromCsvRejectsMalformed) {
  EXPECT_THROW(Dataset::from_csv(""), Error);
  EXPECT_THROW(Dataset::from_csv("f0,target\n"), Error);         // no rows
  EXPECT_THROW(Dataset::from_csv("f0,target\n1\n"), Error);      // ragged
  EXPECT_THROW(Dataset::from_csv("f0,target\n1,abc\n"), Error);  // non-numeric
  EXPECT_THROW(Dataset::from_csv("f0,target\nnan,1\n"), Error);  // NaN feature
}

}  // namespace
}  // namespace anb
