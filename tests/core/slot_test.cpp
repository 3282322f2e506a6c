#include "core/slot.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace graphsd::core {
namespace {

TEST(Slot, DoubleRoundTrip) {
  for (double v : {0.0, 1.0, -3.5, 1e-300, std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(SlotToDouble(SlotFromDouble(v)), v);
  }
}

TEST(MinDouble, LowersAndReports) {
  Slot slot = SlotFromDouble(10.0);
  EXPECT_TRUE(MinDouble(&slot, 5.0));
  EXPECT_EQ(SlotToDouble(slot), 5.0);
  EXPECT_FALSE(MinDouble(&slot, 7.0));
  EXPECT_EQ(SlotToDouble(slot), 5.0);
  EXPECT_FALSE(MinDouble(&slot, 5.0));  // equal is not a lowering
}

TEST(MinDouble, HandlesInfinity) {
  Slot slot = SlotFromDouble(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(MinDouble(&slot, 1e308));
  EXPECT_EQ(SlotToDouble(slot), 1e308);
}

TEST(MinDouble, NaNNeverLowers) {
  Slot slot = SlotFromDouble(3.0);
  EXPECT_FALSE(MinDouble(&slot, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(SlotToDouble(slot), 3.0);
}

TEST(MaxDouble, RaisesAndReports) {
  Slot slot = SlotFromDouble(0.0);
  EXPECT_TRUE(MaxDouble(&slot, 2.5));
  EXPECT_EQ(SlotToDouble(slot), 2.5);
  EXPECT_FALSE(MaxDouble(&slot, 1.0));
  EXPECT_FALSE(MaxDouble(&slot, 2.5));  // equal is not a raise
  EXPECT_FALSE(MaxDouble(&slot, std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(SlotToDouble(slot), 2.5);
}

TEST(MinU64, LowersAndReports) {
  Slot slot = 100;
  EXPECT_TRUE(MinU64(&slot, 7));
  EXPECT_EQ(slot, 7u);
  EXPECT_FALSE(MinU64(&slot, 9));
  EXPECT_FALSE(MinU64(&slot, 7));
}

TEST(AddDouble, ReturnsNewValue) {
  Slot slot = SlotFromDouble(1.5);
  EXPECT_DOUBLE_EQ(AddDouble(&slot, 2.5), 4.0);
  EXPECT_DOUBLE_EQ(SlotToDouble(slot), 4.0);
}

}  // namespace
}  // namespace graphsd::core
