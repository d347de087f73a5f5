/** @file Tests for the success-probability metric (§II): analysis/esp. */

#include <gtest/gtest.h>

#include "hardware/devices.hpp"
#include "analysis/esp.hpp"

namespace qaoa::analysis {
namespace {

using circuit::Circuit;
using circuit::Gate;

TEST(GateError, CostModel)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    hw::CalibrationData calib(lin, 0.1, 0.01, 0.05);

    EXPECT_DOUBLE_EQ(gateErrorRate(Gate::u1(0, 0.3), calib), 0.0);
    EXPECT_DOUBLE_EQ(gateErrorRate(Gate::barrier(), calib), 0.0);
    EXPECT_DOUBLE_EQ(gateErrorRate(Gate::u2(1, 0.1, 0.2), calib), 0.01);
    EXPECT_DOUBLE_EQ(gateErrorRate(Gate::h(2), calib), 0.01);
    EXPECT_DOUBLE_EQ(gateErrorRate(Gate::cnot(0, 1), calib), 0.1);
    EXPECT_NEAR(gateErrorRate(Gate::cphase(0, 1, 0.5), calib),
                1.0 - 0.9 * 0.9, 1e-12);
    EXPECT_NEAR(gateErrorRate(Gate::swap(1, 2), calib),
                1.0 - 0.9 * 0.9 * 0.9, 1e-12);
    EXPECT_DOUBLE_EQ(gateErrorRate(Gate::measure(1, 1), calib), 0.05);
}

TEST(SuccessProbability, ProductFormula)
{
    hw::CouplingMap lin = hw::linearDevice(2);
    hw::CalibrationData calib(lin, 0.1, 0.01, 0.05);
    Circuit c(2);
    c.add(Gate::h(0));        // 0.99
    c.add(Gate::cnot(0, 1));  // 0.90
    c.add(Gate::measure(0, 0)); // 0.95
    EXPECT_NEAR(estimateEsp(c, calib).total, 0.99 * 0.90 * 0.95, 1e-12);
}

TEST(SuccessProbability, EmptyCircuitIsCertain)
{
    hw::CouplingMap lin = hw::linearDevice(2);
    hw::CalibrationData calib(lin);
    EXPECT_DOUBLE_EQ(estimateEsp(Circuit(2), calib).total, 1.0);
}

TEST(SuccessProbability, MoreGatesLowerSuccess)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    hw::CalibrationData calib(lin, 0.05, 0.005, 0.02);
    Circuit small(3), large(3);
    for (int i = 0; i < 3; ++i)
        small.add(Gate::cnot(0, 1));
    for (int i = 0; i < 10; ++i)
        large.add(Gate::cnot(0, 1));
    EXPECT_GT(estimateEsp(small, calib).total,
              estimateEsp(large, calib).total);
}

TEST(SuccessProbability, ReliableEdgesBeatUnreliable)
{
    // Same circuit shape, different edge quality — the VIC motivation.
    hw::CouplingMap lin = hw::linearDevice(3);
    hw::CalibrationData calib(lin, 0.02);
    calib.setCnotError(1, 2, 0.2);
    Circuit good(3), bad(3);
    good.add(Gate::cphase(0, 1, 0.5));
    bad.add(Gate::cphase(1, 2, 0.5));
    EXPECT_GT(estimateEsp(good, calib).total,
              estimateEsp(bad, calib).total);
}

TEST(SuccessProbability, U1sAreFree)
{
    hw::CouplingMap lin = hw::linearDevice(2);
    hw::CalibrationData calib(lin, 0.1, 0.05, 0.1);
    Circuit c(2);
    for (int i = 0; i < 50; ++i)
        c.add(Gate::u1(0, 0.1));
    EXPECT_DOUBLE_EQ(estimateEsp(c, calib).total, 1.0);
}

} // namespace
} // namespace qaoa::analysis
