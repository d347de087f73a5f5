/** @file Tests for approximation ratio, ARG, and the evaluation harness. */

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "graph/maxcut.hpp"
#include "hardware/devices.hpp"
#include "metrics/approx_ratio.hpp"
#include "metrics/harness.hpp"

namespace qaoa::metrics {
namespace {

TEST(ApproxRatio, ExpectedCutValue)
{
    graph::Graph g(2);
    g.addEdge(0, 1);
    sim::Counts counts;
    counts[0b01] = 30; // cut = 1
    counts[0b00] = 10; // cut = 0
    EXPECT_DOUBLE_EQ(expectedCutValue(g, counts), 0.75);
}

TEST(ApproxRatio, RatioAgainstOptimum)
{
    graph::Graph g = graph::cycleGraph(3);
    sim::Counts counts;
    counts[0b001] = 50; // cut = 2 (optimal for a triangle)
    counts[0b000] = 50; // cut = 0
    double opt = graph::maxCutBruteForce(g).value;
    EXPECT_DOUBLE_EQ(approximationRatio(g, counts, opt), 0.5);
}

TEST(ApproxRatio, EmptyCountsRejected)
{
    graph::Graph g(2);
    g.addEdge(0, 1);
    EXPECT_THROW(expectedCutValue(g, {}), std::runtime_error);
}

TEST(Arg, GapFormula)
{
    EXPECT_DOUBLE_EQ(approximationRatioGap(0.8, 0.6), 25.0);
    EXPECT_DOUBLE_EQ(approximationRatioGap(0.8, 0.8), 0.0);
    // Hardware better than sim gives a negative gap.
    EXPECT_LT(approximationRatioGap(0.8, 0.9), 0.0);
    EXPECT_THROW(approximationRatioGap(0.0, 0.5), std::runtime_error);
}

TEST(Harness, InstanceGeneratorsRespectShape)
{
    auto ers = erdosRenyiInstances(10, 0.5, 5, 3);
    ASSERT_EQ(ers.size(), 5u);
    for (const auto &g : ers) {
        EXPECT_EQ(g.numNodes(), 10);
        EXPECT_TRUE(g.isConnected());
        EXPECT_GE(g.numEdges(), 1);
    }
    auto regs = regularInstances(12, 3, 4, 3);
    ASSERT_EQ(regs.size(), 4u);
    for (const auto &g : regs)
        for (int u = 0; u < 12; ++u)
            EXPECT_EQ(g.degree(u), 3);
}

TEST(Harness, InstanceGeneratorsDeterministic)
{
    auto a = erdosRenyiInstances(8, 0.4, 3, 99);
    auto b = erdosRenyiInstances(8, 0.4, 3, 99);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(a[i].numEdges(), b[i].numEdges());
}

TEST(Harness, Fig11PoolIsSixErAndSixRegularClasses)
{
    const int n = 12, count = 2;
    const std::uint64_t seed = 40;
    auto pool = fig11Instances(n, count, seed);
    ASSERT_EQ(pool.size(), 12u * count);
    auto er3 = erdosRenyiInstances(n, 0.1 + 0.1 * 3, count, seed + 3);
    auto reg5 = regularInstances(n, 5, count, seed + 105);
    for (int i = 0; i < count; ++i) {
        EXPECT_EQ(pool[3 * count + i].edges(), er3[i].edges());
        EXPECT_EQ(pool[(6 + 5 - 3) * count + i].edges(), reg5[i].edges());
    }
    for (const auto &g : pool)
        EXPECT_EQ(g.numNodes(), n);
}

TEST(Harness, CompileSeriesShapes)
{
    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    auto instances = regularInstances(8, 3, 3, 7);
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    MetricSeries s = compileSeries(instances, melbourne, opts);
    EXPECT_EQ(s.depth.size(), 3u);
    EXPECT_EQ(s.gate_count.size(), 3u);
    EXPECT_EQ(s.compile_seconds.size(), 3u);
    for (double d : s.depth)
        EXPECT_GT(d, 0.0);
}

TEST(Harness, CompileSeriesIdenticalAcrossThreadCounts)
{
    // Per-instance seeds are forked in serial order before the fan-out,
    // so every deterministic metric must be bit-identical whether the
    // instances compile on 1 thread or 8.
    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    auto instances = regularInstances(8, 3, 6, 11);
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;

    par::setThreadCount(1);
    MetricSeries serial = compileSeries(instances, melbourne, opts);
    par::setThreadCount(8);
    MetricSeries parallel = compileSeries(instances, melbourne, opts);
    par::setThreadCount(0);

    ASSERT_EQ(serial.depth.size(), parallel.depth.size());
    for (std::size_t i = 0; i < serial.depth.size(); ++i) {
        EXPECT_EQ(serial.depth[i], parallel.depth[i]) << i;
        EXPECT_EQ(serial.gate_count[i], parallel.gate_count[i]) << i;
        EXPECT_EQ(serial.swap_count[i], parallel.swap_count[i]) << i;
    }
}

TEST(Harness, ExactExpectedCutMatchesUniformAtZeroAngles)
{
    // γ = β = 0: the circuit is H^n, a uniform superposition; the
    // expected cut of a uniform random assignment is |E| / 2.
    graph::Graph g = graph::cycleGraph(4);
    double e = exactExpectedCut(g, {0.0}, {0.0});
    EXPECT_NEAR(e, 2.0, 1e-9);
}

TEST(Harness, OptimizeP1BeatsRandomGuessing)
{
    graph::Graph g = graph::cycleGraph(3);
    P1Parameters p = optimizeP1(g);
    double optimum = graph::maxCutBruteForce(g).value;
    double ratio = p.expected_cut / optimum;
    // p=1 QAOA on a triangle must clearly beat the 0.5 uniform baseline;
    // Farhi's 3-regular bound is 0.6924.
    EXPECT_GT(ratio, 0.69);
    EXPECT_LE(ratio, 1.0 + 1e-9);
    // The reported value is consistent with re-evaluating the angles.
    EXPECT_NEAR(exactExpectedCut(g, {p.gamma}, {p.beta}),
                p.expected_cut, 1e-9);
}

TEST(Harness, OptimizeP1OnBipartiteGraphGetsHighRatio)
{
    // Even cycles are fully cuttable; p=1 QAOA reaches a decent ratio.
    graph::Graph g = graph::cycleGraph(4);
    P1Parameters p = optimizeP1(g);
    EXPECT_GT(p.expected_cut / 4.0, 0.70);
}

} // namespace
} // namespace qaoa::metrics
