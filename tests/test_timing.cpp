/** @file Tests for the execution-time and decoherence models. */

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "analysis/timing.hpp"
#include "qaoa/api.hpp"

namespace qaoa::analysis {
namespace {

using circuit::Circuit;
using circuit::Gate;

TEST(GateDurations, PerClassValues)
{
    GateDurations d;
    EXPECT_DOUBLE_EQ(d.of(Gate::h(0)), 50.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::u3(0, 1, 2, 3)), 50.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::u1(0, 1.0)), 0.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::rz(0, 1.0)), 0.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::cnot(0, 1)), 300.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::cphase(0, 1, 0.5)), 600.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::swap(0, 1)), 900.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::measure(0, 0)), 1000.0);
    EXPECT_DOUBLE_EQ(d.of(Gate::barrier()), 0.0);
}

TEST(ExecutionTime, SequentialSums)
{
    Circuit c(1);
    c.add(Gate::h(0));       // 50
    c.add(Gate::h(0));       // 50
    c.add(Gate::measure(0, 0)); // 1000
    EXPECT_DOUBLE_EQ(executionTimeNs(c), 1100.0);
}

TEST(ExecutionTime, ParallelGatesOverlap)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(2, 3));
    EXPECT_DOUBLE_EQ(executionTimeNs(c), 300.0);
    Circuit serial(3);
    serial.add(Gate::cnot(0, 1));
    serial.add(Gate::cnot(1, 2));
    EXPECT_DOUBLE_EQ(executionTimeNs(serial), 600.0);
}

TEST(ExecutionTime, VirtualGatesAreFree)
{
    Circuit c(1);
    for (int i = 0; i < 100; ++i)
        c.add(Gate::u1(0, 0.1));
    EXPECT_DOUBLE_EQ(executionTimeNs(c), 0.0);
}

TEST(ExecutionTime, BarrierSynchronizes)
{
    Circuit c(2);
    c.add(Gate::h(0)); // 0..50
    c.add(Gate::barrier());
    c.add(Gate::h(1)); // 50..100 after sync
    EXPECT_DOUBLE_EQ(executionTimeNs(c), 100.0);
}

TEST(ExecutionTime, CustomDurations)
{
    GateDurations d;
    d.two_qubit_ns = 100.0;
    Circuit c(2);
    c.add(Gate::cphase(0, 1, 0.3));
    EXPECT_DOUBLE_EQ(executionTimeNs(c, d), 200.0);
}

TEST(Decoherence, IdleQubitsDoNotDecay)
{
    Circuit c(3);
    c.add(Gate::h(0)); // qubits 1, 2 never used
    double f = decoherenceFactor(c, 1000.0);
    EXPECT_NEAR(f, std::exp(-50.0 / 1000.0), 1e-12);
}

TEST(Decoherence, DeeperCircuitsDecayMore)
{
    Circuit shallow(2), deep(2);
    shallow.add(Gate::cnot(0, 1));
    for (int i = 0; i < 10; ++i)
        deep.add(Gate::cnot(0, 1));
    EXPECT_GT(decoherenceFactor(shallow), decoherenceFactor(deep));
}

TEST(Decoherence, RejectsBadT2)
{
    Circuit c(1);
    EXPECT_THROW(decoherenceFactor(c, 0.0), std::runtime_error);
}

TEST(Timing, ShallowCompilationRunsFaster)
{
    // The depth reductions of IC translate to shorter execution time —
    // the §II claim that motivates the whole paper.
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng rng(77);
    double naive_total = 0.0, ic_total = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
        graph::Graph g = graph::randomRegular(14, 4, rng);
        core::QaoaCompileOptions opts;
        opts.seed = static_cast<std::uint64_t>(trial);
        opts.method = core::Method::Naive;
        naive_total += executionTimeNs(
            core::compileQaoaMaxcut(g, tokyo, opts).compiled);
        opts.method = core::Method::Ic;
        ic_total += executionTimeNs(
            core::compileQaoaMaxcut(g, tokyo, opts).compiled);
    }
    EXPECT_LT(ic_total, naive_total);
}

} // namespace
} // namespace qaoa::analysis
