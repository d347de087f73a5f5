/** @file
 * Cross-cutting randomized property tests: invariants that tie several
 * modules together and must hold for every methodology, device and
 * instance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analysis/esp.hpp"
#include "circuit/decompose.hpp"
#include "circuit/layers.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "hardware/devices.hpp"
#include "metrics/approx_ratio.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ip.hpp"
#include "sim/statevector.hpp"

namespace qaoa {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

TEST(Properties, DepthNeverExceedsGateCount)
{
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        Circuit c(6);
        int gates = rng.uniformInt(1, 80);
        for (int i = 0; i < gates; ++i) {
            int a = rng.uniformInt(0, 5), b = rng.uniformInt(0, 5);
            if (a == b)
                c.add(Gate::h(a));
            else
                c.add(Gate::cnot(a, b));
        }
        EXPECT_LE(c.depth(), c.gateCount());
        EXPECT_GE(c.depth(), 1);
    }
}

TEST(Properties, DecomposeGateArithmetic)
{
    // After basis translation: cx = cnot + 2*cphase + 2*cz + 3*swap.
    Rng rng(2);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(5);
        int counts[4] = {0, 0, 0, 0};
        for (int i = 0; i < 40; ++i) {
            int a = rng.uniformInt(0, 4), b = rng.uniformInt(0, 4);
            if (a == b)
                continue;
            switch (rng.uniformInt(0, 3)) {
              case 0:
                c.add(Gate::cnot(a, b));
                ++counts[0];
                break;
              case 1:
                c.add(Gate::cphase(a, b, 0.4));
                ++counts[1];
                break;
              case 2:
                c.add(Gate::cz(a, b));
                ++counts[2];
                break;
              default:
                c.add(Gate::swap(a, b));
                ++counts[3];
                break;
            }
        }
        Circuit basis = circuit::decomposeToBasis(c);
        EXPECT_EQ(basis.countType(GateType::CNOT),
                  counts[0] + 2 * counts[1] + counts[2] + 3 * counts[3]);
    }
}

TEST(Properties, CompiledCnotAccounting)
{
    // For a p-level MaxCut compile (peephole off): every CPHASE costs
    // exactly 2 CNOTs and every routing SWAP exactly 3, so
    //   cx_count == 2 * |E| * p + 3 * swap_count.
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CalibrationData calib(tokyo, 0.02);
    Rng rng(3);
    for (int trial = 0; trial < 4; ++trial) {
        graph::Graph g = graph::erdosRenyi(12, 0.35, rng);
        if (g.numEdges() == 0)
            continue;
        for (core::Method m :
             {core::Method::Naive, core::Method::GreedyV,
              core::Method::Qaim, core::Method::Ip, core::Method::Ic,
              core::Method::Vic}) {
            for (int p : {1, 2}) {
                core::QaoaCompileOptions opts;
                opts.method = m;
                opts.calibration = &calib;
                opts.seed = static_cast<std::uint64_t>(trial);
                opts.gammas.assign(static_cast<std::size_t>(p), 0.7);
                opts.betas.assign(static_cast<std::size_t>(p), 0.35);
                transpiler::CompileResult r =
                    core::compileQaoaMaxcut(g, tokyo, opts);
                EXPECT_EQ(r.report.cx_count,
                          2 * g.numEdges() * p +
                              3 * r.report.swap_count)
                    << core::methodName(m) << " p=" << p;
            }
        }
    }
}

TEST(Properties, SuccessProbabilityMonotoneInGates)
{
    hw::CouplingMap lin = hw::linearDevice(4);
    hw::CalibrationData calib(lin, 0.05, 0.01, 0.02);
    Circuit c(4);
    double last = 1.0;
    Rng rng(4);
    for (int i = 0; i < 30; ++i) {
        int a = rng.uniformInt(0, 2); // coupled neighbor is a+1
        c.add(i % 3 == 0 ? Gate::h(a) : Gate::cnot(a, a + 1));
        double sp = analysis::estimateEsp(c, calib).total;
        EXPECT_LT(sp, last);
        last = sp;
    }
}

TEST(Properties, IpPreservesWeights)
{
    Rng inst_rng(5);
    graph::Graph g(8);
    Rng wrng(6);
    for (int u = 0; u < 8; ++u)
        for (int v = u + 1; v < 8; ++v)
            if (wrng.bernoulli(0.4))
                g.addEdge(u, v, wrng.uniformReal(0.5, 2.0));
    std::vector<core::ZZOp> ops = core::costOperations(g);
    Rng rng(7);
    core::IpResult r = core::ipOrder(ops, 8, rng);
    // Multiset of weights survives the re-ordering.
    std::multiset<double> before, after;
    for (const auto &op : ops)
        before.insert(op.weight);
    for (const auto &op : r.order)
        after.insert(op.weight);
    EXPECT_EQ(before, after);
}

TEST(Properties, CompiledAnglesMatchProblemWeights)
{
    // CPHASE angles in the physical circuit are exactly gamma * w(e),
    // one per edge, for every method (peephole off, no decompose).
    graph::Graph g(5);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 2.0);
    g.addEdge(2, 3, 0.5);
    g.addEdge(3, 4, 1.5);
    g.addEdge(0, 4, 0.25);
    hw::CouplingMap grid = hw::gridDevice(2, 3);
    hw::CalibrationData calib(grid, 0.02);
    const double gamma = 0.8;
    std::multiset<double> expected;
    for (const auto &e : g.edges())
        expected.insert(gamma * e.weight);
    for (core::Method m : {core::Method::Qaim, core::Method::Ip,
                           core::Method::Ic, core::Method::Vic}) {
        core::QaoaCompileOptions opts;
        opts.method = m;
        opts.calibration = &calib;
        opts.gammas = {gamma};
        opts.betas = {0.4};
        opts.decompose_to_basis = false;
        transpiler::CompileResult r =
            core::compileQaoaMaxcut(g, grid, opts);
        std::multiset<double> got;
        for (const auto &gate : r.compiled.gates())
            if (gate.type == GateType::CPHASE)
                got.insert(gate.params[0]);
        EXPECT_EQ(got, expected) << core::methodName(m);
    }
}

TEST(Properties, ShotsConservedEverywhere)
{
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::cnot(0, 1));
    c.add(Gate::measure(0, 0));
    c.add(Gate::measure(1, 1));
    Rng rng(8);
    for (std::uint64_t shots : {1ULL, 17ULL, 1000ULL}) {
        sim::Counts counts = sim::runAndSample(c, shots, rng);
        std::uint64_t total = 0;
        for (const auto &[bits, n] : counts)
            total += n;
        EXPECT_EQ(total, shots);
    }
}

TEST(Properties, LayerBarriersPreserveSemanticsAndLayering)
{
    Rng rng(9);
    for (int trial = 0; trial < 8; ++trial) {
        Circuit c(5);
        for (int i = 0; i < 30; ++i) {
            int a = rng.uniformInt(0, 4), b = rng.uniformInt(0, 4);
            if (a == b)
                c.add(Gate::rx(a, 0.3));
            else
                c.add(Gate::cphase(a, b, 0.5));
        }
        Circuit layered = circuit::withLayerBarriers(c);
        EXPECT_EQ(layered.gateCount(), c.gateCount());
        EXPECT_EQ(layered.depth(), c.depth());
        EXPECT_EQ(circuit::layerCount(layered), circuit::layerCount(c));
        sim::Statevector sa(5), sb(5);
        sa.apply(c);
        sb.apply(layered);
        EXPECT_NEAR(sa.overlap(sb), 1.0, 1e-9);
    }
}

TEST(Properties, DeterministicCompilationAcrossDevices)
{
    Rng inst_rng(10);
    graph::Graph g = graph::randomRegular(10, 3, inst_rng);
    for (int kind = 0; kind < 3; ++kind) {
        hw::CouplingMap map = kind == 0   ? hw::ibmqPoughkeepsie20()
                              : kind == 1 ? hw::heavyHexFalcon27()
                                          : hw::gridDevice(4, 4);
        core::QaoaCompileOptions opts;
        opts.method = core::Method::Ic;
        opts.seed = 77;
        transpiler::CompileResult a = core::compileQaoaMaxcut(g, map,
                                                              opts);
        transpiler::CompileResult b = core::compileQaoaMaxcut(g, map,
                                                              opts);
        EXPECT_EQ(a.report.depth, b.report.depth) << map.name();
        EXPECT_EQ(a.report.gate_count, b.report.gate_count);
        EXPECT_EQ(a.final_layout, b.final_layout);
    }
}

TEST(Properties, ApproximationRatioOfOptimalSamplesIsOne)
{
    Rng rng(11);
    graph::Graph g = graph::erdosRenyi(8, 0.5, rng);
    graph::MaxCutResult best = graph::maxCutBruteForce(g);
    if (best.value == 0.0)
        return;
    sim::Counts counts;
    counts[best.assignment] = 100;
    EXPECT_NEAR(metrics::approximationRatio(g, counts, best.value), 1.0,
                1e-12);
    EXPECT_NEAR(metrics::approximationRatioGap(1.0, 1.0), 0.0, 1e-12);
}

TEST(Properties, ExpectedCutBoundedByOptimum)
{
    Rng rng(12);
    for (int trial = 0; trial < 5; ++trial) {
        graph::Graph g = graph::erdosRenyi(8, 0.5, rng);
        if (g.numEdges() == 0)
            continue;
        double optimum = graph::maxCutBruteForce(g).value;
        double e = metrics::exactExpectedCut(
            g, {rng.uniformReal(0, 3)}, {rng.uniformReal(0, 1.5)});
        EXPECT_GE(e, 0.0);
        EXPECT_LE(e, optimum + 1e-9);
    }
}

} // namespace
} // namespace qaoa
