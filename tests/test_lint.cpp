/** @file
 * Tests for the QL rule engine: every rule fires on a seeded corruption,
 * healthy compiles stay clean, and the analyzer ESP reproduces the
 * paper's Fig. 11 method ranking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numbers>
#include <string>
#include <vector>

#include "analysis/budget.hpp"
#include "analysis/lint.hpp"
#include "analysis/quality.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"

namespace qaoa::analysis {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

TEST(LintRules, Ql101MergeableRz)
{
    Circuit c(1);
    c.add(Gate::rz(0, 0.3));
    c.add(Gate::rz(0, 0.4));
    EXPECT_GE(lintCircuit(c).count(Rule::MergeableRz), 1);
}

TEST(LintRules, Ql102MergeableCphase)
{
    Circuit c(2);
    c.add(Gate::cphase(0, 1, 0.3));
    c.add(Gate::cphase(1, 0, 0.4)); // operand order is irrelevant
    EXPECT_GE(lintCircuit(c).count(Rule::MergeableCphase), 1);
}

TEST(LintRules, Ql103CancellingCnot)
{
    Circuit c(2);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(0, 1));
    EXPECT_GE(lintCircuit(c).count(Rule::CancellingCnot), 1);
    // Reversed orientation does NOT cancel.
    Circuit d(2);
    d.add(Gate::cnot(0, 1));
    d.add(Gate::cnot(1, 0));
    EXPECT_EQ(lintCircuit(d).count(Rule::CancellingCnot), 0);
}

TEST(LintRules, Ql104CancellingSwapIsInfo)
{
    Circuit c(2);
    c.add(Gate::swap(0, 1));
    c.add(Gate::swap(1, 0));
    LintReport r = lintCircuit(c);
    EXPECT_GE(r.count(Rule::CancellingSwap), 1);
    // Advisory only: the stock router emits these on sparse devices.
    EXPECT_EQ(Rule::CancellingSwap.severity, Severity::Info);
}

TEST(LintRules, Ql105TrailingSwap)
{
    Circuit c(2);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::swap(0, 1));
    c.add(Gate::h(0));
    c.add(Gate::measure(0, 0));
    c.add(Gate::measure(1, 1));
    EXPECT_GE(lintCircuit(c).count(Rule::TrailingSwap), 1);
    // A later two-qubit gate justifies the swap.
    Circuit d(2);
    d.add(Gate::swap(0, 1));
    d.add(Gate::cnot(0, 1));
    EXPECT_EQ(lintCircuit(d).count(Rule::TrailingSwap), 0);
}

TEST(LintRules, Ql106RedundantHadamard)
{
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::h(0));
    EXPECT_GE(lintCircuit(c).count(Rule::RedundantHadamard), 1);
}

TEST(LintRules, Ql107ZeroRotation)
{
    Circuit c(2);
    c.add(Gate::rz(0, 0.0));
    c.add(Gate::cphase(0, 1, 2.0 * std::numbers::pi)); // 0 mod 2pi
    EXPECT_GE(lintCircuit(c).count(Rule::ZeroRotation), 2);
    Circuit d(1);
    d.add(Gate::rz(0, 0.5));
    EXPECT_EQ(lintCircuit(d).count(Rule::ZeroRotation), 0);
}

TEST(LintRules, Ql108UnreliableEdge)
{
    // Find a triangle a-b-c in tokyo, make the direct edge terrible and
    // the detour excellent.
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    int a = -1, b = -1;
    for (int q = 0; q < tokyo.numQubits() && a < 0; ++q)
        for (int n1 : tokyo.neighbors(q))
            for (int n2 : tokyo.neighbors(n1))
                if (n2 != q && tokyo.coupled(n2, q)) {
                    a = q;
                    b = n1;
                    break;
                }
    ASSERT_GE(a, 0) << "tokyo has triangles";
    hw::CalibrationData calib(tokyo, 1.0e-3);
    calib.setCnotError(a, b, 0.4);

    Circuit c(tokyo.numQubits());
    c.add(Gate::cnot(a, b));
    LintOptions opts;
    opts.map = &tokyo;
    opts.calibration = &calib;
    EXPECT_GE(lintCircuit(c, opts).count(Rule::UnreliableEdge), 1);

    calib.setCnotError(a, b, 1.0e-3); // healthy edge: no finding
    EXPECT_EQ(lintCircuit(c, opts).count(Rule::UnreliableEdge), 0);
}

TEST(LintRules, Ql109LongIdleWindow)
{
    // Qubit 0 idles out three serial CNOT pairs; with a tiny T2 the gap
    // exceeds the 2% idle budget.
    Circuit c(3);
    c.add(Gate::h(0));
    c.add(Gate::cnot(1, 2));
    c.add(Gate::cnot(2, 1));
    c.add(Gate::barrier());
    c.add(Gate::h(0));
    LintOptions opts;
    opts.t2_ns = 5000.0; // budget = 100 ns < 550 ns gap
    EXPECT_GE(lintCircuit(c, opts).count(Rule::LongIdleWindow), 1);
}

TEST(LintRules, Ql110DecoherenceExposure)
{
    Circuit c(2);
    for (int i = 0; i < 4; ++i) {
        c.add(Gate::cnot(0, 1));
        c.add(Gate::h(0));
    }
    LintOptions opts;
    opts.t2_ns = 4000.0; // budget = 1000 ns < 1400 ns window
    EXPECT_GE(lintCircuit(c, opts).count(Rule::DecoherenceExposure), 1);
}

TEST(LintRules, Ql111CrosstalkClash)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(2, 3));
    LintOptions opts;
    opts.crosstalk_pairs = {{{0, 1}, {2, 3}}};
    EXPECT_EQ(lintCircuit(c, opts).count(Rule::CrosstalkClash), 1);
}

TEST(LintRules, Ql112DepthHotspot)
{
    // One qubit carries a 12-gate chain; the rest barely act.
    Circuit c(4);
    for (int i = 0; i < 12; ++i)
        c.add(Gate::rx(0, 0.1 + 0.01 * i));
    c.add(Gate::h(1));
    c.add(Gate::h(2));
    c.add(Gate::h(3));
    EXPECT_GE(lintCircuit(c).count(Rule::DepthHotspot), 1);
}

TEST(LintRules, Ql113LowParallelism)
{
    // A strictly serial CNOT staircase: one gate per layer.
    Circuit c(9);
    for (int i = 0; i < 8; ++i)
        c.add(Gate::cnot(i, i + 1));
    EXPECT_GE(lintCircuit(c).count(Rule::LowParallelism), 1);
}

TEST(LintRules, Ql114SwapOverhead)
{
    Circuit c(4);
    c.add(Gate::swap(0, 1));
    c.add(Gate::swap(1, 2));
    c.add(Gate::swap(2, 3));
    c.add(Gate::cnot(3, 0));
    EXPECT_GE(lintCircuit(c).count(Rule::SwapOverhead), 1);
}

TEST(LintRules, Ql115BudgetViolation)
{
    QualityBudget budget;
    budget.max_swap_count = 0;
    QualitySummary s;
    s.swap_count = 3;
    LintReport r = checkBudget(s, budget);
    EXPECT_EQ(r.count(Rule::BudgetViolation), 1);
    EXPECT_EQ(r.count(Severity::Error), 1);
    EXPECT_FALSE(r.clean(Severity::Error));
}

TEST(Lint, SeededCorruptionIsCaught)
{
    // Corrupt a healthy compiled circuit with seeded edits; the linter
    // must flag every corruption class it claims to catch.
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CalibrationData calib(tokyo, 0.02);
    Rng grng(411);
    graph::Graph g = graph::erdosRenyi(12, 0.4, grng);
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.calibration = &calib;
    opts.decompose_to_basis = false;
    transpiler::CompileResult r = core::compileQaoaMaxcut(g, tokyo, opts);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.quality.clean(Severity::Warning));

    Rng corrupt(412);
    Circuit bad(r.physical.numQubits());
    for (const Gate &gate : r.physical.gates()) {
        bad.add(gate);
        // Duplicate ~20% of the CNOT-class gates: CNOT pairs cancel,
        // CPHASE pairs merge.
        if ((gate.type == GateType::CNOT ||
             gate.type == GateType::CPHASE) &&
            corrupt.uniformInt(0, 4) == 0)
            bad.add(gate);
    }
    LintOptions lopts;
    lopts.map = &tokyo;
    lopts.calibration = &calib;
    LintReport report = lintCircuit(bad, lopts);
    EXPECT_FALSE(report.clean(Severity::Warning));
    EXPECT_GE(report.count(Rule::CancellingCnot) +
                  report.count(Rule::MergeableCphase),
              1);
}

const core::Method kAllMethods[] = {
    core::Method::Naive, core::Method::GreedyV, core::Method::Qaim,
    core::Method::Ip,    core::Method::Ic,      core::Method::Vic};

TEST(Lint, HealthyCompilesAreCleanAcrossMethods)
{
    // The acceptance bar: no QL finding at default (warning) severity on
    // circuits the stock pipeline emits.
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng crng(2020);
    hw::CalibrationData calib = hw::randomCalibration(tokyo, crng);
    Rng grng(413);
    graph::Graph er = graph::erdosRenyi(14, 0.3, grng);
    graph::Graph reg = graph::randomRegular(16, 4, grng);

    for (core::Method m : kAllMethods) {
        for (const graph::Graph *g : {&er, &reg}) {
            core::QaoaCompileOptions opts;
            opts.method = m;
            opts.calibration = &calib;
            transpiler::CompileResult r =
                core::compileQaoaMaxcut(*g, tokyo, opts);
            ASSERT_TRUE(r.ok()) << core::methodName(m);
            EXPECT_TRUE(r.quality.clean(Severity::Warning))
                << core::methodName(m) << ": "
                << r.quality.lint.summary();
        }
    }
}

TEST(Lint, FaultMaskedCompilesAreClean)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::FaultSpec spec;
    spec.dead_qubits = {3};
    spec.disabled_edges = {{0, 1}};
    hw::FaultInjector injector(tokyo, spec);
    Rng grng(414);
    graph::Graph g = graph::erdosRenyi(12, 0.35, grng);

    for (core::Method m : kAllMethods) {
        core::QaoaCompileOptions opts;
        opts.method = m;
        opts.calibration = &injector.calibration();
        opts.allowed_qubits = &injector.usable();
        opts.device_degraded = true;
        transpiler::CompileResult r =
            core::compileQaoaMaxcut(g, injector.map(), opts);
        ASSERT_TRUE(r.ok()) << core::methodName(m);
        EXPECT_TRUE(r.quality.clean(Severity::Warning))
            << core::methodName(m) << ": " << r.quality.lint.summary();
    }
}

TEST(Lint, Fig11EspOrderingAcrossMethods)
{
    // The paper's Fig. 11 ranking on ibmq_20_tokyo with the §V-F random
    // calibration: VIC >= IC >= IP >= NAIVE on workload-geomean ESP.
    // Mirrors the qaoa_lint --check-ordering CI gate.
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng crng(2020);
    hw::CalibrationData calib = hw::randomCalibration(tokyo, crng);

    const std::vector<graph::Graph> pool =
        metrics::fig11Instances(20, 1, 2020);

    const core::Method ranked[] = {core::Method::Naive, core::Method::Ip,
                                   core::Method::Ic, core::Method::Vic};
    std::map<std::string, double> geomean;
    for (core::Method m : ranked) {
        double log_sum = 0.0;
        for (std::size_t pi = 0; pi < pool.size(); ++pi) {
            core::QaoaCompileOptions opts;
            opts.method = m;
            opts.calibration = &calib;
            opts.decompose_to_basis = false;
            opts.seed = 7 + 1000 * pi;
            transpiler::CompileResult r =
                core::compileQaoaMaxcut(pool[pi], tokyo, opts);
            ASSERT_TRUE(r.ok()) << core::methodName(m);
            ASSERT_GT(r.quality.summary.esp, 0.0);
            log_sum += std::log(r.quality.summary.esp);
        }
        geomean[core::methodName(m)] =
            std::exp(log_sum / static_cast<double>(pool.size()));
    }
    EXPECT_GE(geomean["VIC"], geomean["IC"]);
    EXPECT_GE(geomean["IC"], geomean["IP"]);
    EXPECT_GE(geomean["IP"], geomean["NAIVE"]);
}

} // namespace
} // namespace qaoa::analysis
