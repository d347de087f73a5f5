/** @file
 * End-to-end tests for the top-level compileQaoaMaxcut() API across all
 * six methodologies.
 */

#include <gtest/gtest.h>

#include "circuit/decompose.hpp"
#include "graph/generators.hpp"
#include "hardware/devices.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ising.hpp"
#include "transpiler/router.hpp"

namespace qaoa::core {
namespace {

const Method kAllMethods[] = {Method::Naive, Method::GreedyV,
                              Method::Qaim,  Method::Ip,
                              Method::Ic,    Method::Vic};

TEST(Api, MethodNames)
{
    EXPECT_EQ(methodName(Method::Naive), "NAIVE");
    EXPECT_EQ(methodName(Method::GreedyV), "GreedyV");
    EXPECT_EQ(methodName(Method::Qaim), "QAIM");
    EXPECT_EQ(methodName(Method::Ip), "IP");
    EXPECT_EQ(methodName(Method::Ic), "IC");
    EXPECT_EQ(methodName(Method::Vic), "VIC");
}

class ApiMethodSweep : public ::testing::TestWithParam<Method>
{
};

TEST_P(ApiMethodSweep, CompiledCircuitIsHardwareCompliant)
{
    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    hw::CalibrationData calib = hw::melbourneCalibration(melbourne);
    Rng inst_rng(71);
    graph::Graph g = graph::erdosRenyi(8, 0.4, inst_rng);

    QaoaCompileOptions opts;
    opts.method = GetParam();
    opts.calibration = &calib;
    opts.seed = 5;
    transpiler::CompileResult r = compileQaoaMaxcut(g, melbourne, opts);

    EXPECT_TRUE(circuit::isBasisCircuit(r.compiled));
    EXPECT_TRUE(transpiler::satisfiesCoupling(r.compiled, melbourne));
    EXPECT_EQ(r.compiled.countType(circuit::GateType::MEASURE), 8);
    EXPECT_GT(r.report.depth, 0);
    EXPECT_GT(r.report.gate_count, 0);
    EXPECT_GE(r.report.compile_seconds, 0.0);
    EXPECT_EQ(r.report.depth, r.compiled.depth());
    EXPECT_EQ(r.report.gate_count, r.compiled.gateCount());
}

TEST_P(ApiMethodSweep, CphaseCountPreservedWithoutDecompose)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CalibrationData calib(tokyo, 0.02);
    Rng inst_rng(72);
    graph::Graph g = graph::randomRegular(10, 3, inst_rng);

    QaoaCompileOptions opts;
    opts.method = GetParam();
    opts.calibration = &calib;
    opts.decompose_to_basis = false;
    transpiler::CompileResult r = compileQaoaMaxcut(g, tokyo, opts);
    EXPECT_EQ(r.compiled.countType(circuit::GateType::CPHASE),
              g.numEdges());
    EXPECT_EQ(r.compiled.countType(circuit::GateType::H), 10);
    EXPECT_EQ(r.compiled.countType(circuit::GateType::RX), 10);
}

TEST_P(ApiMethodSweep, MultiLevelScalesGateCount)
{
    hw::CouplingMap grid = hw::gridDevice(3, 3);
    hw::CalibrationData calib(grid, 0.02);
    Rng inst_rng(73);
    graph::Graph g = graph::randomRegular(6, 3, inst_rng);

    QaoaCompileOptions opts;
    opts.method = GetParam();
    opts.calibration = &calib;
    opts.decompose_to_basis = false;
    opts.gammas = {0.7, 0.4};
    opts.betas = {0.35, 0.2};
    transpiler::CompileResult r = compileQaoaMaxcut(g, grid, opts);
    EXPECT_EQ(r.compiled.countType(circuit::GateType::CPHASE),
              2 * g.numEdges());
    EXPECT_EQ(r.compiled.countType(circuit::GateType::RX), 2 * 6);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ApiMethodSweep,
                         ::testing::ValuesIn(kAllMethods));

TEST(Api, VicRequiresCalibration)
{
    hw::CouplingMap lin = hw::linearDevice(5);
    Rng inst_rng(74);
    graph::Graph g = graph::erdosRenyi(4, 0.6, inst_rng);
    QaoaCompileOptions opts;
    opts.method = Method::Vic;
    opts.calibration = nullptr;
    EXPECT_THROW(compileQaoaMaxcut(g, lin, opts), std::runtime_error);
}

TEST(Api, RejectsOversizedProblem)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    graph::Graph g = graph::completeGraph(4);
    QaoaCompileOptions opts;
    opts.method = Method::Naive;
    EXPECT_THROW(compileQaoaMaxcut(g, lin, opts), std::runtime_error);
}

TEST(Api, RejectsMismatchedAngles)
{
    hw::CouplingMap lin = hw::linearDevice(4);
    graph::Graph g = graph::cycleGraph(3);
    QaoaCompileOptions opts;
    opts.gammas = {0.1, 0.2};
    opts.betas = {0.1};
    EXPECT_THROW(compileQaoaMaxcut(g, lin, opts), std::runtime_error);
}

TEST(Api, RejectsPackingLimitBelowOneForEveryMethod)
{
    // A packing limit below 1 is a contract violation for every method
    // and both entry points, never a silent fallback to QAIM.
    hw::CouplingMap grid = hw::gridDevice(3, 3);
    hw::CalibrationData calib(grid, 0.02);
    graph::Graph g = graph::cycleGraph(5);
    IsingModel ising = maxcutToIsing(g);
    for (Method method : kAllMethods) {
        for (int limit : {0, -3}) {
            QaoaCompileOptions opts;
            opts.method = method;
            opts.calibration = &calib;
            opts.packing_limit = limit;
            EXPECT_THROW(compileQaoaMaxcut(g, grid, opts),
                         std::runtime_error)
                << methodName(method) << " packing " << limit;
            EXPECT_THROW(compileQaoaIsing(ising, grid, opts),
                         std::runtime_error)
                << methodName(method) << " packing " << limit;
        }
    }
}

TEST(Api, DeterministicForFixedSeed)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng inst_rng(75);
    graph::Graph g = graph::randomRegular(12, 3, inst_rng);
    for (Method m : {Method::Naive, Method::Qaim, Method::Ip, Method::Ic}) {
        QaoaCompileOptions opts;
        opts.method = m;
        opts.seed = 31;
        transpiler::CompileResult a = compileQaoaMaxcut(g, tokyo, opts);
        transpiler::CompileResult b = compileQaoaMaxcut(g, tokyo, opts);
        EXPECT_EQ(a.report.depth, b.report.depth) << methodName(m);
        EXPECT_EQ(a.report.gate_count, b.report.gate_count);
        EXPECT_EQ(a.initial_layout, b.initial_layout);
    }
}

TEST(Api, IcUsuallyShallowerThanNaive)
{
    // The paper's headline: IC reduces depth markedly vs NAIVE.  Compare
    // means over a few instances (not a per-instance guarantee).
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    Rng inst_rng(76);
    double naive_total = 0.0, ic_total = 0.0;
    for (int trial = 0; trial < 6; ++trial) {
        graph::Graph g = graph::randomRegular(14, 4, inst_rng);
        QaoaCompileOptions opts;
        opts.seed = static_cast<std::uint64_t>(trial);
        opts.method = Method::Naive;
        naive_total += compileQaoaMaxcut(g, tokyo, opts).report.depth;
        opts.method = Method::Ic;
        ic_total += compileQaoaMaxcut(g, tokyo, opts).report.depth;
    }
    EXPECT_LT(ic_total, naive_total);
}

TEST(Api, PeepholeNeverIncreasesGateCount)
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CalibrationData calib(tokyo, 0.02);
    Rng inst_rng(78);
    graph::Graph g = graph::randomRegular(12, 4, inst_rng);
    for (Method m : kAllMethods) {
        QaoaCompileOptions opts;
        opts.method = m;
        opts.calibration = &calib;
        opts.seed = 3;
        transpiler::CompileResult plain = compileQaoaMaxcut(g, tokyo,
                                                            opts);
        opts.peephole = true;
        transpiler::CompileResult tight = compileQaoaMaxcut(g, tokyo,
                                                            opts);
        EXPECT_LE(tight.report.gate_count, plain.report.gate_count)
            << methodName(m);
        EXPECT_TRUE(transpiler::satisfiesCoupling(tight.compiled, tokyo));
    }
}

TEST(Api, PackingLimitFlowsThroughIc)
{
    hw::CouplingMap grid = hw::gridDevice(3, 3);
    Rng inst_rng(77);
    graph::Graph g = graph::randomRegular(8, 3, inst_rng);
    QaoaCompileOptions opts;
    opts.method = Method::Ic;
    opts.decompose_to_basis = false;
    opts.packing_limit = 1;
    transpiler::CompileResult serial = compileQaoaMaxcut(g, grid, opts);
    opts.packing_limit = 1 << 30;
    transpiler::CompileResult packed = compileQaoaMaxcut(g, grid, opts);
    EXPECT_GE(serial.report.depth, packed.report.depth);
}

} // namespace
} // namespace qaoa::core
