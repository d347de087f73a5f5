/** @file
 * Tests for the general Ising cost-Hamiltonian support (§VI
 * "Applicability beyond QAOA-MaxCut") and its canonical encodings.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ising.hpp"
#include "sim/statevector.hpp"
#include "test_util.hpp"

namespace qaoa::core {
namespace {

TEST(IsingModel, CoefficientBookkeeping)
{
    IsingModel m(3);
    m.addLinear(0, 0.5);
    m.addLinear(0, 0.25);
    m.addQuadratic(0, 2, 1.0);
    m.addQuadratic(2, 0, 0.5); // accumulates onto the same pair
    m.addOffset(2.0);
    EXPECT_DOUBLE_EQ(m.linear(0), 0.75);
    EXPECT_DOUBLE_EQ(m.linear(1), 0.0);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 2), 1.5);
    EXPECT_DOUBLE_EQ(m.quadratic(2, 0), 1.5);
    EXPECT_DOUBLE_EQ(m.quadratic(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(m.offset(), 2.0);
}

TEST(IsingModel, EnergyEvaluation)
{
    // E = s0 + 2 s0 s1, s = +1 for bit 0.
    IsingModel m(2);
    m.addLinear(0, 1.0);
    m.addQuadratic(0, 1, 2.0);
    EXPECT_DOUBLE_EQ(m.energy(0b00), 3.0);  // s0=+1, s1=+1
    EXPECT_DOUBLE_EQ(m.energy(0b01), -3.0); // s0=-1
    EXPECT_DOUBLE_EQ(m.energy(0b10), -1.0); // s1=-1
    EXPECT_DOUBLE_EQ(m.energy(0b11), 1.0);
}

TEST(IsingModel, GroundStateExhaustive)
{
    IsingModel m(2);
    m.addLinear(0, 1.0);
    m.addQuadratic(0, 1, 2.0);
    auto gs = m.groundState();
    EXPECT_DOUBLE_EQ(gs.energy, -3.0);
    EXPECT_EQ(gs.assignment, 0b01u);
}

TEST(IsingModel, RejectsBadArguments)
{
    IsingModel m(2);
    EXPECT_THROW(m.addLinear(2, 1.0), std::runtime_error);
    EXPECT_THROW(m.addQuadratic(0, 0, 1.0), std::runtime_error);
    EXPECT_THROW(IsingModel(-1), std::runtime_error);
}

TEST(MaxcutEncoding, GroundEnergyIsMinusMaxcut)
{
    Rng rng(42);
    for (int trial = 0; trial < 8; ++trial) {
        graph::Graph g = graph::erdosRenyi(8, 0.5, rng);
        IsingModel m = maxcutToIsing(g);
        double maxcut = graph::maxCutBruteForce(g).value;
        EXPECT_NEAR(m.groundState().energy, -maxcut, 1e-9);
        // Every assignment satisfies E = -cut.
        for (std::uint64_t a = 0; a < 256; a += 37)
            EXPECT_NEAR(m.energy(a), -graph::cutValue(g, a), 1e-9);
    }
}

TEST(PartitionEncoding, PerfectPartitionHasZeroEnergy)
{
    // {1, 2, 3}: {1,2} vs {3} — difference 0, energy 0.
    IsingModel m = partitionToIsing({1.0, 2.0, 3.0});
    auto gs = m.groundState();
    EXPECT_NEAR(gs.energy, 0.0, 1e-9);
    // Energy is the squared difference of the two subset sums.
    EXPECT_NEAR(m.energy(0b000), 36.0, 1e-9); // all on one side
}

TEST(PartitionEncoding, ImbalancedSetMinimizesDifference)
{
    IsingModel m = partitionToIsing({5.0, 3.0, 1.0});
    // Best split: {5} vs {3,1} -> diff 1 -> energy 1.
    EXPECT_NEAR(m.groundState().energy, 1.0, 1e-9);
}

TEST(VertexCoverEncoding, TriangleNeedsTwoVertices)
{
    graph::Graph tri = graph::cycleGraph(3);
    IsingModel m = vertexCoverToIsing(tri, 4.0);
    auto gs = m.groundState();
    // Ground energy = cover size (penalty term vanishes on valid
    // covers).
    EXPECT_NEAR(gs.energy, 2.0, 1e-9);
    // The assignment covers every edge: bits set = chosen vertices.
    int chosen = 0;
    for (int i = 0; i < 3; ++i)
        chosen += (gs.assignment >> i) & 1ULL;
    EXPECT_EQ(chosen, 2);
}

TEST(VertexCoverEncoding, StarIsCoveredByCenter)
{
    graph::Graph star(5);
    for (int v = 1; v < 5; ++v)
        star.addEdge(0, v);
    IsingModel m = vertexCoverToIsing(star, 3.0);
    auto gs = m.groundState();
    EXPECT_NEAR(gs.energy, 1.0, 1e-9);
    EXPECT_EQ(gs.assignment, 1ULL); // only the hub selected
}

TEST(VertexCoverEncoding, RejectsWeakPenalty)
{
    EXPECT_THROW(vertexCoverToIsing(graph::cycleGraph(3), 1.0),
                 std::runtime_error);
}

TEST(IsingCircuit, MatchesMaxcutBuilderOnGraphs)
{
    // The Ising route and the direct MaxCut builder must produce the
    // same output state for the same (gamma, beta).
    Rng rng(7);
    graph::Graph g = graph::erdosRenyi(5, 0.6, rng);
    IsingModel m = maxcutToIsing(g);
    circuit::Circuit a =
        buildIsingQaoaCircuit(m, m.quadraticOps(), {0.7}, {0.3}, false);
    circuit::Circuit b = buildQaoaCircuit(g, {0.7}, {0.3}, false);
    EXPECT_TRUE(testutil::equivalentUpToGlobalPhase(a, b));
}

TEST(IsingCircuit, LinearTermsShiftPhases)
{
    IsingModel m(1);
    m.addLinear(0, 1.0);
    circuit::Circuit c =
        buildIsingQaoaCircuit(m, {}, {0.5}, {0.0}, false);
    // H then RZ(2*0.5) then RX(0): the RZ must appear.
    int rz = 0;
    for (const auto &g : c.gates())
        if (g.type == circuit::GateType::RZ) {
            ++rz;
            EXPECT_DOUBLE_EQ(g.params[0], 1.0);
        }
    EXPECT_EQ(rz, 1);
}

TEST(IsingCompile, AllMethodsPreserveDistribution)
{
    // Vertex cover models: linear + quadratic terms exercise the full
    // Ising path through compilation.  Beyond p = 1 on a healthy grid,
    // K4 forces SWAPs, so at p = 2 the linear RZs of the second level
    // must follow IC's layout as it moves (a per-spin bias makes every
    // h_i distinct, so an RZ on the wrong qubit shows); the last input
    // compiles on a fault-masked device (placement confined to
    // usable()).
    const IsingModel path_cover =
        vertexCoverToIsing(graph::pathGraph(4), 2.5);
    IsingModel k4_cover = vertexCoverToIsing(graph::completeGraph(4), 2.5);
    for (int i = 0; i < 4; ++i)
        k4_cover.addLinear(i, 0.15 * i);
    const hw::CouplingMap grid = hw::gridDevice(2, 3);
    const hw::CalibrationData calib(grid, 0.02);
    const hw::CouplingMap grid24 = hw::gridDevice(2, 4);
    const hw::CalibrationData calib24(grid24, 0.02);
    hw::FaultSpec spec;
    spec.dead_qubits = {1};
    spec.disabled_edges = {{6, 7}};
    const hw::FaultInjector faulty(grid24, spec, &calib24);

    struct Input
    {
        const char *name;
        const IsingModel *model;
        const hw::CouplingMap *map;
        const hw::CalibrationData *calib;
        const std::vector<char> *allowed;
        std::vector<double> gammas;
        std::vector<double> betas;
    };
    const Input inputs[] = {
        {"path p=1 healthy", &path_cover, &grid, &calib, nullptr, {0.6},
         {0.25}},
        {"K4 p=2 healthy", &k4_cover, &grid, &calib, nullptr, {0.6, 0.3},
         {0.25, 0.4}},
        {"K4 p=2 fault-masked", &k4_cover, &faulty.map(),
         &faulty.calibration(), &faulty.usable(), {0.6, 0.3}, {0.25, 0.4}},
    };
    for (const Input &in : inputs) {
        const IsingModel &m = *in.model;
        circuit::Circuit logical = buildIsingQaoaCircuit(
            m, m.quadraticOps(), in.gammas, in.betas, true);
        auto expected = testutil::exactClassicalDistribution(logical);

        for (Method method : {Method::Naive, Method::GreedyV, Method::Qaim,
                              Method::Ip, Method::Ic, Method::Vic}) {
            QaoaCompileOptions opts;
            opts.method = method;
            opts.calibration = in.calib;
            opts.allowed_qubits = in.allowed;
            opts.gammas = in.gammas;
            opts.betas = in.betas;
            transpiler::CompileResult r = compileQaoaIsing(m, *in.map, opts);
            ASSERT_TRUE(r.ok()) << in.name << " " << methodName(method)
                                << ": " << r.failure_reason;
            EXPECT_TRUE(transpiler::satisfiesCoupling(r.compiled, *in.map))
                << in.name << " " << methodName(method);
            if (in.allowed) {
                for (const circuit::Gate &g : r.compiled.gates())
                    EXPECT_TRUE((*in.allowed)[static_cast<std::size_t>(
                        g.q0)])
                        << in.name << " " << methodName(method)
                        << " touches masked qubit " << g.q0;
            }
            auto actual = testutil::exactClassicalDistribution(r.compiled);
            EXPECT_LT(testutil::totalVariation(expected, actual), 1e-9)
                << in.name << " " << methodName(method);
        }
    }
}

TEST(IsingCompile, QaoaFindsVertexCoverGroundState)
{
    // End to end: optimize angles for the Ising expectation and check
    // the sampled mode is a valid minimum vertex cover.
    graph::Graph tri = graph::cycleGraph(3);
    IsingModel m = vertexCoverToIsing(tri, 4.0);

    auto expectation = [&](double gamma, double beta) {
        circuit::Circuit c = buildIsingQaoaCircuit(
            m, m.quadraticOps(), {gamma}, {beta}, false);
        sim::Statevector state(3);
        state.apply(c);
        std::vector<double> probs = state.probabilities();
        double e = 0.0;
        for (std::size_t a = 0; a < probs.size(); ++a)
            e += probs[a] * m.energy(a);
        return e;
    };
    // Coarse sweep is enough to find an improving angle pair.
    double best = expectation(0.0, 0.0);
    double uniform = best;
    for (double gamma = 0.1; gamma < 1.6; gamma += 0.15)
        for (double beta = 0.1; beta < 1.6; beta += 0.15)
            best = std::min(best, expectation(gamma, beta));
    EXPECT_LT(best, uniform - 0.2); // QAOA improves over uniform
}

TEST(IsingCompile, RejectsBadInput)
{
    hw::CouplingMap lin = hw::linearDevice(3);
    IsingModel tiny(1);
    QaoaCompileOptions opts;
    EXPECT_THROW(compileQaoaIsing(tiny, lin, opts), std::runtime_error);
    IsingModel big(4);
    EXPECT_THROW(compileQaoaIsing(big, lin, opts), std::runtime_error);
}

} // namespace
} // namespace qaoa::core
