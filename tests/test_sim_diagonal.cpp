/**
 * @file
 * The diagonal QAOA evaluation behind metrics::exactExpectedCut() is
 * bit-identical to the gate-by-gate evaluation.
 *
 * The reference is written out here: the logical circuit from
 * buildQaoaCircuit(), applied gate by gate, probabilities(), then a
 * serial sum of probability times graph::cutValue().  Every comparison
 * is EXPECT_EQ: the optimizer's path depends on the exact values, so
 * agreement within a tolerance is not enough.  Also covered: the
 * cut-count table itself, the kernels at both table widths, the fused
 * mixer against the RX gate kernel (bit patterns, so the sign of every
 * zero counts), the guard's allocation cap and cancellation, and the
 * table cache's keying.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/guard.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "metrics/cut_table.hpp"
#include "metrics/harness.hpp"
#include "qaoa/problem.hpp"
#include "sim/statevector.hpp"

namespace qaoa {
namespace {

constexpr double pi = std::numbers::pi;

/** exactExpectedCut() as the gate-by-gate engine computes it. */
double
gateByGate(const graph::Graph &g, const std::vector<double> &gammas,
           const std::vector<double> &betas)
{
    const circuit::Circuit c =
        core::buildQaoaCircuit(g, gammas, betas, /*measure=*/false);
    sim::Statevector state(g.numNodes());
    state.apply(c);
    const std::vector<double> probs = state.probabilities();
    double sum = 0.0;
    for (std::size_t z = 0; z < probs.size(); ++z)
        if (probs[z] > 0.0)
            sum += probs[z] * graph::cutValue(g, z);
    return sum;
}

/** @p g with every edge weighing @p w. */
graph::Graph
withWeight(const graph::Graph &g, double w)
{
    graph::Graph out(g.numNodes());
    for (const graph::Edge &e : g.edges())
        out.addEdge(e.u, e.v, w);
    return out;
}

/** A ring (a path below 3 nodes), an ER(n, 0.5) and a regular graph. */
std::vector<graph::Graph>
shapes(int n, Rng &rng)
{
    const int k = n <= 2 ? 1 : (n % 2 == 0 && n >= 4 ? 3 : 2);
    return {n < 3 ? graph::pathGraph(n) : graph::cycleGraph(n),
            graph::erdosRenyi(n, 0.5, rng), graph::randomRegular(n, k, rng)};
}

/** Levels 1..p at seeded random angles. */
void
randomAngles(int p, Rng &rng, std::vector<double> &gammas,
             std::vector<double> &betas)
{
    gammas.clear();
    betas.clear();
    for (int l = 0; l < p; ++l) {
        gammas.push_back(rng.uniformReal(-2.0 * pi, 2.0 * pi));
        betas.push_back(rng.uniformReal(-pi, pi));
    }
}

TEST(SimDiagonal, MatchesGateByGateOnRingErAndRegularGraphs)
{
    par::setThreadCount(1);
    Rng rng(14);
    std::vector<double> gammas, betas;
    for (int n = 2; n <= 15; ++n)
        for (const graph::Graph &shape : shapes(n, rng))
            for (double w : {1.0, 2.5, -0.7})
                for (int p = 1; p <= 3; ++p) {
                    const graph::Graph g = withWeight(shape, w);
                    randomAngles(p, rng, gammas, betas);
                    EXPECT_EQ(metrics::exactExpectedCut(g, gammas, betas),
                              gateByGate(g, gammas, betas))
                        << "n=" << n << " |E|=" << g.numEdges()
                        << " w=" << w << " p=" << p;
                }
    par::setThreadCount(0);
}

TEST(SimDiagonal, MatchesGateByGateAtZeroGammaAndZeroBeta)
{
    par::setThreadCount(1);
    Rng rng(7);
    for (int n : {3, 8, 13})
        for (const graph::Graph &shape : shapes(n, rng))
            for (double w : {1.0, 2.5, -0.7}) {
                const graph::Graph g = withWeight(shape, w);
                for (const auto &[gamma, beta] :
                     std::vector<std::pair<double, double>>{
                         {0.0, 0.0}, {0.0, 0.4}, {1.1, 0.0}}) {
                    EXPECT_EQ(metrics::exactExpectedCut(g, {gamma}, {beta}),
                              gateByGate(g, {gamma}, {beta}))
                        << "n=" << n << " w=" << w << " gamma=" << gamma
                        << " beta=" << beta;
                    EXPECT_EQ(metrics::exactExpectedCut(g, {gamma, 0.3},
                                                        {beta, beta}),
                              gateByGate(g, {gamma, 0.3}, {beta, beta}));
                }
            }
    par::setThreadCount(0);
}

TEST(SimDiagonal, BitIdenticalAtOneTwoAndEightThreads)
{
    // n = 14 and 15 put the kernels past par::kSerialCutoff, so they
    // really split across threads.
    Rng rng(3);
    std::vector<double> gammas, betas;
    for (int n : {6, 14, 15})
        for (const graph::Graph &shape : shapes(n, rng))
            for (int p = 1; p <= 3; ++p) {
                const graph::Graph g = withWeight(shape, 2.5);
                randomAngles(p, rng, gammas, betas);
                par::setThreadCount(1);
                const double reference = gateByGate(g, gammas, betas);
                for (int threads : {1, 2, 8}) {
                    par::setThreadCount(threads);
                    EXPECT_EQ(metrics::exactExpectedCut(g, gammas, betas),
                              reference)
                        << "n=" << n << " p=" << p
                        << " threads=" << threads;
                }
            }
    par::setThreadCount(0);
}

TEST(SimDiagonal, MixedWeightsAndEdgelessGraphsMatchTheGatePath)
{
    graph::Graph mixed(6);
    mixed.addEdge(0, 1, 1.0);
    mixed.addEdge(1, 2, 2.0);
    mixed.addEdge(2, 3, 1.0);
    mixed.addEdge(3, 4, 0.5);
    mixed.addEdge(4, 5, 1.0);
    mixed.addEdge(5, 0, 1.0);
    EXPECT_EQ(metrics::exactExpectedCut(mixed, {0.8, 0.2}, {0.3, 0.6}),
              gateByGate(mixed, {0.8, 0.2}, {0.3, 0.6}));

    // +0 and -0 compare equal but are different weights bit for bit.
    graph::Graph zeros(3);
    zeros.addEdge(0, 1, 0.0);
    zeros.addEdge(1, 2, -0.0);
    EXPECT_EQ(metrics::exactExpectedCut(zeros, {0.8}, {0.3}),
              gateByGate(zeros, {0.8}, {0.3}));

    const graph::Graph edgeless(4);
    EXPECT_EQ(metrics::exactExpectedCut(edgeless, {0.8}, {0.3}), 0.0);
}

TEST(SimDiagonal, CutCountsMatchCountedCuts)
{
    Rng rng(5);
    for (int n : {1, 2, 5, 11}) {
        const graph::Graph g = graph::erdosRenyi(n, 0.6, rng);
        const metrics::CutCounts table = metrics::buildCutCounts(g);
        ASSERT_EQ(table.narrow.size(), std::size_t{1} << n);
        EXPECT_TRUE(table.wide.empty());
        for (std::uint64_t z = 0; z < (1ULL << n); ++z) {
            int cut = 0;
            for (const graph::Edge &e : g.edges())
                cut += ((z >> e.u) ^ (z >> e.v)) & 1ULL;
            ASSERT_EQ(static_cast<int>(table.narrow[z]), cut)
                << "n=" << n << " z=" << z;
        }
    }
    // K24 has 276 > 255 edges: two bytes per state; spot-check states.
    const graph::Graph k24 = graph::completeGraph(24);
    const metrics::CutCounts wide = metrics::buildCutCounts(k24);
    EXPECT_TRUE(wide.narrow.empty());
    ASSERT_EQ(wide.wide.size(), std::size_t{1} << 24);
    EXPECT_EQ(metrics::cutCountBytes(24, k24.numEdges()),
              2 * (std::uint64_t{1} << 24));
    for (int i = 0; i < 2000; ++i) {
        const auto z = static_cast<std::uint64_t>(
            rng.uniformInt(0, (1 << 24) - 1));
        const int ones = std::popcount(z);
        ASSERT_EQ(static_cast<int>(wide.wide[z]), ones * (24 - ones))
            << "z=" << z;
    }
}

TEST(SimDiagonal, KernelsAgreeAtBothTableWidths)
{
    const graph::Graph g = graph::cycleGraph(9);
    const metrics::CutCounts table = metrics::buildCutCounts(g);
    const std::vector<std::uint16_t> wide(table.narrow.begin(),
                                          table.narrow.end());
    std::vector<sim::Complex> amplitude;
    std::vector<double> value;
    for (int k = 0; k <= g.numEdges(); ++k) {
        amplitude.push_back(sim::expi(0.3 * k) * 0.0625);
        value.push_back(1.5 * k);
    }
    sim::Statevector a(9), b(9);
    a.loadByLevel(table.narrow, amplitude);
    b.loadByLevel(wide, amplitude);
    a.applyPhasePowers(table.narrow, sim::expi(0.7));
    b.applyPhasePowers(wide, sim::expi(0.7));
    for (std::uint64_t z = 0; z < 512; ++z)
        ASSERT_EQ(a.amplitude(z), b.amplitude(z)) << "z=" << z;
    EXPECT_EQ(a.levelExpectation(table.narrow, value),
              b.levelExpectation(wide, value));
}

/** Sets @p state to @p amps through loadByLevel() with level[z] = z. */
void
loadAmplitudes(sim::Statevector &state, const std::vector<sim::Complex> &amps)
{
    std::vector<std::uint16_t> index(amps.size());
    for (std::size_t z = 0; z < amps.size(); ++z)
        index[z] = static_cast<std::uint16_t>(z);
    state.loadByLevel(index, amps);
}

/** Every amplitude of @p a and @p b has the same bits, zero signs too. */
::testing::AssertionResult
sameBits(const sim::Statevector &a, const sim::Statevector &b)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::uint64_t z = 0; z < (1ULL << a.numQubits()); ++z) {
        const sim::Complex x = a.amplitude(z), y = b.amplitude(z);
        if (bits(x.real()) != bits(y.real()) ||
            bits(x.imag()) != bits(y.imag()))
            return ::testing::AssertionFailure()
                   << "amplitude " << z << ": " << x << " vs " << y;
    }
    return ::testing::AssertionSuccess();
}

TEST(SimDiagonal, FusedMixerMatchesRxGatesBitForBit)
{
    // n = 1..14 covers registers inside one mixer block (n <= 11), across
    // blocks, and past par::kSerialCutoff (n = 14), where the 2- and
    // 8-thread runs really split.
    Rng rng(15);
    for (int n = 1; n <= 14; ++n) {
        const std::size_t size = std::size_t{1} << n;
        std::vector<std::vector<sim::Complex>> states;
        // A seeded random normalized state.
        std::vector<sim::Complex> random(size);
        double norm = 0.0;
        for (sim::Complex &a : random) {
            a = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
            norm += std::norm(a);
        }
        for (sim::Complex &a : random)
            a /= std::sqrt(norm);
        states.push_back(random);
        // Basis states whose zero components carry seeded signs.
        for (const sim::Complex one : {sim::Complex{1.0, 0.0},
                                       sim::Complex{-0.0, -1.0}}) {
            std::vector<sim::Complex> basis(size);
            for (sim::Complex &a : basis)
                a = {rng.bernoulli(0.5) ? -0.0 : 0.0,
                     rng.bernoulli(0.5) ? -0.0 : 0.0};
            basis[rng.index(size)] = one;
            states.push_back(basis);
        }
        for (const std::vector<sim::Complex> &amps : states)
            for (const double beta :
                 {0.0, pi / 2, -pi / 2, rng.uniformReal(-pi, pi)}) {
                par::setThreadCount(1);
                sim::Statevector gates(n);
                loadAmplitudes(gates, amps);
                for (int q = 0; q < n; ++q)
                    gates.apply(circuit::Gate::rx(q, 2.0 * beta));
                for (int threads : {1, 2, 8}) {
                    par::setThreadCount(threads);
                    sim::Statevector fused(n);
                    loadAmplitudes(fused, amps);
                    fused.applyMixer(beta);
                    EXPECT_TRUE(sameBits(fused, gates))
                        << "n=" << n << " beta=" << beta
                        << " threads=" << threads;
                }
            }
    }
    par::setThreadCount(0);
}

TEST(SimDiagonal, AllocationCapCountsStateAndTable)
{
    const graph::Graph g = graph::cycleGraph(10);
    const std::uint64_t state = sim::Statevector::allocationBytes(10);
    const std::uint64_t table = metrics::cutCountBytes(10, g.numEdges());

    run::ResourceLimits limits;
    limits.max_statevector_bytes = state + table - 1;
    const run::RunGuard tight(run::CancelToken(), run::Deadline::never(),
                              limits);
    EXPECT_THROW(metrics::exactExpectedCut(g, {0.5}, {0.4}, &tight),
                 run::ResourceExceededError);

    limits.max_statevector_bytes = state + table;
    const run::RunGuard exact(run::CancelToken(), run::Deadline::never(),
                              limits);
    EXPECT_EQ(metrics::exactExpectedCut(g, {0.5}, {0.4}, &exact),
              gateByGate(g, {0.5}, {0.4}));
}

TEST(SimDiagonal, CancelledTokenThrows)
{
    const run::CancelToken token;
    token.requestCancel();
    const run::RunGuard guard(token, run::Deadline::never());
    EXPECT_THROW(
        metrics::exactExpectedCut(graph::cycleGraph(8), {0.5}, {0.4}, &guard),
        run::CancelledError);
    // Mixed weights take the gate path, which polls per gate.
    graph::Graph mixed = graph::pathGraph(4);
    mixed.addEdge(0, 3, 2.0);
    EXPECT_THROW(metrics::exactExpectedCut(mixed, {0.5}, {0.4}, &guard),
                 run::CancelledError);
}

TEST(SimDiagonal, CacheKeepsOneTablePerGraph)
{
    const graph::Graph ring = withWeight(graph::cycleGraph(11), 1.234567);
    const graph::Graph near = withWeight(graph::cycleGraph(11), 1.234568);
    graph::Graph path = graph::pathGraph(11);
    path.addEdge(0, 5);
    const graph::Graph rewired = withWeight(path, 1.234567);
    ASSERT_EQ(rewired.numEdges(), ring.numEdges());

    const auto first = metrics::cachedCutCounts(ring);
    EXPECT_EQ(metrics::cachedCutCounts(ring), first);
    EXPECT_EQ(metrics::cachedCutCounts(withWeight(ring, 1.234567)), first);
    EXPECT_NE(metrics::cachedCutCounts(near), first);
    EXPECT_NE(metrics::cachedCutCounts(rewired), first);
    EXPECT_EQ(metrics::cachedCutCounts(rewired)->edges, rewired.edges());

    for (const graph::Graph *g : {&ring, &near, &rewired, &ring})
        EXPECT_EQ(metrics::exactExpectedCut(*g, {0.9}, {0.2}),
                  gateByGate(*g, {0.9}, {0.2}));
}

TEST(SimDiagonal, ConcurrentEvaluationsShareTheCache)
{
    Rng rng(11);
    std::vector<graph::Graph> graphs;
    std::vector<double> reference;
    for (int i = 0; i < 6; ++i) {
        graphs.push_back(graph::erdosRenyi(9 + i % 3, 0.5, rng));
        reference.push_back(gateByGate(graphs.back(), {0.6}, {0.25}));
    }
    std::vector<double> got(4 * graphs.size(), -1.0);
    par::setThreadCount(4);
    par::parallelForTasks(got.size(), [&](std::uint64_t i) {
        got[i] = metrics::exactExpectedCut(graphs[i % graphs.size()], {0.6},
                                           {0.25});
    });
    par::setThreadCount(0);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], reference[i % graphs.size()]) << "task " << i;
}

} // namespace
} // namespace qaoa
