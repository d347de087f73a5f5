/** @file
 * Golden values of metrics::exactExpectedCut(): the numbers every
 * simulator kernel change must keep bit for bit.
 *
 * Each case evaluates one graph (a ring, an Erdős–Rényi graph or a
 * random regular graph at n = 4, 9, 12 or 15, plus one graph with mixed
 * edge weights) at p = 1, 2 or 3 with fixed angles.  The file holds the
 * value as a C99 hexfloat, so it pins every bit independently of both
 * the diagonal path and the gate-by-gate path that
 * tests/test_sim_diagonal.cpp compares against each other.
 *
 * There is deliberately no switch that rewrites the file.  A mismatch
 * prints the case id with the expected and the actual line; a change
 * that is meant to alter the values regenerates
 * tests/golden/sim_expectations.txt from those lines in a commit of its
 * own that says why.  The values assume IEEE-754 doubles without
 * floating-point contraction (the build passes -ffp-contract=off to the
 * simulator and metrics libraries).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "metrics/harness.hpp"

namespace qaoa {
namespace {

struct NamedGraph
{
    std::string name;
    graph::Graph graph{0};
};

/** A ring, a connected ER(n, 0.5) and a connected regular graph. */
std::vector<NamedGraph>
shapes(int n)
{
    const int k = n % 2 == 0 ? 3 : 4;
    const auto seed = static_cast<std::uint64_t>(1500 + n);
    return {
        {"ring", graph::cycleGraph(n)},
        {"er", metrics::erdosRenyiInstances(n, 0.5, 1, seed)[0]},
        {"reg" + std::to_string(k),
         metrics::regularInstances(n, k, 1, seed)[0]},
    };
}

/** ER(9, 0.5) with three different weights: the gate-by-gate path. */
graph::Graph
mixedWeights()
{
    const graph::Graph g = metrics::erdosRenyiInstances(9, 0.5, 1, 1509)[0];
    graph::Graph out(g.numNodes());
    for (const graph::Edge &e : g.edges())
        out.addEdge(e.u, e.v, 0.5 + 0.75 * ((e.u + e.v) % 3));
    return out;
}

std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Every case's value, keyed by case id. */
std::map<std::string, std::string>
evaluateCases()
{
    const std::vector<double> all_gammas = {0.7, 0.45, -1.3};
    const std::vector<double> all_betas = {0.35, -0.2, 1.1};
    std::vector<NamedGraph> graphs;
    for (int n : {4, 9, 12, 15})
        for (NamedGraph &g : shapes(n))
            graphs.push_back({g.name + std::to_string(n), std::move(g.graph)});
    graphs.push_back({"mixed9", mixedWeights()});

    std::map<std::string, std::string> out;
    for (const NamedGraph &g : graphs)
        for (std::size_t p = 1; p <= 3; ++p) {
            const std::vector<double> gammas(all_gammas.begin(),
                                             all_gammas.begin() + p);
            const std::vector<double> betas(all_betas.begin(),
                                            all_betas.begin() + p);
            out[g.name + "/p" + std::to_string(p)] =
                hexfloat(metrics::exactExpectedCut(g.graph, gammas, betas));
        }
    return out;
}

std::map<std::string, std::string>
loadRecorded()
{
    std::ifstream in(QAOA_GOLDEN_SIM);
    EXPECT_TRUE(in.good()) << "cannot open " << QAOA_GOLDEN_SIM;
    std::map<std::string, std::string> recorded;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        recorded[line.substr(0, space)] = line.substr(space + 1);
    }
    return recorded;
}

/** Same double, bit for bit (the text may differ only in spelling). */
bool
sameValue(const std::string &a, const std::string &b)
{
    return std::bit_cast<std::uint64_t>(std::strtod(a.c_str(), nullptr)) ==
           std::bit_cast<std::uint64_t>(std::strtod(b.c_str(), nullptr));
}

TEST(SimGolden, ExpectationsMatchRecorded)
{
    const std::map<std::string, std::string> expected = loadRecorded();
    for (int threads : {1, 2}) {
        par::setThreadCount(threads);
        const std::map<std::string, std::string> actual = evaluateCases();
        int mismatches = 0;
        for (const auto &[id, value] : actual) {
            const auto it = expected.find(id);
            if (it != expected.end() && sameValue(it->second, value))
                continue;
            ++mismatches;
            ADD_FAILURE() << "golden mismatch for case " << id
                          << " at " << threads << " thread(s)"
                          << "\n  expected: "
                          << (it == expected.end() ? "(missing)"
                                                   : it->second)
                          << "\n  actual:   " << id << " " << value;
        }
        for (const auto &[id, value] : expected)
            if (!actual.count(id))
                ADD_FAILURE() << "the file names a case that no longer "
                                 "exists: "
                              << id;
        EXPECT_EQ(mismatches, 0) << "of " << actual.size() << " cases";
    }
    par::setThreadCount(0);
}

} // namespace
} // namespace qaoa
