#include "qaoa/problem.hpp"

#include <numeric>

#include "common/error.hpp"

namespace qaoa::core {

std::vector<ZZOp>
costOperations(const graph::Graph &problem)
{
    std::vector<ZZOp> ops;
    ops.reserve(static_cast<std::size_t>(problem.numEdges()));
    for (const graph::Edge &e : problem.edges())
        ops.push_back({e.u, e.v, e.weight});
    return ops;
}

CostHamiltonian
costHamiltonian(const graph::Graph &problem)
{
    return {problem.numNodes(), costOperations(problem), {},
            kMaxCutAngleScale};
}

void
appendLevelTail(circuit::Circuit &c, const CostHamiltonian &cost,
                double gamma, double beta, const std::vector<int> &wire)
{
    const double angle = cost.levelAngle(gamma);
    for (std::size_t q = 0; q < cost.linear.size(); ++q)
        if (cost.linear[q] != 0.0)
            c.add(circuit::Gate::rz(wire[q], angle * cost.linear[q]));
    for (int q = 0; q < cost.num_qubits; ++q)
        c.add(circuit::Gate::rx(wire[static_cast<std::size_t>(q)],
                                2.0 * beta));
}

void
checkLevels(const std::vector<double> &gammas,
            const std::vector<double> &betas)
{
    QAOA_CHECK(gammas.size() == betas.size(),
               "need one (gamma, beta) pair per level; got "
                   << gammas.size() << " gammas and " << betas.size()
                   << " betas");
    QAOA_CHECK(!gammas.empty(), "QAOA needs at least one level");
}

circuit::Circuit
buildQaoaCircuit(const CostHamiltonian &cost,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas, bool measure)
{
    checkLevels(gammas, betas);

    const int n = cost.num_qubits;
    std::vector<int> identity(static_cast<std::size_t>(n));
    std::iota(identity.begin(), identity.end(), 0);

    circuit::Circuit c(n);
    for (int q = 0; q < n; ++q)
        c.add(circuit::Gate::h(q));
    for (std::size_t level = 0; level < gammas.size(); ++level) {
        const double angle = cost.levelAngle(gammas[level]);
        for (const ZZOp &op : cost.quadratic)
            c.add(circuit::Gate::cphase(op.a, op.b, angle * op.weight));
        appendLevelTail(c, cost, gammas[level], betas[level], identity);
    }
    if (measure)
        for (int q = 0; q < n; ++q)
            c.add(circuit::Gate::measure(q, q));
    return c;
}

circuit::Circuit
buildQaoaCircuit(int num_qubits, const std::vector<ZZOp> &cost_ops,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas, bool measure)
{
    return buildQaoaCircuit(CostHamiltonian{num_qubits, cost_ops, {},
                                            kMaxCutAngleScale},
                            gammas, betas, measure);
}

circuit::Circuit
buildQaoaCircuit(const graph::Graph &problem,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas, bool measure)
{
    return buildQaoaCircuit(problem.numNodes(), costOperations(problem),
                            gammas, betas, measure);
}

} // namespace qaoa::core
