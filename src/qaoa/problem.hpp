/**
 * @file
 * QAOA cost Hamiltonians and logical circuit construction.
 *
 * The cost Hamiltonian of a MaxCut instance is one ZZ-interaction per
 * problem-graph edge, executed as a CPHASE gate (§II "QAOA-circuits");
 * a general Ising cost adds linear RZ terms (§VI, qaoa/ising.hpp).
 * The full level-p circuit is: H on every qubit, then p repetitions of
 * (cost layer with angle γ_i, mixer RX(2·β_i) on every qubit), then
 * measurement.
 */

#ifndef QAOA_QAOA_PROBLEM_HPP
#define QAOA_QAOA_PROBLEM_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "graph/graph.hpp"

namespace qaoa::core {

/** One ZZ-interaction (CPHASE) between two logical qubits. */
struct ZZOp
{
    int a = 0;           ///< First logical qubit.
    int b = 0;           ///< Second logical qubit (b != a).
    double weight = 1.0; ///< Problem-edge weight (scales the angle).

    bool operator==(const ZZOp &other) const = default;
};

/** Cost-Hamiltonian operations of a MaxCut instance (one per edge). */
std::vector<ZZOp> costOperations(const graph::Graph &problem);

/** The level-angle scale of a MaxCut cost: CPHASE(γ·weight) per edge. */
inline constexpr double kMaxCutAngleScale = 1.0;

/**
 * A cost Hamiltonian as the compiler consumes it (§VI): every quadratic
 * term becomes CPHASE(angle_scale·γ·weight) and every non-zero linear
 * term becomes RZ(angle_scale·γ·h) on the qubit's current position.
 * MaxCut is {n, costOperations(g), {}, 1}; an Ising model carries scale
 * 2 because e^{-iγJ·ZZ} == CPHASE(2γJ) and e^{-iγh·Z} == RZ(2γh).
 */
struct CostHamiltonian
{
    int num_qubits = 0;          ///< Logical qubits (spins / nodes).
    std::vector<ZZOp> quadratic; ///< CPHASE terms, in emission order.
    std::vector<double> linear;  ///< h per qubit; empty = none.
    double angle_scale = kMaxCutAngleScale; ///< 1 for MaxCut, 2 for Ising.

    /** The level angle that multiplies every term's coefficient. */
    double levelAngle(double gamma) const { return angle_scale * gamma; }
};

/** The MaxCut cost Hamiltonian of @p problem (zero weights kept). */
CostHamiltonian costHamiltonian(const graph::Graph &problem);

/**
 * Appends the rest of one level after its CPHASEs: RZ for every
 * non-zero linear term, then the RX(2·@p beta) mixer, with logical
 * qubit l on wire @p wire[l] (the identity for a logical circuit, the
 * current layout for a physical one).
 */
void appendLevelTail(circuit::Circuit &c, const CostHamiltonian &cost,
                     double gamma, double beta, const std::vector<int> &wire);

/** Throws unless there is at least one level and one β per γ. */
void checkLevels(const std::vector<double> &gammas,
                 const std::vector<double> &betas);

/**
 * Builds the logical level-p QAOA circuit of @p cost: H on every
 * qubit, then per level the CPHASEs in cost.quadratic order,
 * appendLevelTail(), and finally measurements (qubit l -> bit l).
 */
circuit::Circuit buildQaoaCircuit(const CostHamiltonian &cost,
                                  const std::vector<double> &gammas,
                                  const std::vector<double> &betas,
                                  bool measure = true);

/**
 * Builds the logical level-p QAOA-MaxCut circuit: the CostHamiltonian
 * builder over {num_qubits, cost_ops, {}, 1}.  @p cost_ops apply in the
 * given order in every level (the order is the knob IP/IC exploit).
 */
circuit::Circuit buildQaoaCircuit(int num_qubits,
                                  const std::vector<ZZOp> &cost_ops,
                                  const std::vector<double> &gammas,
                                  const std::vector<double> &betas,
                                  bool measure = true);

/** Convenience overload taking the problem graph directly. */
circuit::Circuit buildQaoaCircuit(const graph::Graph &problem,
                                  const std::vector<double> &gammas,
                                  const std::vector<double> &betas,
                                  bool measure = true);

} // namespace qaoa::core

#endif // QAOA_QAOA_PROBLEM_HPP
