/**
 * @file
 * ESP cost model: estimated success probability with attribution.
 *
 * §II defines the success probability of a circuit as the product of the
 * success rates (1 - error) of its gates under the device calibration;
 * Figs. 10-11 rank the compilation methods by it.  This pass computes
 * that product together with the attribution the bare number hides:
 * which gate class (1q / 2q / readout) and which physical qubit carry
 * the loss.  Two-qubit gates split their success rate sqrt-evenly across
 * both operands so the per-qubit factors multiply back to the total.
 *
 * This is the one ESP model of the codebase: estimateEsp(...).total is
 * the success probability every tool, bench and simulator reads.
 */

#ifndef QAOA_ANALYSIS_ESP_HPP
#define QAOA_ANALYSIS_ESP_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/calibration.hpp"

namespace qaoa::analysis {

/**
 * Error rate of one physical gate under the calibration.
 *
 * Gate cost model (IBM-style):
 *  - U1 / BARRIER: error-free (virtual Z rotation / scheduling marker);
 *  - other single-qubit gates: the qubit's 1q error rate;
 *  - CNOT: the edge's CNOT error;
 *  - CPHASE / CZ: two CNOTs -> 1 - (1-e)^2;
 *  - SWAP: three CNOTs -> 1 - (1-e)^3;
 *  - MEASURE: the qubit's readout error.
 *
 * The gate must act on physical qubits (two-qubit gates on coupled
 * pairs).
 */
double gateErrorRate(const circuit::Gate &g,
                     const hw::CalibrationData &calib);

/** ESP of a circuit, decomposed by gate class and by qubit. */
struct EspBreakdown
{
    double total = 1.0;     ///< Product over all gates; the Fig. 10/11 metric.
    double one_qubit = 1.0; ///< Factor from 1q gates (RZ/Z included).
    double two_qubit = 1.0; ///< Factor from CNOT/CPHASE/CZ/SWAP.
    double readout = 1.0;   ///< Factor from MEASURE gates.

    /** Per-qubit attribution; the product over qubits equals total up to
     *  rounding (2q gates contribute sqrt(1-e) to each operand). */
    std::vector<double> per_qubit;

    int one_qubit_gates = 0; ///< Non-virtual 1q gates counted.
    int two_qubit_gates = 0;
    int measurements = 0;
};

/**
 * Computes the ESP breakdown of @p physical under @p calib.
 *
 * The total is accumulated in gate order: bit for bit the in-order
 * product of (1 - gateErrorRate(g)).
 */
EspBreakdown estimateEsp(const circuit::Circuit &physical,
                         const hw::CalibrationData &calib);

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_ESP_HPP
