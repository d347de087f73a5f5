/**
 * @file
 * Exact unitary matrices for every gate in the IR.
 *
 * Conventions: qubit basis |q1 q0> for two-qubit matrices, i.e. the
 * first operand (q0 of the Gate) is the *low* bit of the 2-bit index.
 * Matrices are row-major std::array<std::complex<double>, N>.
 */

#ifndef QAOA_SIM_GATE_MATRIX_HPP
#define QAOA_SIM_GATE_MATRIX_HPP

#include <array>
#include <cmath>
#include <complex>

#include "circuit/gate.hpp"

namespace qaoa::sim {

using Complex = std::complex<double>;
using Matrix2 = std::array<Complex, 4>;  ///< 2x2, row-major.
using Matrix4 = std::array<Complex, 16>; ///< 4x4, row-major.

/** e^{i·phi} as (cos phi, sin phi): the phase of every RZ/U1/CPHASE
 *  kernel and matrix, shared so each path computes it the same way. */
inline Complex
expi(double phi)
{
    return {std::cos(phi), std::sin(phi)};
}

/** 2x2 unitary of a single-qubit gate; throws for multi-qubit types. */
Matrix2 gateMatrix1q(const circuit::Gate &g);

/**
 * 4x4 unitary of a two-qubit gate in the |b a> ordering (gate operand q0
 * = a = low bit, q1 = b = high bit); throws for other arities.
 */
Matrix4 gateMatrix2q(const circuit::Gate &g);

} // namespace qaoa::sim

#endif // QAOA_SIM_GATE_MATRIX_HPP
