#include "sim/gate_matrix.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace qaoa::sim {

namespace {

constexpr Complex kI{0.0, 1.0};

Matrix2
u3Matrix(double theta, double phi, double lambda)
{
    double c = std::cos(theta / 2.0);
    double s = std::sin(theta / 2.0);
    return {c, -expi(lambda) * s, expi(phi) * s, expi(phi + lambda) * c};
}

} // namespace

Matrix2
gateMatrix1q(const circuit::Gate &g)
{
    using circuit::GateType;
    constexpr double pi = std::numbers::pi;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    switch (g.type) {
      case GateType::H:
        return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
      case GateType::X:
        return {0.0, 1.0, 1.0, 0.0};
      case GateType::Y:
        return {0.0, -kI, kI, 0.0};
      case GateType::Z:
        return {1.0, 0.0, 0.0, -1.0};
      case GateType::RX: {
        double c = std::cos(g.params[0] / 2.0);
        double s = std::sin(g.params[0] / 2.0);
        return {c, -kI * s, -kI * s, c};
      }
      case GateType::RY: {
        double c = std::cos(g.params[0] / 2.0);
        double s = std::sin(g.params[0] / 2.0);
        return {c, -s, s, c};
      }
      case GateType::RZ:
        return {expi(-g.params[0] / 2.0), 0.0, 0.0, expi(g.params[0] / 2.0)};
      case GateType::U1:
        return {1.0, 0.0, 0.0, expi(g.params[0])};
      case GateType::U2:
        return u3Matrix(pi / 2.0, g.params[0], g.params[1]);
      case GateType::U3:
        return u3Matrix(g.params[0], g.params[1], g.params[2]);
      default:
        QAOA_CHECK(false, "gate " << circuit::gateName(g.type)
                                  << " is not single-qubit unitary");
    }
    return {};
}

Matrix4
gateMatrix2q(const circuit::Gate &g)
{
    using circuit::GateType;
    Matrix4 m{}; // zero-initialized
    auto at = [&m](int row, int col) -> Complex & { return m[row * 4 + col]; };
    switch (g.type) {
      case GateType::CNOT:
        // control = operand q0 (low bit a), target = q1 (high bit b).
        at(0, 0) = 1.0; // |b a> = |00> -> |00>
        at(3, 1) = 1.0; // |01> -> |11>
        at(2, 2) = 1.0; // |10> -> |10>
        at(1, 3) = 1.0; // |11> -> |01>
        return m;
      case GateType::CZ:
        at(0, 0) = 1.0;
        at(1, 1) = 1.0;
        at(2, 2) = 1.0;
        at(3, 3) = -1.0;
        return m;
      case GateType::CPHASE: {
        Complex phase = expi(g.params[0]);
        at(0, 0) = 1.0;
        at(1, 1) = phase;
        at(2, 2) = phase;
        at(3, 3) = 1.0;
        return m;
      }
      case GateType::SWAP:
        at(0, 0) = 1.0;
        at(2, 1) = 1.0;
        at(1, 2) = 1.0;
        at(3, 3) = 1.0;
        return m;
      default:
        QAOA_CHECK(false, "gate " << circuit::gateName(g.type)
                                  << " is not two-qubit unitary");
    }
    return m;
}

} // namespace qaoa::sim
