/**
 * @file
 * Thermal-relaxation (T1/T2) noise — the decoherence channel of §II.
 *
 * Complements the depolarizing gate-error model (noise.hpp): while gates
 * execute, every involved qubit relaxes with probability
 * 1 - exp(-dt/T1) (amplitude damping towards |0>, realized as a
 * trajectory jump) and dephases with probability (1 - exp(-dt/T2'))/2
 * (Z flip), where dt is the gate duration from the timing model and
 * 1/T2' = 1/T2 - 1/(2 T1) is the pure-dephasing rate.  This makes the
 * "deeper circuit -> more decoherence" mechanism explicit in the ARG
 * experiments.
 */

#ifndef QAOA_SIM_THERMAL_HPP
#define QAOA_SIM_THERMAL_HPP

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "analysis/timing.hpp"
#include "sim/statevector.hpp"

namespace qaoa::sim {

/** Relaxation parameters (nanoseconds), IBM-era defaults. */
struct ThermalParams
{
    double t1_ns = 90000.0; ///< Amplitude-damping time constant.
    double t2_ns = 70000.0; ///< Total dephasing time constant (<= 2 T1).

    analysis::GateDurations durations; ///< Per-gate dt source.

    /** Probability of a relaxation jump during a gate of length dt. */
    double relaxProbability(double dt_ns) const;

    /** Probability of a pure-dephasing Z flip during dt. */
    double dephaseProbability(double dt_ns) const;
};

/**
 * Samples a circuit under trajectory-method thermal relaxation.
 *
 * Each trajectory applies the circuit's unitaries; after every timed
 * gate each involved qubit may (a) jump: the qubit is projected by a
 * Born-rule measurement and reset to |0> when it collapsed to |1>
 * (amplitude damping), or (b) dephase: a Z is applied.  Measurement
 * mapping follows the runAndSample() convention.
 *
 * @param physical     Hardware circuit (any gate set).
 * @param params       T1/T2 and durations.
 * @param shots        Total shots across trajectories.
 * @param rng          Randomness source.
 * @param trajectories Monte-Carlo trajectory count (default 32).
 */
Counts thermalSample(const circuit::Circuit &physical,
                     const ThermalParams &params, std::uint64_t shots,
                     Rng &rng, int trajectories = 32);

} // namespace qaoa::sim

#endif // QAOA_SIM_THERMAL_HPP
