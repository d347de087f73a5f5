/**
 * @file
 * Timing/criticality pass: ASAP schedule under per-gate-class durations.
 *
 * §II and §V-A connect circuit depth to execution time and decoherence
 * ("a higher-depth circuit is more susceptible to decoherence errors").
 * This pass makes the connection quantitative and attributable: one
 * schedule sweep yields the makespan, the chain of gates on the critical
 * path, per-qubit busy/idle windows, and a T1/T2 decoherence-exposure
 * factor — per-qubit exp(-busy/T2 - idle/T1), i.e. dephasing over the
 * active window plus amplitude damping over the idle gaps inside it.
 * Per-qubit T1/T2 come from the device calibration when one is supplied.
 *
 * This is the one timing model of the codebase.
 */

#ifndef QAOA_ANALYSIS_TIMING_HPP
#define QAOA_ANALYSIS_TIMING_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/calibration.hpp"

namespace qaoa::analysis {

/** Per-gate-class durations in nanoseconds (IBM-era defaults). */
struct GateDurations
{
    double one_qubit_ns = 50.0;  ///< U2/U3 and other 1q pulses.
    double virtual_ns = 0.0;     ///< U1/RZ/Z (frame change, free).
    double two_qubit_ns = 300.0; ///< CNOT and other 2q pulses.
    double measure_ns = 1000.0;  ///< Readout.

    /** Duration of one gate under this model (BARRIER = 0). */
    double of(const circuit::Gate &g) const;
};

/** Inputs of the timing pass. */
struct TimingOptions
{
    GateDurations durations{};

    /** Fallback relaxation/dephasing constants when no calibration (or
     *  one without per-qubit values) is given. */
    double t1_ns = 90000.0;
    double t2_ns = 70000.0;

    /** Per-qubit T1/T2 source; nullptr uses the fallbacks above. */
    const hw::CalibrationData *calibration = nullptr;
};

/** One gap between consecutive operations on a qubit. */
struct IdleWindow
{
    int qubit = 0;
    double start_ns = 0.0; ///< Finish of the earlier gate.
    double end_ns = 0.0;   ///< Start of the later gate.
    int before_gate = -1;  ///< Gate index whose start closes the window.

    double length_ns() const { return end_ns - start_ns; }
};

/** Schedule-derived activity of one qubit. */
struct QubitActivity
{
    double first_busy_ns = -1.0; ///< Start of first gate; -1 = never used.
    double last_busy_ns = 0.0;   ///< Finish of last gate.
    double busy_ns = 0.0;        ///< Sum of gate durations on the qubit.
    double idle_ns = 0.0;        ///< Sum of idle gaps inside the window.
    int gate_count = 0;          ///< Non-BARRIER gates touching the qubit.

    /** Active window (first gate start to last gate finish). */
    double windowNs() const
    {
        return first_busy_ns < 0.0 ? 0.0 : last_busy_ns - first_busy_ns;
    }
};

/** Output of analyzeTiming(). */
struct TimingAnalysis
{
    double makespan_ns = 0.0; ///< Critical-path execution time.

    /** Per-gate ASAP start/finish (BARRIERs are zero-width events at the
     *  synchronization frontier). */
    std::vector<double> start_ns;
    std::vector<double> finish_ns;

    /** Gate indices on one critical path, in time order (no BARRIERs). */
    std::vector<int> critical_path;

    std::vector<QubitActivity> qubits; ///< Indexed by qubit.
    std::vector<IdleWindow> idle_windows; ///< All gaps, program order.

    /** Per-qubit decoherence-exposure factor
     *  exp(-window/T2 - idle/T1) in (0, 1]; idle qubits get 1. */
    std::vector<double> coherence;

    /** Product of the per-qubit factors — the decoherence-limited
     *  fidelity estimate that complements the gate-error ESP. */
    double coherence_factor = 1.0;
};

/** Runs the schedule sweep; O(gates + qubits). */
TimingAnalysis analyzeTiming(const circuit::Circuit &circuit,
                             const TimingOptions &options = {});

/**
 * Critical-path execution time in nanoseconds (convenience wrapper over
 * analyzeTiming; barriers synchronize).
 */
double executionTimeNs(const circuit::Circuit &circuit,
                       const GateDurations &durations = {});

/**
 * Legacy decoherence estimate: product over qubits of exp(-w_q / T2)
 * where w_q is the qubit's busy window.  Equivalent to analyzeTiming
 * with T1 = ∞.  @throws std::runtime_error when t2_ns <= 0.
 */
double decoherenceFactor(const circuit::Circuit &circuit,
                         double t2_ns = 70000.0,
                         const GateDurations &durations = {});

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_TIMING_HPP
