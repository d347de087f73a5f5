/**
 * @file
 * Dense statevector simulator.
 *
 * Exact simulation of the library's gate set for up to 26 qubits (the
 * evaluation needs at most 20 for ibmq_20_tokyo; the 6x6-grid studies
 * reach 24+).  This is the "qiskit simulator" stand-in used to obtain
 * the noiseless approximation ratio r0 of the ARG metric (§V-A).
 *
 * Gate application dispatches to specialized kernels (see apply()):
 * diagonal gates touch each amplitude exactly once with one multiply;
 * X/H/RX/CNOT/SWAP use dedicated pair kernels; everything else falls
 * back to the generic dense 2x2/4x4 matrix product.  applyMixer() is
 * the QAOA mixer, RX on every qubit, as one fused sweep.  All amplitude
 * sweeps run through qaoa::par::parallelFor, so large registers use
 * every core (QAOA_THREADS / par::setThreadCount) while results stay
 * bit-identical to the single-threaded path.
 */

#ifndef QAOA_SIM_STATEVECTOR_HPP
#define QAOA_SIM_STATEVECTOR_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/guard.hpp"
#include "common/rng.hpp"
#include "sim/gate_matrix.hpp"

namespace qaoa::sim {

/** Counts of measured bitstrings (key = basis state index). */
using Counts = std::map<std::uint64_t, std::uint64_t>;

/**
 * Dense complex statevector over n qubits.
 *
 * Qubit i is bit i of the basis-state index.  Gates are applied in place;
 * MEASURE and BARRIER gates are ignored by apply() (sampling handles
 * measurement — see sampleCounts()).
 */
class Statevector
{
  public:
    /**
     * Initializes |0...0> over @p num_qubits qubits.
     *
     * With a non-null @p guard, the allocation is first checked
     * against the guard's max_statevector_bytes limit (16 bytes per
     * amplitude) — ResourceExceededError instead of an OOM kill — and
     * apply(Circuit) polls the guard once per gate.  The guard is
     * non-owning and must outlive the statevector.
     */
    explicit Statevector(int num_qubits,
                         const run::RunGuard *guard = nullptr);

    /** Bytes the amplitudes of @p num_qubits qubits take (16 per
     *  amplitude); throws unless 1 <= num_qubits <= 26. */
    static std::uint64_t allocationBytes(int num_qubits);

    /** Number of qubits. */
    int numQubits() const { return num_qubits_; }

    /** Amplitude of basis state @p index. */
    Complex amplitude(std::uint64_t index) const;

    /**
     * Applies one gate (unitaries only; MEASURE/BARRIER are no-ops).
     *
     * Kernel dispatch: Z/RZ/U1 -> 1q diagonal, CZ/CPHASE -> 2q
     * diagonal, X/H/RX -> dedicated pair kernels, CNOT/SWAP ->
     * permutation kernels, Y/RY/U2/U3 -> generic applyMatrix1q().
     */
    void apply(const circuit::Gate &g);

    /** Applies every gate of a circuit in order. */
    void apply(const circuit::Circuit &circuit);

    /**
     * The QAOA mixer: RX(2·@p beta) on qubits 0..n-1, in that order, in
     * one call, bit for bit equal to n apply(Gate::rx(q, 2·beta)) calls.
     *
     * The butterfly is real arithmetic doing exactly the IEEE operations
     * of the RX kernel's complex products, including the products with
     * the zero real part of -i·sin(θ/2) that decide the sign of zeros.
     * Qubits 0..10 run block by block over fixed L1-sized blocks of
     * 2^11 amplitudes, the rest as full sweeps; every pass runs through
     * par::parallelFor over block-aligned amplitude ranges.
     * The guard is polled once per call.
     */
    void applyMixer(double beta);

    /** Applies an explicit 2x2 unitary to qubit @p q (generic path). */
    void applyMatrix1q(const Matrix2 &m, int q);

    /** Applies an explicit 4x4 unitary (q_low = low bit, q_high = high). */
    void applyMatrix2q(const Matrix4 &m, int q_low, int q_high);

    /**
     * Level-indexed diagonal kernels: @p level gives each basis state z
     * a small integer level[z], a std::uint8_t or std::uint16_t (the
     * diagonal QAOA evaluation passes the number of edges z cuts,
     * metrics/cut_table.hpp).  level.size()
     * must be 2^n and, where a table is indexed, every level[z] must be
     * below table.size().  The two in-place kernels run through
     * par::parallelFor and poll the guard once per pass.
     *
     * loadByLevel() sets amps[z] = table[level[z]], replacing the state.
     */
    template <typename Level>
    void loadByLevel(const std::vector<Level> &level,
                     const std::vector<Complex> &table);

    /** amps[z] *= phase, applied level[z] times in sequence: the
     *  product that level[z] separate diagonal gate passes make. */
    template <typename Level>
    void applyPhasePowers(const std::vector<Level> &level, Complex phase);

    /** Sum of |amps[z]|^2 * value[level[z]] over the states of nonzero
     *  probability, added serially in basis order so the result does
     *  not depend on the thread count. */
    template <typename Level>
    double levelExpectation(const std::vector<Level> &level,
                            const std::vector<double> &value) const;

    /** Probability of each basis state (|amp|^2). */
    std::vector<double> probabilities() const;

    /** Probability that qubit @p q measures 1. */
    double probabilityOfOne(int q) const;

    /**
     * Projects qubit @p q onto the given measurement outcome and
     * renormalizes (used by trajectory noise channels).
     *
     * @throws std::runtime_error when the outcome has zero probability.
     */
    void collapse(int q, bool outcome);

    /**
     * Samples @p shots measurement outcomes of all qubits.
     *
     * Shots never land on zero-probability basis states: inverse-CDF
     * lookups that fall past the last nonzero-probability entry (a flat
     * CDF tail) are clamped to that entry, not to the raw last index.
     *
     * @return Histogram basis-state index -> count.
     */
    Counts sampleCounts(std::uint64_t shots, Rng &rng) const;

    /** Squared norm (should stay 1 within numerical error). */
    double norm() const;

    /**
     * Fidelity-style overlap |<this|other>|^2 — used by tests to compare
     * circuits up to global phase.
     */
    double overlap(const Statevector &other) const;

  private:
    /** amps[i] *= (bit set ? d1 : d0) — no amplitude pairing. */
    void applyDiag1q(int q, Complex d0, Complex d1);

    /** amps[i] *= d[high bit << 1 | low bit] — no amplitude pairing. */
    void applyDiag2q(int q_low, int q_high, Complex d00, Complex d01,
                     Complex d10, Complex d11);

    void applyXKernel(int q);
    void applyHKernel(int q);
    void applyRXKernel(int q, double theta);
    void applyCnotKernel(int control, int target);
    void applySwapKernel(int a, int b);

    int num_qubits_;
    const run::RunGuard *guard_ = nullptr; ///< Polled per gate; may be null.
    std::vector<Complex> amps_;
};

/**
 * Runs a circuit from |0...0> and samples its measured classical bits.
 *
 * Honors the MEASURE gates: classical bit `cbit` receives the outcome of
 * the measured qubit, so compiled circuits (whose measured physical
 * qubits differ from the logical indices) produce logically-indexed
 * bitstrings.  Qubits without a MEASURE gate contribute 0 bits.
 *
 * A circuit with no MEASURE gates at all returns the raw basis-state
 * counts (every qubit implicitly measured into its own index) instead
 * of collapsing every shot onto bitstring 0.
 *
 * @return Histogram over classical bitstrings.
 */
Counts runAndSample(const circuit::Circuit &circuit, std::uint64_t shots,
                    Rng &rng);

} // namespace qaoa::sim

#endif // QAOA_SIM_STATEVECTOR_HPP
