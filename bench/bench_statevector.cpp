/**
 * @file
 * Statevector engine throughput: serial vs parallel gate application.
 *
 * Reports, per qubit count:
 *  - single-gate-sweep time (one kernel pass over every amplitude) for
 *    the diagonal fast path (CPHASE), a dedicated pair kernel (H/RX)
 *    and the generic dense-matrix fallback (U3), serial vs parallel,
 *    with the resulting speedup;
 *  - the QAOA mixer, RX(2β) on every qubit, as n RX gates through
 *    apply() and as one fused applyMixer() call, serial vs parallel.
 *    Both paths start from the same state and apply the same mixers;
 *    their final amplitudes must be equal bit for bit, or the bench
 *    exits 1;
 *  - end-to-end optimizeP1 latency (grid + Nelder–Mead over exact
 *    expected cut) on a ring MaxCut instance.  The serial and parallel
 *    optima (γ, β and the expected cut) must be equal bit for bit, or
 *    the bench exits 1.
 *
 * "Serial" pins par::setThreadCount(1); "parallel" restores automatic
 * resolution (QAOA_THREADS or hardware_concurrency), so QAOA_THREADS=8
 * ./bench_statevector compares 1 vs 8 threads.  Results are
 * bit-identical on both paths; the bench checks the mixer amplitudes
 * and the optimizeP1 optima.
 *
 * Default sizes: 16/20 qubits (and optimizeP1 at 16); --full adds the
 * 24-qubit sweeps and optimizeP1 at 20.
 */

#include <bit>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "circuit/gate.hpp"
#include "common/parallel.hpp"
#include "common/stopwatch.hpp"
#include "graph/generators.hpp"
#include "metrics/harness.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qaoa;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** One full sweep: the gate applied to every qubit in turn. */
double
sweepSeconds(sim::Statevector &state, const circuit::Gate &proto,
             int repeats)
{
    Stopwatch sw;
    for (int r = 0; r < repeats; ++r) {
        for (int q = 0; q < state.numQubits(); ++q) {
            circuit::Gate g = proto;
            g.q0 = q;
            if (g.arity() == 2)
                g.q1 = (q + 1) % state.numQubits();
            if (g.q1 == g.q0)
                g.q1 = (g.q0 + 1) % state.numQubits();
            state.apply(g);
        }
    }
    return sw.seconds() / repeats;
}

/** One mixer per repeat, as n RX gates or as one applyMixer() call. */
double
mixerSeconds(sim::Statevector &state, bool fused, double beta, int repeats)
{
    Stopwatch sw;
    for (int r = 0; r < repeats; ++r) {
        if (fused) {
            state.applyMixer(beta);
        } else {
            for (int q = 0; q < state.numQubits(); ++q)
                state.apply(circuit::Gate::rx(q, 2.0 * beta));
        }
    }
    return sw.seconds() / repeats;
}

bool
sameAmplitudes(const sim::Statevector &a, const sim::Statevector &b)
{
    for (std::uint64_t z = 0; z < (1ULL << a.numQubits()); ++z) {
        const sim::Complex x = a.amplitude(z), y = b.amplitude(z);
        if (!sameBits(x.real(), y.real()) || !sameBits(x.imag(), y.imag()))
            return false;
    }
    return true;
}

struct SweepRow
{
    const char *label;
    circuit::Gate proto;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchConfig config = bench::parseArgs(argc, argv);

    std::vector<int> sweep_sizes = {16, 20};
    std::vector<int> opt_sizes = {16};
    if (config.full) {
        sweep_sizes.push_back(24);
        opt_sizes.push_back(20);
    }

    std::cout << "# Statevector engine: serial vs parallel\n"
              << "# parallel threads: " << [] {
                     par::setThreadCount(0);
                     return par::threadCount();
                 }() << " (override with QAOA_THREADS)\n\n";

    const std::vector<SweepRow> kernels = {
        {"cphase (diag)", circuit::Gate::cphase(0, 1, 0.7)},
        {"h (pair)", circuit::Gate::h(0)},
        {"rx (pair)", circuit::Gate::rx(0, 1.3)},
        {"u3 (generic)", circuit::Gate::u3(0, 0.4, 0.2, 0.9)},
    };

    Table sweeps({"qubits", "kernel", "serial ms/sweep",
                  "parallel ms/sweep", "speedup"});
    for (int n : sweep_sizes) {
        const int repeats = n >= 24 ? 2 : (n >= 20 ? 4 : 16);
        for (const SweepRow &row : kernels) {
            sim::Statevector state(n);
            for (int q = 0; q < n; ++q)
                state.apply(circuit::Gate::h(q));

            par::setThreadCount(1);
            double serial = sweepSeconds(state, row.proto, repeats);

            par::setThreadCount(0);
            double parallel = sweepSeconds(state, row.proto, repeats);

            sweeps.addRow({Table::num(static_cast<long long>(n)),
                           row.label, Table::num(serial * 1e3),
                           Table::num(parallel * 1e3),
                           Table::num(parallel > 0.0 ? serial / parallel
                                                     : 0.0, 2)});
        }
    }
    bench::emit(config, "single-gate sweep throughput", sweeps);

    Table mixers({"qubits", "mixer", "serial ms/mixer",
                  "parallel ms/mixer", "speedup"});
    bool identical = true;
    for (int n : sweep_sizes) {
        const int repeats = n >= 24 ? 2 : (n >= 20 ? 4 : 16);
        const double beta = 0.37;
        // Distinct phases per qubit, so no amplitude pair is symmetric.
        sim::Statevector start(n);
        for (int q = 0; q < n; ++q) {
            start.apply(circuit::Gate::h(q));
            start.apply(circuit::Gate::rz(q, 0.1 * (q + 1)));
        }
        sim::Statevector gates = start, fused = start;
        for (sim::Statevector *state : {&gates, &fused}) {
            const bool is_fused = state == &fused;
            par::setThreadCount(1);
            const double serial = mixerSeconds(*state, is_fused, beta,
                                               repeats);
            par::setThreadCount(0);
            const double parallel = mixerSeconds(*state, is_fused, beta,
                                                 repeats);
            mixers.addRow({Table::num(static_cast<long long>(n)),
                           is_fused ? "applyMixer" : "n rx gates",
                           Table::num(serial * 1e3),
                           Table::num(parallel * 1e3),
                           Table::num(parallel > 0.0 ? serial / parallel
                                                     : 0.0, 2)});
        }
        if (!sameAmplitudes(gates, fused)) {
            std::cerr << "mixer at " << n
                      << " qubits: applyMixer and the RX gates differ\n";
            identical = false;
        }
    }
    bench::emit(config, "mixer: n RX gates vs one applyMixer", mixers);

    Table opt({"qubits", "serial s", "parallel s", "speedup",
               "expected cut (serial)", "expected cut (parallel)"});
    for (int n : opt_sizes) {
        graph::Graph ring = graph::cycleGraph(n);

        par::setThreadCount(1);
        Stopwatch sw_serial;
        metrics::P1Parameters serial = metrics::optimizeP1(ring);
        double serial_s = sw_serial.seconds();

        par::setThreadCount(0);
        Stopwatch sw_parallel;
        metrics::P1Parameters parallel = metrics::optimizeP1(ring);
        double parallel_s = sw_parallel.seconds();

        opt.addRow({Table::num(static_cast<long long>(n)),
                    Table::num(serial_s), Table::num(parallel_s),
                    Table::num(parallel_s > 0.0 ? serial_s / parallel_s
                                                : 0.0, 2),
                    Table::num(serial.expected_cut, 6),
                    Table::num(parallel.expected_cut, 6)});
        if (!sameBits(serial.expected_cut, parallel.expected_cut) ||
            !sameBits(serial.gamma, parallel.gamma) ||
            !sameBits(serial.beta, parallel.beta)) {
            std::cerr << "optimizeP1 on a " << n
                      << "-node ring: serial and parallel runs differ\n";
            identical = false;
        }
    }
    bench::emit(config, "optimizeP1 end-to-end latency", opt);

    par::setThreadCount(0);
    return identical ? 0 : 1;
}
