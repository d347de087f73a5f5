#include "sim/noise.hpp"

#include <vector>

#include "common/error.hpp"
#include "analysis/esp.hpp"

namespace qaoa::sim {

namespace {

/** Applies a uniformly random non-identity Pauli to qubit @p q. */
void
randomPauli1q(Statevector &state, int q, Rng &rng)
{
    switch (rng.uniformInt(0, 2)) {
      case 0:
        state.apply(circuit::Gate::x(q));
        break;
      case 1:
        state.apply(circuit::Gate::y(q));
        break;
      default:
        state.apply(circuit::Gate::z(q));
        break;
    }
}

/** Applies a random non-identity two-qubit Pauli (one of 15). */
void
randomPauli2q(Statevector &state, int a, int b, Rng &rng)
{
    int idx = rng.uniformInt(1, 15); // base-4 digit pair, 00 excluded
    int pa = idx & 3;
    int pb = (idx >> 2) & 3;
    auto apply_one = [&](int q, int p) {
        switch (p) {
          case 1: state.apply(circuit::Gate::x(q)); break;
          case 2: state.apply(circuit::Gate::y(q)); break;
          case 3: state.apply(circuit::Gate::z(q)); break;
          default: break;
        }
    };
    apply_one(a, pa);
    apply_one(b, pb);
}

} // namespace

Counts
noisySample(const circuit::Circuit &physical,
            const hw::CalibrationData &calib, std::uint64_t shots, Rng &rng,
            const NoiseOptions &opts)
{
    QAOA_CHECK(opts.trajectories >= 1, "need at least one trajectory");
    QAOA_CHECK(shots >= 1, "need at least one shot");

    // Measurement map (qubit, cbit) and per-qubit readout errors.
    std::vector<std::pair<int, int>> measures;
    for (const circuit::Gate &g : physical.gates())
        if (g.type == circuit::GateType::MEASURE)
            measures.emplace_back(g.q0, g.cbit);

    const std::uint64_t traj_count =
        static_cast<std::uint64_t>(opts.trajectories);
    Counts counts;
    for (std::uint64_t t = 0; t < traj_count; ++t) {
        std::uint64_t traj_shots = shots / traj_count +
                                   (t < shots % traj_count ? 1 : 0);
        if (traj_shots == 0)
            continue;

        Statevector state(physical.numQubits());
        for (const circuit::Gate &g : physical.gates()) {
            state.apply(g);
            if (g.type == circuit::GateType::MEASURE ||
                g.type == circuit::GateType::BARRIER)
                continue;
            double err = analysis::gateErrorRate(g, calib);
            if (err > 0.0 && rng.bernoulli(err)) {
                if (g.arity() == 2)
                    randomPauli2q(state, g.q0, g.q1, rng);
                else
                    randomPauli1q(state, g.q0, rng);
            }
        }

        Counts raw = state.sampleCounts(traj_shots, rng);
        for (const auto &[basis, count] : raw) {
            // Per-shot readout flips would be ideal; applying them per
            // basis-group shot keeps the cost linear in distinct
            // outcomes.
            for (std::uint64_t s = 0; s < count; ++s) {
                std::uint64_t bits = 0;
                for (const auto &[q, c] : measures) {
                    bool bit = (basis >> q) & 1ULL;
                    if (opts.readout_noise &&
                        rng.bernoulli(calib.readoutError(q)))
                        bit = !bit;
                    if (bit)
                        bits |= 1ULL << c;
                }
                ++counts[bits];
            }
        }
    }
    return counts;
}

} // namespace qaoa::sim
