/**
 * @file
 * ASAP layer partitioning.
 *
 * Conventional routers (§III, SWAP Insertion) partition the circuit into
 * layers of concurrently executable gates — gates in one layer touch
 * disjoint qubit sets.  This is also how we measure "number of layers" in
 * the IP/IC discussions.
 */

#ifndef QAOA_CIRCUIT_LAYERS_HPP
#define QAOA_CIRCUIT_LAYERS_HPP

#include <algorithm>
#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"

namespace qaoa::circuit {

/**
 * The one greedy ASAP (as-soon-as-possible) layering rule; depth(),
 * asapLayers(), gateLayers() and analysis::CircuitDag all read it.
 *
 * Each gate is placed in the earliest layer after the layers of all
 * gates it shares a qubit with.  A BARRIER synchronises every qubit to
 * the frontier (the number of layers opened so far) and occupies no
 * layer.  Calls @p visit(gate_index, layer) for every gate in program
 * order, a BARRIER with the frontier it closes, and returns the number
 * of layers.  Operands outside the register are clamped into it, so the
 * rule also runs on untrusted circuits (the verifier reads parsed QASM);
 * the only allocation is one counter per qubit.
 */
template <typename Visit>
int
forEachAsapLayer(const Circuit &circuit, Visit &&visit)
{
    const int n = circuit.numQubits();
    std::vector<int> ready(static_cast<std::size_t>(n), 0);
    const auto slot = [n](int q) {
        return static_cast<std::size_t>(std::clamp(q, 0, n - 1));
    };
    int count = 0;
    const std::vector<Gate> &gates = circuit.gates();
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.type == GateType::BARRIER) {
            std::fill(ready.begin(), ready.end(), count);
            visit(gi, count);
            continue;
        }
        int layer = ready[slot(g.q0)];
        if (g.arity() == 2)
            layer = std::max(layer, ready[slot(g.q1)]);
        ready[slot(g.q0)] = layer + 1;
        if (g.arity() == 2)
            ready[slot(g.q1)] = layer + 1;
        count = std::max(count, layer + 1);
        visit(gi, layer);
    }
    return count;
}

/**
 * ASAP layers as gate-index lists, in time order; BARRIERs are not
 * emitted.  Each layer holds indices into circuit.gates().
 */
std::vector<std::vector<std::size_t>> asapLayers(const Circuit &circuit);

/**
 * ASAP layer of every gate, indexed like circuit.gates(); a BARRIER gets
 * the layer it closes.  The verifier's diagnostic locations.
 */
std::vector<int> gateLayers(const Circuit &circuit);

/** Number of ASAP layers (equals asapLayers(c).size() and c.depth()). */
int layerCount(const Circuit &circuit);

/**
 * Rebuilds the circuit as its ASAP layers separated by BARRIERs.
 *
 * This reproduces the execution model of conventional layer-partitioning
 * backends (§III "SWAP Insertion", qiskit/Zulehner-style): the router
 * must satisfy one layer completely before starting the next, so the
 * *order* of commuting gates — the knob IP and IC turn — directly
 * controls layer count, SWAP pressure and depth.  Semantics are
 * unchanged (barriers are scheduling-only).
 */
Circuit withLayerBarriers(const Circuit &circuit);

} // namespace qaoa::circuit

#endif // QAOA_CIRCUIT_LAYERS_HPP
