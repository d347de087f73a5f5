#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "analysis/dag.hpp"
#include "common/error.hpp"

namespace qaoa::analysis {

namespace {

using circuit::Gate;
using circuit::GateType;

Coupling
normalize(int a, int b)
{
    return {std::min(a, b), std::max(a, b)};
}

/** True when couplings @p x and @p y form a conflicting pair. */
bool
couplingsConflict(const std::vector<CrosstalkPair> &pairs,
                  const Coupling &x, const Coupling &y)
{
    for (const CrosstalkPair &p : pairs) {
        Coupling a = normalize(p.first.first, p.first.second);
        Coupling b = normalize(p.second.first, p.second.second);
        if ((x == a && y == b) || (x == b && y == a))
            return true;
    }
    return false;
}

/** Diagonal 1q rotations that merge into one U1 (QL101). */
bool
isZRotation(GateType t)
{
    return t == GateType::RZ || t == GateType::U1 || t == GateType::Z;
}

/** Diagonal 2q phases whose angles add (QL102). */
bool
isPhasePair(GateType t)
{
    return t == GateType::CPHASE || t == GateType::CZ;
}

/** Pure rotations that become identity (up to global phase) at angle
 *  0 mod 2pi (QL107). */
bool
isPlainRotation(GateType t)
{
    return t == GateType::RX || t == GateType::RY || t == GateType::RZ ||
           t == GateType::U1 || t == GateType::CPHASE;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    os.precision(4);
    os << v;
    return os.str();
}

/** Success rate of the gate's CNOT chain on edge reliability @p r. */
double
chainSuccess(double r, int cnots)
{
    double s = 1.0;
    for (int i = 0; i < cnots; ++i)
        s *= r;
    return s;
}

/** Number of CNOTs the 2q gate decomposes into. */
int
cnotCount(GateType t)
{
    switch (t) {
      case GateType::CNOT: return 1;
      case GateType::CZ:
      case GateType::CPHASE: return 2;
      case GateType::SWAP: return 3;
      default: return 0;
    }
}

/** Peephole rules QL101-QL107: mergeable/cancelling/removable gates. */
void
lintPeepholes(const CircuitDag &dag, const LintOptions &options,
              LintReport &report)
{
    const auto &gates = dag.circuit().gates();
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        const int i = static_cast<int>(gi);
        const int layer = g.type == GateType::BARRIER ? -1 : dag.layerOf(i);

        if (isZRotation(g.type)) {
            const int n = dag.nextOnQubit(i, g.q0);
            if (n >= 0 && isZRotation(gates[static_cast<std::size_t>(n)]
                                          .type))
                report.add(Rule::MergeableRz, i, layer, g.q0, -1,
                           "adjacent z-rotations (gates " +
                               std::to_string(i) + ", " +
                               std::to_string(n) + ") merge into one");
        }

        if (g.arity() == 2) {
            const int na = dag.nextOnQubit(i, g.q0);
            const int nb = dag.nextOnQubit(i, g.q1);
            // Same successor on both wires = nothing interposed.
            if (na >= 0 && na == nb) {
                const Gate &h = gates[static_cast<std::size_t>(na)];
                if (isPhasePair(g.type) && isPhasePair(h.type))
                    report.add(Rule::MergeableCphase, i, layer, g.q0,
                               g.q1,
                               "adjacent diagonal phases (gates " +
                                   std::to_string(i) + ", " +
                                   std::to_string(na) + ") merge");
                if (g.type == GateType::CNOT &&
                    h.type == GateType::CNOT && h.q0 == g.q0 &&
                    h.q1 == g.q1)
                    report.add(Rule::CancellingCnot, i, layer, g.q0,
                               g.q1,
                               "cnot pair (gates " + std::to_string(i) +
                                   ", " + std::to_string(na) +
                                   ") cancels to identity");
                if (g.type == GateType::SWAP && h.type == GateType::SWAP)
                    report.add(Rule::CancellingSwap, i, layer, g.q0,
                               g.q1,
                               "swap pair (gates " + std::to_string(i) +
                                   ", " + std::to_string(na) +
                                   ") cancels to identity");
            }
        }

        if (g.type == GateType::SWAP) {
            // Trailing when neither wire sees another 2q gate: the swap
            // only permutes labels the final layout already tracks.
            bool trailing = true;
            for (int q : {g.q0, g.q1}) {
                for (int n = dag.nextOnQubit(i, q); n >= 0;
                     n = dag.nextOnQubit(n, q)) {
                    if (gates[static_cast<std::size_t>(n)].arity() == 2) {
                        trailing = false;
                        break;
                    }
                }
                if (!trailing)
                    break;
            }
            if (trailing)
                report.add(Rule::TrailingSwap, i, layer, g.q0, g.q1,
                           "swap followed only by 1q gates; relabel via "
                           "the final layout instead");
        }

        if (g.type == GateType::H) {
            const int n = dag.nextOnQubit(i, g.q0);
            if (n >= 0 &&
                gates[static_cast<std::size_t>(n)].type == GateType::H)
                report.add(Rule::RedundantHadamard, i, layer, g.q0, -1,
                           "h-h pair (gates " + std::to_string(i) + ", " +
                               std::to_string(n) + ") cancels");
        }

        if (isPlainRotation(g.type)) {
            const double wrapped =
                std::remainder(g.params[0], 2.0 * std::numbers::pi);
            if (std::fabs(wrapped) <= options.zero_angle_eps)
                report.add(Rule::ZeroRotation, i, layer, g.q0, g.q1,
                           gateName(g.type) + "(" + fmt(g.params[0]) +
                               ") is identity up to global phase");
        }
    }
}

/** QL108: 2q gate on an edge with a strictly more reliable detour. */
void
lintUnreliableEdges(const CircuitDag &dag, const LintOptions &options,
                    LintReport &report)
{
    if (options.map == nullptr || options.calibration == nullptr)
        return;
    const hw::CouplingMap &map = *options.map;
    const hw::CalibrationData &calib = *options.calibration;
    const auto &gates = dag.circuit().gates();
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.arity() != 2 || g.q0 >= map.numQubits() ||
            g.q1 >= map.numQubits() || !map.coupled(g.q0, g.q1))
            continue;
        const int cnots = cnotCount(g.type);
        const double direct =
            chainSuccess(1.0 - calib.cnotError(g.q0, g.q1), cnots);
        // Detour through a common neighbor c: one SWAP onto (q0, c)
        // followed by the gate on (c, q1).
        double best = direct;
        int best_via = -1;
        for (int c : map.neighbors(g.q0)) {
            if (c == g.q1 || !map.coupled(c, g.q1))
                continue;
            const double alt =
                chainSuccess(1.0 - calib.cnotError(g.q0, c), 3) *
                chainSuccess(1.0 - calib.cnotError(c, g.q1), cnots);
            if (alt > best) {
                best = alt;
                best_via = c;
            }
        }
        if (best_via >= 0)
            report.add(Rule::UnreliableEdge, static_cast<int>(gi),
                       dag.layerOf(static_cast<int>(gi)), g.q0, g.q1,
                       "edge success " + fmt(direct) + " but detour via q" +
                           std::to_string(best_via) + " reaches " +
                           fmt(best));
    }
}

/** QL109/QL110: idle windows and active windows against the T2 budget. */
void
lintTiming(const CircuitDag &dag, const LintOptions &options,
           LintReport &report)
{
    TimingOptions topts;
    topts.durations = options.durations;
    topts.t2_ns = options.t2_ns;
    topts.calibration = options.calibration;
    const TimingAnalysis timing = analyzeTiming(dag.circuit(), topts);

    auto t2_of = [&](int q) {
        return options.calibration != nullptr &&
                       q < options.calibration->numQubits()
                   ? options.calibration->t2Ns(q)
                   : options.t2_ns;
    };

    for (const IdleWindow &w : timing.idle_windows) {
        const double budget = options.idle_budget_fraction * t2_of(w.qubit);
        if (w.length_ns() > budget)
            report.add(Rule::LongIdleWindow, w.before_gate,
                       dag.layerOf(w.before_gate), w.qubit, -1,
                       "idle " + fmt(w.length_ns()) + " ns exceeds " +
                           fmt(budget) + " ns (" +
                           fmt(options.idle_budget_fraction) + " x T2)");
    }
    for (std::size_t q = 0; q < timing.qubits.size(); ++q) {
        const double window = timing.qubits[q].windowNs();
        const double budget =
            options.exposure_budget_fraction * t2_of(static_cast<int>(q));
        if (window > budget)
            report.add(Rule::DecoherenceExposure, -1, -1,
                       static_cast<int>(q), -1,
                       "active window " + fmt(window) + " ns exceeds " +
                           fmt(budget) + " ns (" +
                           fmt(options.exposure_budget_fraction) +
                           " x T2)");
    }
}

/** QL112/QL113/QL114: shape metrics (hotspots, occupancy, swaps). */
void
lintShape(const CircuitDag &dag, const LintOptions &options,
          LintReport &report)
{
    const circuit::Circuit &c = dag.circuit();
    const int depth = dag.layerCount();
    if (depth >= options.min_depth) {
        int used = 0;
        double total_len = 0.0;
        for (int q = 0; q < c.numQubits(); ++q) {
            if (dag.gatesOn(q).empty())
                continue;
            ++used;
            total_len += static_cast<double>(dag.gatesOn(q).size());
        }
        const double mean_len = used > 0 ? total_len / used : 0.0;
        for (int q = 0; q < c.numQubits(); ++q) {
            const double len =
                static_cast<double>(dag.gatesOn(q).size());
            if (len >= options.hotspot_fraction * depth &&
                len >= 2.0 * mean_len)
                report.add(Rule::DepthHotspot, -1, -1, q, -1,
                           "qubit chain of " + fmt(len) +
                               " gates dominates depth " +
                               std::to_string(depth) + " (mean chain " +
                               fmt(mean_len) + ")");
        }
        if (used >= 4) {
            const double occupancy =
                static_cast<double>(c.gateCount()) / depth;
            if (occupancy < options.parallelism_floor)
                report.add(Rule::LowParallelism,
                           "mean layer occupancy " + fmt(occupancy) +
                               " below " +
                               fmt(options.parallelism_floor) + " across " +
                               std::to_string(used) + " used qubits");
        }
    }
    const int swaps = c.countType(GateType::SWAP);
    const int other_2q = c.twoQubitGateCount() - swaps;
    if (other_2q > 0 &&
        swaps > options.swap_overhead_ratio * other_2q)
        report.add(Rule::SwapOverhead,
                   std::to_string(swaps) + " swaps for " +
                       std::to_string(other_2q) +
                       " interaction gates (ratio above " +
                       fmt(options.swap_overhead_ratio) + ")");
}

} // namespace

std::vector<Diagnostic>
findCrosstalkClashes(const circuit::Circuit &physical,
                     const std::vector<CrosstalkPair> &pairs)
{
    std::vector<Diagnostic> clashes;
    if (pairs.empty())
        return clashes;
    const CircuitDag dag(physical);
    // Gather 2q gates per ASAP layer, then test every unordered pair.
    std::vector<std::vector<int>> by_layer(
        static_cast<std::size_t>(dag.layerCount()));
    const auto &gates = physical.gates();
    for (std::size_t gi = 0; gi < gates.size(); ++gi)
        if (circuit::isTwoQubit(gates[gi].type))
            by_layer[static_cast<std::size_t>(
                         dag.layerOf(static_cast<int>(gi)))]
                .push_back(static_cast<int>(gi));
    for (std::size_t li = 0; li < by_layer.size(); ++li) {
        const auto &layer = by_layer[li];
        for (std::size_t i = 0; i < layer.size(); ++i) {
            const Gate &a = gates[static_cast<std::size_t>(layer[i])];
            for (std::size_t j = i + 1; j < layer.size(); ++j) {
                const Gate &b = gates[static_cast<std::size_t>(layer[j])];
                if (!couplingsConflict(pairs, normalize(a.q0, a.q1),
                                       normalize(b.q0, b.q1)))
                    continue;
                clashes.push_back(
                    {Rule::CrosstalkClash, Rule::CrosstalkClash.severity,
                     layer[j], static_cast<int>(li), b.q0, b.q1,
                     "co-scheduled with " + a.toString() + " (gate " +
                         std::to_string(layer[i]) +
                         ") on a crosstalk-prone coupling pair"});
            }
        }
    }
    return clashes;
}

LintReport
lintCircuit(const circuit::Circuit &physical, const LintOptions &options)
{
    LintReport report;
    const CircuitDag dag(physical);
    lintPeepholes(dag, options, report);
    lintUnreliableEdges(dag, options, report);
    lintTiming(dag, options, report);
    lintShape(dag, options, report);
    for (Diagnostic &d : findCrosstalkClashes(physical,
                                              options.crosstalk_pairs))
        report.add(std::move(d));
    return report;
}

} // namespace qaoa::analysis
