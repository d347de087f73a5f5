/**
 * @file
 * Rule catalogue of the static circuit-quality linter.
 *
 * Quality findings are reported through the shared common/diagnostics
 * report with a stable rule ID (QL101...), a severity, and the gate/layer
 * source location, exactly as the verifier's QV rules
 * (verify/diagnostics.hpp).  The catalogues are deliberately disjoint:
 * QV rules certify *correctness* (the compiled circuit computes the right
 * thing), QL rules measure *quality* (the compiled circuit wastes gates,
 * time, or fidelity).  A circuit can be QV clean and QL dirty, and vice
 * versa.
 */

#ifndef QAOA_ANALYSIS_DIAGNOSTICS_HPP
#define QAOA_ANALYSIS_DIAGNOSTICS_HPP

#include "common/diagnostics.hpp"

namespace qaoa::analysis {

/** Aggregated findings of one lint run; the linter's failure bar is
 *  clean(Severity::Warning), its strict bar spotless(). */
using LintReport = DiagnosticReport;

/**
 * Quality-rule catalogue (stable IDs; never renumber, only append).
 *
 * Errors are reserved for budget violations (an explicit bar was set and
 * missed); warnings flag structure a quality-preserving compiler should
 * never emit (removable gates); infos are advisory cost-model signals
 * that healthy circuits may legitimately carry.
 */
struct Rule
{
    /** Adjacent RZ/U1 rotations on one qubit with nothing between them
     *  (mergeable). */
    static constexpr RuleInfo MergeableRz{"QL101", "mergeable-rz",
                                          Severity::Warning};
    /** Adjacent CPHASE/CZ on the same pair with no interposed gate
     *  (angles add). */
    static constexpr RuleInfo MergeableCphase{"QL102", "mergeable-cphase",
                                              Severity::Warning};
    /** Adjacent identical CNOT pair (cancels to identity). */
    static constexpr RuleInfo CancellingCnot{"QL103", "cancelling-cnot",
                                             Severity::Warning};
    /** Adjacent SWAP-SWAP on the same pair.  Advisory: the paper-faithful
     *  layered router legitimately emits these on sparse topologies (the
     *  peephole pass removes them when enabled). */
    static constexpr RuleInfo CancellingSwap{"QL104", "cancelling-swap",
                                             Severity::Info};
    /** SWAP followed only by 1q gates and measurements on both wires
     *  (relabel instead). */
    static constexpr RuleInfo TrailingSwap{"QL105", "trailing-swap",
                                           Severity::Warning};
    /** Adjacent H-H pair on one qubit. */
    static constexpr RuleInfo RedundantHadamard{
        "QL106", "redundant-hadamard", Severity::Warning};
    /** RZ/U1/CPHASE with angle = 0 (mod 2pi). */
    static constexpr RuleInfo ZeroRotation{"QL107", "zero-rotation",
                                           Severity::Warning};
    /** 2q gate on an edge when a strictly more reliable route existed
     *  under the current mapping. */
    static constexpr RuleInfo UnreliableEdge{"QL108", "unreliable-edge",
                                             Severity::Info};
    /** Idle gap on an active qubit exceeding the T2 budget fraction. */
    static constexpr RuleInfo LongIdleWindow{"QL109", "long-idle-window",
                                             Severity::Info};
    /** Qubit active window exceeding the T2 budget fraction. */
    static constexpr RuleInfo DecoherenceExposure{
        "QL110", "decoherence-exposure", Severity::Info};
    /** Known crosstalk pair co-scheduled in one layer. */
    static constexpr RuleInfo CrosstalkClash{"QL111", "crosstalk-clash",
                                             Severity::Warning};
    /** One qubit's gate chain dominates the circuit depth. */
    static constexpr RuleInfo DepthHotspot{"QL112", "depth-hotspot",
                                           Severity::Info};
    /** Average layer occupancy far below the used-qubit count. */
    static constexpr RuleInfo LowParallelism{"QL113", "low-parallelism",
                                             Severity::Info};
    /** Routing SWAP overhead above threshold of the 2q gate count. */
    static constexpr RuleInfo SwapOverhead{"QL114", "swap-overhead",
                                           Severity::Info};
    /** An explicit --budget bar was missed. */
    static constexpr RuleInfo BudgetViolation{"QL115", "budget-violation",
                                              Severity::Error};
};

} // namespace qaoa::analysis

#endif // QAOA_ANALYSIS_DIAGNOSTICS_HPP
