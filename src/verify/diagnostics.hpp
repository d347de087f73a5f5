/**
 * @file
 * Rule catalogue of the translation-validation verifier.
 *
 * Every check in verify/ reports findings through the shared
 * common/diagnostics report with a stable rule ID (QV001...), a
 * severity, and the gate/layer source location inside the offending
 * circuit.
 */

#ifndef QAOA_VERIFY_DIAGNOSTICS_HPP
#define QAOA_VERIFY_DIAGNOSTICS_HPP

#include "common/diagnostics.hpp"

namespace qaoa::verify {

/** Aggregated findings of one verification run: clean() ignores warnings
 *  (the compile is semantically valid); spotless() is the
 *  --verify-strict bar (no findings at all). */
using VerifyReport = DiagnosticReport;

/**
 * Rule catalogue (stable IDs; never renumber, only append).
 *
 * Errors break the semantics of the compiled circuit; warnings flag
 * suspicious-but-not-provably-wrong structure.
 */
struct Rule
{
    /** 2q gate on a non-edge of the device. */
    static constexpr RuleInfo IllegalCoupling{"QV001", "illegal-coupling",
                                              Severity::Error};
    /** Gate touches a dead/masked qubit. */
    static constexpr RuleInfo MaskedQubit{"QV002", "masked-qubit",
                                          Severity::Error};
    /** Replayed final mapping differs from the mapping the compiler
     *  reported. */
    static constexpr RuleInfo MappingMismatch{"QV003", "mapping-mismatch",
                                              Severity::Error};
    /** Expected logical ZZ term absent. */
    static constexpr RuleInfo MissingInteraction{
        "QV004", "missing-interaction", Severity::Error};
    /** Entangling operation with no counterpart in the source problem. */
    static constexpr RuleInfo SpuriousInteraction{
        "QV005", "spurious-interaction", Severity::Error};
    /** ZZ pair present, angle wrong. */
    static constexpr RuleInfo WrongAngle{"QV006", "wrong-angle",
                                         Severity::Error};
    /** Unitary on an already-measured qubit. */
    static constexpr RuleInfo GateAfterMeasure{"QV007", "gate-after-measure",
                                               Severity::Error};
    /** NaN/Inf/denormal gate parameter. */
    static constexpr RuleInfo BadAngle{"QV008", "bad-angle",
                                       Severity::Error};
    /** Initially mapped qubit never touched. */
    static constexpr RuleInfo UnusedQubit{"QV009", "unused-qubit",
                                          Severity::Warning};
    /** Gate order not reachable from the reference order by commuting
     *  exchanges. */
    static constexpr RuleInfo NonCommutingReorder{
        "QV010", "non-commuting-reorder", Severity::Error};
    /** Classical bit != logical qubit held by the measured physical
     *  qubit. */
    static constexpr RuleInfo MeasureMismatch{"QV011", "measure-mismatch",
                                              Severity::Error};
    /** Operand outside the register or a two-qubit gate with q0 == q1. */
    static constexpr RuleInfo OperandRange{"QV012", "operand-range",
                                           Severity::Error};
    /** Non-SWAP gate on a physical qubit holding no logical qubit. */
    static constexpr RuleInfo UnmappedQubit{"QV013", "unmapped-qubit",
                                            Severity::Error};
};

} // namespace qaoa::verify

#endif // QAOA_VERIFY_DIAGNOSTICS_HPP
