/**
 * @file
 * Structured diagnostics shared by the translation-validation verifier
 * (QV rules, verify/diagnostics.hpp) and the static quality linter (QL
 * rules, analysis/diagnostics.hpp).
 *
 * A rule catalogue is data: one constexpr RuleInfo row per rule with its
 * stable ID, kebab-case name and default severity.  Findings are
 * Diagnostic records anchored to a gate/layer source location, and a
 * DiagnosticReport aggregates them and renders them through common/table
 * (text and CSV) so CLI and CI output from both subsystems stay uniform.
 */

#ifndef QAOA_COMMON_DIAGNOSTICS_HPP
#define QAOA_COMMON_DIAGNOSTICS_HPP

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.hpp"

namespace qaoa {

/** Finding severity, ordered from advisory to fatal. */
enum class Severity {
    Info,    ///< Advisory signal; healthy circuits may carry it.
    Warning, ///< Suspicious or wasteful structure.
    Error,   ///< Semantic violation or missed budget.
};

/** One catalogue row: stable ID (never renumbered), name, severity. */
struct RuleInfo
{
    const char *id = "";                 ///< e.g. "QV001".
    const char *name = "";               ///< e.g. "illegal-coupling".
    Severity severity = Severity::Error; ///< Severity its findings carry.

    /** Rules are identified by their ID. */
    friend constexpr bool
    operator==(const RuleInfo &a, const RuleInfo &b)
    {
        return std::string_view(a.id) == b.id;
    }
};

/** One finding, anchored to a gate when one is implicated. */
struct Diagnostic
{
    RuleInfo rule;
    Severity severity = Severity::Error;
    int gate_index = -1; ///< Index into circuit.gates(); -1 = whole-circuit.
    int layer = -1;      ///< ASAP layer of the gate; -1 when not located.
    int q0 = -1;         ///< Implicated qubit (physical unless noted).
    int q1 = -1;         ///< Second implicated qubit; -1 when unused.
    std::string message; ///< Human-readable detail.
};

/**
 * Aggregated findings of one verification or lint run.
 *
 * clean(bar) is parameterized by the failure bar: the default (Error) is
 * the verifier's "semantically valid" bar, Warning is the linter's
 * default, and spotless() tolerates nothing.
 */
class DiagnosticReport
{
  public:
    /** Appends a fully built diagnostic. */
    void add(Diagnostic d);

    /** Builds and appends a diagnostic with the rule's severity. */
    void add(const RuleInfo &rule, int gate_index, int layer, int q0, int q1,
             std::string message);

    /** Appends a whole-circuit diagnostic (no gate location). */
    void add(const RuleInfo &rule, std::string message);

    /** Moves every finding of @p other into this report. */
    void merge(DiagnosticReport other);

    /** All findings in detection order. */
    [[nodiscard]] const std::vector<Diagnostic> &
    diagnostics() const
    {
        return diags_;
    }

    /** Number of findings at exactly @p s. */
    [[nodiscard]] int count(Severity s) const;

    /** Findings carrying @p rule. */
    [[nodiscard]] int count(const RuleInfo &rule) const;

    /** True when no finding reaches severity @p bar. */
    [[nodiscard]] bool clean(Severity bar = Severity::Error) const;

    /** True when nothing at all was found. */
    [[nodiscard]] bool spotless() const { return diags_.empty(); }

    /** One-line digest without zero counts, e.g.
     *  "2 errors, 1 warning (QV001 x2, QV009)". */
    [[nodiscard]] std::string summary() const;

    /** Findings as a common/table (rule, name, severity, gate, layer,
     *  qubits, detail) for text or CSV rendering. */
    [[nodiscard]] Table toTable() const;

    /** Renders the findings table plus a "<label>: <summary>" line. */
    void print(std::ostream &os, const char *label, bool csv = false) const;

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace qaoa

#endif // QAOA_COMMON_DIAGNOSTICS_HPP
