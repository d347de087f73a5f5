#include "common/diagnostics.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

namespace qaoa {
namespace {

/** "info" / "warning" / "error". */
const char *
severityName(Severity s)
{
    static constexpr const char *kNames[] = {"info", "warning", "error"};
    return kNames[static_cast<int>(s)];
}

} // namespace

void
DiagnosticReport::add(Diagnostic d)
{
    diags_.push_back(std::move(d));
}

void
DiagnosticReport::add(const RuleInfo &rule, int gate_index, int layer,
                      int q0, int q1, std::string message)
{
    add(Diagnostic{rule, rule.severity, gate_index, layer, q0, q1,
                   std::move(message)});
}

void
DiagnosticReport::add(const RuleInfo &rule, std::string message)
{
    add(rule, -1, -1, -1, -1, std::move(message));
}

void
DiagnosticReport::merge(DiagnosticReport other)
{
    for (Diagnostic &d : other.diags_)
        add(std::move(d));
}

int
DiagnosticReport::count(Severity s) const
{
    return static_cast<int>(
        std::count_if(diags_.begin(), diags_.end(),
                      [&](const Diagnostic &d) { return d.severity == s; }));
}

int
DiagnosticReport::count(const RuleInfo &rule) const
{
    return static_cast<int>(
        std::count_if(diags_.begin(), diags_.end(),
                      [&](const Diagnostic &d) { return d.rule == rule; }));
}

bool
DiagnosticReport::clean(Severity bar) const
{
    return std::none_of(diags_.begin(), diags_.end(),
                        [&](const Diagnostic &d) { return d.severity >= bar; });
}

std::string
DiagnosticReport::summary() const
{
    if (diags_.empty())
        return "clean";
    std::ostringstream os;
    bool lead = false;
    auto emit = [&](int n, const char *noun) {
        if (n == 0)
            return;
        if (lead)
            os << ", ";
        lead = true;
        os << n << " " << noun << (n == 1 ? "" : "s");
    };
    emit(count(Severity::Error), "error");
    emit(count(Severity::Warning), "warning");
    emit(count(Severity::Info), "info");
    // Stable per-rule counts, ordered by rule ID.
    std::map<std::string, int> by_rule;
    for (const Diagnostic &d : diags_)
        ++by_rule[d.rule.id];
    os << " (";
    bool first = true;
    for (const auto &[id, n] : by_rule) {
        if (!first)
            os << ", ";
        first = false;
        os << id;
        if (n > 1)
            os << " x" << n;
    }
    os << ")";
    return os.str();
}

Table
DiagnosticReport::toTable() const
{
    Table t({"rule", "name", "severity", "gate", "layer", "qubits",
             "detail"});
    for (const Diagnostic &d : diags_) {
        std::ostringstream qubits;
        if (d.q0 >= 0) {
            qubits << "q" << d.q0;
            if (d.q1 >= 0)
                qubits << ",q" << d.q1;
        } else {
            qubits << "-";
        }
        t.addRow({d.rule.id, d.rule.name, severityName(d.severity),
                  d.gate_index >= 0 ? std::to_string(d.gate_index) : "-",
                  d.layer >= 0 ? std::to_string(d.layer) : "-",
                  qubits.str(), d.message});
    }
    return t;
}

void
DiagnosticReport::print(std::ostream &os, const char *label, bool csv) const
{
    if (!diags_.empty()) {
        Table t = toTable();
        if (csv)
            t.printCsv(os);
        else
            t.print(os);
    }
    os << label << ": " << summary() << "\n";
}

} // namespace qaoa
