/** @file
 * The shared diagnostics report (common/diagnostics) and the two rule
 * catalogues it renders: the verifier's QV rules and the quality
 * linter's QL rules.
 *
 * The catalogues are data rather than switches, so one test checks
 * what -Wswitch used to: every rule is listed, IDs are contiguous, names
 * are unique kebab-case, and severities match the DESIGN tables.
 *
 * Each report below is rendered as its text table, its CSV and its
 * summary() line, and the result is compared line by line with
 * tests/golden/diagnostics_render.txt.  There is deliberately no switch
 * that rewrites the file.  A mismatch prints every line that differs; a
 * change that is meant to alter the rendering regenerates the file from
 * those lines in a commit of its own that says why.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "verify/diagnostics.hpp"

namespace qaoa {
namespace {

/** Every QV rule, in ID order. */
std::vector<RuleInfo>
qvRules()
{
    using verify::Rule;
    return {Rule::IllegalCoupling,     Rule::MaskedQubit,
            Rule::MappingMismatch,     Rule::MissingInteraction,
            Rule::SpuriousInteraction, Rule::WrongAngle,
            Rule::GateAfterMeasure,    Rule::BadAngle,
            Rule::UnusedQubit,         Rule::NonCommutingReorder,
            Rule::MeasureMismatch,     Rule::OperandRange,
            Rule::UnmappedQubit};
}

/** Every QL rule, in ID order. */
std::vector<RuleInfo>
qlRules()
{
    using analysis::Rule;
    return {Rule::MergeableRz,         Rule::MergeableCphase,
            Rule::CancellingCnot,      Rule::CancellingSwap,
            Rule::TrailingSwap,        Rule::RedundantHadamard,
            Rule::ZeroRotation,        Rule::UnreliableEdge,
            Rule::LongIdleWindow,      Rule::DecoherenceExposure,
            Rule::CrosstalkClash,      Rule::DepthHotspot,
            Rule::LowParallelism,      Rule::SwapOverhead,
            Rule::BudgetViolation};
}

/** Adds every rule of a catalogue once, cycling through the three
 *  locations a finding can carry: whole circuit, one qubit, and a qubit
 *  pair whose message holds commas. */
DiagnosticReport
everyRule(const std::vector<RuleInfo> &rules)
{
    DiagnosticReport r;
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const int k = static_cast<int>(i);
        switch (k % 3) {
          case 0:
            r.add(rules[i], "whole-circuit finding " + std::to_string(k));
            break;
          case 1:
            r.add(rules[i], k, k / 2, k, -1,
                  "one-qubit finding on q" + std::to_string(k));
            break;
          default:
            r.add(rules[i], k, k / 2, 0, 5,
                  "ZZ(0,5) has angle 0.5, expected 0.25");
            break;
        }
    }
    return r;
}

void
renderSection(std::ostream &os, const std::string &name,
              const DiagnosticReport &r)
{
    os << "== " << name << ": table\n";
    r.toTable().print(os);
    os << "== " << name << ": csv\n";
    r.toTable().printCsv(os);
    os << "== " << name << ": summary\n" << r.summary() << "\n";
}

/** Every pinned report, rendered in file order. */
std::string
renderAll()
{
    std::ostringstream os;
    renderSection(os, "qv every rule", everyRule(qvRules()));

    verify::VerifyReport qv_warn;
    qv_warn.add(verify::Rule::UnusedQubit, -1, -1, 4, -1,
                "physical qubit 4 is mapped but never used");
    renderSection(os, "qv warnings only", qv_warn);

    renderSection(os, "ql every rule", everyRule(qlRules()));

    analysis::LintReport ql_info;
    ql_info.add(analysis::Rule::LongIdleWindow, 7, 3, 2, -1,
                "idle 900 ns, budget 450 ns");
    ql_info.add(analysis::Rule::SwapOverhead,
                "6 swaps for 4 interaction gates (ratio above 1.00)");
    renderSection(os, "ql infos only", ql_info);
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(DiagnosticsRender, MatchesGolden)
{
    std::ifstream in(QAOA_GOLDEN_DIAGNOSTICS);
    ASSERT_TRUE(in.good()) << "cannot open " << QAOA_GOLDEN_DIAGNOSTICS;
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line))
        if (line.empty() || line[0] != '#')
            expected.push_back(line);
    const std::vector<std::string> actual = splitLines(renderAll());

    int mismatches = 0;
    const std::size_t n = std::max(expected.size(), actual.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string want =
            i < expected.size() ? expected[i] : "(missing)";
        const std::string got = i < actual.size() ? actual[i] : "(missing)";
        if (want == got)
            continue;
        ++mismatches;
        ADD_FAILURE() << "render line " << i + 1 << " differs"
                      << "\n  expected: " << want
                      << "\n  actual:   " << got;
    }
    EXPECT_EQ(mismatches, 0) << "of " << actual.size() << " lines";
}

/** Splits RFC 4180 CSV text into rows of unquoted cells. */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows(1);
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char ch = text[i];
        if (quoted) {
            if (ch != '"')
                cell += ch;
            else if (i + 1 < text.size() && text[i + 1] == '"')
                cell += text[++i];
            else
                quoted = false;
        } else if (ch == '"') {
            quoted = true;
        } else if (ch == ',') {
            rows.back().push_back(cell);
            cell.clear();
        } else if (ch == '\n') {
            rows.back().push_back(cell);
            cell.clear();
            rows.emplace_back();
        } else {
            cell += ch;
        }
    }
    rows.pop_back(); // after the final newline
    return rows;
}

void
expectCsvKeepsHeaderWidth(const DiagnosticReport &r)
{
    std::ostringstream os;
    r.toTable().printCsv(os);
    const auto rows = parseCsv(os.str());
    ASSERT_EQ(rows.size(), r.toTable().rowCount() + 1);
    const std::size_t width = rows[0].size();
    EXPECT_EQ(width, 7u);
    int pairs = 0;
    for (const auto &row : rows) {
        ASSERT_EQ(row.size(), width) << os.str();
        if (row[5] != "q0,q5")
            continue;
        ++pairs;
        EXPECT_EQ(row[6], "ZZ(0,5) has angle 0.5, expected 0.25");
    }
    EXPECT_GT(pairs, 0);
}

TEST(DiagnosticsCsv, TwoQubitRowsKeepTheHeaderWidth)
{
    expectCsvKeepsHeaderWidth(everyRule(qvRules()));
    expectCsvKeepsHeaderWidth(everyRule(qlRules()));
}

/** Lowercase words of [a-z0-9] joined by single hyphens. */
bool
isKebabCase(const std::string &name)
{
    if (name.empty() || name.front() == '-' || name.back() == '-' ||
        name.find("--") != std::string::npos)
        return false;
    return std::all_of(name.begin(), name.end(), [](char ch) {
        return (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
               ch == '-';
    });
}

/** Checks one catalogue against its DESIGN table: IDs @p prefix + 3
 *  digits counting up from @p first, and one severity letter (I/W/E)
 *  per rule in @p severities. */
void
expectCatalogue(const std::vector<RuleInfo> &rules, const std::string &prefix,
                int first, const std::string &severities,
                std::set<std::string> &names)
{
    ASSERT_EQ(rules.size(), severities.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const RuleInfo &rule = rules[i];
        char want_id[16];
        std::snprintf(want_id, sizeof want_id, "%s%03d", prefix.c_str(),
                      first + static_cast<int>(i));
        EXPECT_STREQ(rule.id, want_id);
        EXPECT_TRUE(isKebabCase(rule.name)) << rule.name;
        EXPECT_TRUE(names.insert(rule.name).second)
            << "duplicate name " << rule.name;
        EXPECT_EQ(std::string(1, "IWE"[static_cast<int>(rule.severity)]),
                  severities.substr(i, 1))
            << rule.id;
    }
}

TEST(DiagnosticsCatalogue, IdsNamesAndSeveritiesMatchDesign)
{
    std::set<std::string> names;
    expectCatalogue(qvRules(), "QV", 1, "EEEEEEEEWEEEE", names);
    expectCatalogue(qlRules(), "QL", 101, "WWWIWWWIIIWIIIE", names);
}

} // namespace
} // namespace qaoa
