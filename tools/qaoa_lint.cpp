/**
 * @file
 * qaoa_lint — static circuit-quality analyzer front end.
 *
 * Usage:
 *   qaoa_lint (--graph FILE | --workload fig11)
 *             [--method naive|greedyv|qaim|ip|ic|vic|all]
 *             [--device tokyo|melbourne|poughkeepsie|heavyhex|
 *              grid6x6|linearN|ringN]
 *             [--calib default|melbourne|random] [--calib-seed S]
 *             [--instances N] [--gamma G] [--beta B] [--levels P]
 *             [--packing N] [--seed S]
 *             [--format text|csv|json]
 *             [--budget FILE] [--fail-on info|warning|error]
 *             [--check-ordering] [--crosstalk-pairs LIST]
 *             [--fault-edge-rate R] [--fault-qubit-rate R]
 *             [--fault-seed S] [--dead-qubits a,b,c]
 *             [--disable-edges a-b,c-d]
 *
 * Compiles the problem (or the built-in Fig. 11 workload pool) with the
 * selected method(s) and runs the analysis/ passes over each physical
 * circuit: depth/gate metrics, timing makespan, decoherence-exposure
 * factor, ESP with attribution, and the QL101-QL115 lint rules.  With
 * --budget the scalar metrics are additionally checked against the bars
 * of a JSON budget file (QL115 errors on misses); --check-ordering
 * verifies the paper's Fig. 11 ESP ranking VIC >= IC >= IP >= NAIVE on
 * the workload geomeans.
 *
 * Exit codes: 0 clean, 1 findings at/above --fail-on (or a violated
 * budget/ordering), 2 usage error, 3 compile failure.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/quality.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "graph/io.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "serve/request.hpp"

namespace {

using namespace qaoa;

void
usage()
{
    std::cerr
        << "usage: qaoa_lint (--graph FILE | --workload fig11) [options]\n"
           "  --method M    naive|greedyv|qaim|ip|ic|vic|all (default "
           "all)\n"
           "  --device D    tokyo|melbourne|poughkeepsie|heavyhex|"
           "grid6x6|linearN|ringN (default tokyo)\n"
           "  --calib C     default|melbourne|random (default default;\n"
           "                default is uniform, even on melbourne)\n"
           "  --calib-seed S  seed of the random calibration (default "
           "2020)\n"
           "  --instances N   instances per workload class (default 3)\n"
           "  --gamma G     cost angle per level (default 0.7)\n"
           "  --beta B      mixer angle per level (default 0.35)\n"
           "  --levels P    QAOA levels (default 1)\n"
           "  --packing N   max CPHASEs per layer (default unlimited)\n"
           "  --seed S      master seed (default 7)\n"
           "  --format F    text|csv|json (default text)\n"
           "  --budget FILE JSON bars (tests/budgets/*.json); misses are "
           "QL115 errors\n"
           "  --fail-on S   info|warning|error (default warning)\n"
           "  --check-ordering  enforce ESP geomean VIC >= IC >= IP >= "
           "NAIVE\n"
           "  --crosstalk-pairs LIST  e.g. 0-1x2-3,5-6x7-8 (QL111)\n"
           "fault injection (hardware/faults.hpp):\n"
           "  --fault-edge-rate R / --fault-qubit-rate R / --fault-seed "
           "S\n"
           "  --dead-qubits LIST / --disable-edges LIST\n";
}

Severity
parseSeverity(const std::string &name)
{
    if (name == "info")
        return Severity::Info;
    if (name == "warning")
        return Severity::Warning;
    if (name == "error")
        return Severity::Error;
    throw std::runtime_error("unknown severity: " + name);
}

/** Parses one "a-b" coupling (the wire's edge-list item syntax). */
analysis::Coupling
parseCoupling(const std::string &item)
{
    return serve::parseCouplingList(item).front();
}

/** Parses "0-1x2-3,5-6x7-8" into crosstalk coupling pairs. */
std::vector<analysis::CrosstalkPair>
parseCrosstalkPairs(const std::string &text)
{
    std::vector<analysis::CrosstalkPair> pairs;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        std::size_t x = item.find('x');
        if (x == std::string::npos || x == 0 || x + 1 >= item.size())
            throw std::runtime_error(
                "bad crosstalk pair (want a-bxc-d): " + item);
        pairs.push_back({parseCoupling(item.substr(0, x)),
                         parseCoupling(item.substr(x + 1))});
    }
    if (pairs.empty())
        throw std::runtime_error("empty crosstalk pair list: " + text);
    return pairs;
}

/** Aggregated lint outcome of one method over the instance pool. */
struct MethodRow
{
    std::string method;
    int instances = 0;
    double depth = 0.0;    ///< Mean physical depth.
    double gates = 0.0;    ///< Mean gate count.
    double two_q = 0.0;    ///< Mean 2q gate count.
    double swaps = 0.0;    ///< Mean SWAP count.
    double exec_ns = 0.0;  ///< Mean makespan.
    double esp = 0.0;      ///< Geomean ESP.
    double coherence = 0.0; ///< Geomean decoherence-exposure factor.
    analysis::LintReport findings; ///< Merged across instances.
};

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

std::string
fmt(double v, int precision = 4)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << v;
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

int
runLint(int argc, char **argv)
{
    // The compile inputs go into a request, as for qaoa_compile and
    // qaoa_serve; lint compiles to the physical IR with the quality
    // report on.
    serve::CompileRequest req;
    req.device = "tokyo";
    req.decompose = false;
    req.analyze_quality = true;
    std::string graph_path, workload, method = "all",
                calib_kind = "default", format = "text", budget_path;
    double gamma = 0.7, beta = 0.35;
    int levels = 1, instances = 3;
    std::uint64_t calib_seed = 2020;
    Severity fail_on = Severity::Warning;
    bool check_ordering = false;
    std::vector<analysis::CrosstalkPair> crosstalk_pairs;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(std::string(flag) +
                                         " needs a value");
            return argv[++i];
        };
        try {
            if (!std::strcmp(argv[i], "--graph"))
                graph_path = next("--graph");
            else if (!std::strcmp(argv[i], "--workload"))
                workload = next("--workload");
            else if (!std::strcmp(argv[i], "--method"))
                method = next("--method");
            else if (!std::strcmp(argv[i], "--device"))
                req.device = next("--device");
            else if (!std::strcmp(argv[i], "--calib"))
                calib_kind = next("--calib");
            else if (!std::strcmp(argv[i], "--calib-seed"))
                calib_seed = std::stoull(next("--calib-seed"));
            else if (!std::strcmp(argv[i], "--instances"))
                instances = std::stoi(next("--instances"));
            else if (!std::strcmp(argv[i], "--gamma"))
                gamma = std::stod(next("--gamma"));
            else if (!std::strcmp(argv[i], "--beta"))
                beta = std::stod(next("--beta"));
            else if (!std::strcmp(argv[i], "--levels"))
                levels = std::stoi(next("--levels"));
            else if (!std::strcmp(argv[i], "--packing"))
                req.packing_limit = std::stoi(next("--packing"));
            else if (!std::strcmp(argv[i], "--seed"))
                req.seed = std::stoull(next("--seed"));
            else if (!std::strcmp(argv[i], "--format"))
                format = next("--format");
            else if (!std::strcmp(argv[i], "--budget"))
                budget_path = next("--budget");
            else if (!std::strcmp(argv[i], "--fail-on"))
                fail_on = parseSeverity(next("--fail-on"));
            else if (!std::strcmp(argv[i], "--check-ordering"))
                check_ordering = true;
            else if (!std::strcmp(argv[i], "--crosstalk-pairs"))
                crosstalk_pairs =
                    parseCrosstalkPairs(next("--crosstalk-pairs"));
            else if (!std::strcmp(argv[i], "--fault-edge-rate"))
                req.faults.edge_fault_rate =
                    std::stod(next("--fault-edge-rate"));
            else if (!std::strcmp(argv[i], "--fault-qubit-rate"))
                req.faults.qubit_fault_rate =
                    std::stod(next("--fault-qubit-rate"));
            else if (!std::strcmp(argv[i], "--fault-seed"))
                req.faults.seed = std::stoull(next("--fault-seed"));
            else if (!std::strcmp(argv[i], "--dead-qubits"))
                req.faults.dead_qubits =
                    serve::parseQubitList(next("--dead-qubits"));
            else if (!std::strcmp(argv[i], "--disable-edges"))
                req.faults.disabled_edges =
                    serve::parseCouplingList(next("--disable-edges"));
            else if (!std::strcmp(argv[i], "--help")) {
                usage();
                return 0;
            } else {
                std::cerr << "unknown flag: " << argv[i] << "\n";
                usage();
                return 2;
            }
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << "\n";
            return 2;
        }
    }
    if (graph_path.empty() == workload.empty()) {
        std::cerr << "error: need exactly one of --graph / --workload\n";
        usage();
        return 2;
    }
    if (format != "text" && format != "csv" && format != "json") {
        std::cerr << "error: unknown format: " << format << "\n";
        return 2;
    }

    try {
        // --calib default is uniform CalibrationData on every device,
        // melbourne included (the daemon's default differs there).
        serve::CalibrationFactory calibration = [](const hw::CouplingMap &m) {
            return hw::CalibrationData(m);
        };
        if (calib_kind == "melbourne") {
            calibration = hw::melbourneCalibration;
        } else if (calib_kind == "random") {
            calibration = [calib_seed](const hw::CouplingMap &m) {
                Rng calib_rng(calib_seed);
                return hw::randomCalibration(m, calib_rng);
            };
        } else if (calib_kind != "default") {
            std::cerr << "error: unknown calibration: " << calib_kind
                      << "\n";
            return 2;
        }
        req.gammas.assign(static_cast<std::size_t>(levels), gamma);
        req.betas.assign(static_cast<std::size_t>(levels), beta);
        const std::unique_ptr<serve::RequestEnvironment> env =
            serve::makeEnvironment(req, calibration);
        const hw::CouplingMap &map = env->map();
        core::QaoaCompileOptions base_opts = serve::makeOptions(req, *env);
        base_opts.crosstalk_pairs = crosstalk_pairs;

        // Problem pool (the workload scales to the usable device size).
        std::vector<graph::Graph> pool;
        if (!graph_path.empty()) {
            pool.push_back(graph::loadGraphFile(graph_path));
        } else if (workload == "fig11") {
            const int usable = env->usableQubits();
            int n = std::min(20, usable);
            n -= n % 2; // every k-regular family in k=3..8 needs n*k even
            if (n < 10) {
                std::cerr << "error: fig11 workload needs >= 10 usable "
                             "qubits, device has "
                          << usable << "\n";
                return 2;
            }
            pool = metrics::fig11Instances(n, instances, calib_seed);
        } else {
            std::cerr << "error: unknown workload: " << workload << "\n";
            return 2;
        }

        std::optional<analysis::QualityBudget> budget;
        if (!budget_path.empty())
            budget = analysis::loadBudgetFile(budget_path);

        std::vector<core::Method> methods;
        if (method == "all")
            methods = {core::Method::Naive, core::Method::GreedyV,
                       core::Method::Qaim,  core::Method::Ip,
                       core::Method::Ic,    core::Method::Vic};
        else
            methods = {core::methodFromName(method)};

        std::vector<MethodRow> rows;
        std::map<std::string, double> esp_by_method;
        for (core::Method m : methods) {
            MethodRow row;
            row.method = core::methodName(m);
            std::vector<double> esps, cohs;
            for (std::size_t pi = 0; pi < pool.size(); ++pi) {
                core::QaoaCompileOptions opts = base_opts;
                opts.method = m;
                opts.seed = req.seed + 1000 * pi;
                transpiler::CompileResult r =
                    core::compileQaoaMaxcut(pool[pi], map, opts);
                if (!r.ok()) {
                    std::cerr << "error: " << row.method
                              << " failed on instance " << pi << ": "
                              << r.failure_reason << "\n";
                    return 3;
                }
                if (budget)
                    r.quality.lint.merge(analysis::checkBudget(
                        r.quality.summary, *budget));
                const analysis::QualitySummary &s = r.quality.summary;
                row.instances += 1;
                row.depth += s.depth;
                row.gates += s.gate_count;
                row.two_q += s.two_qubit_gates;
                row.swaps += s.swap_count;
                row.exec_ns += s.execution_ns;
                esps.push_back(s.esp);
                cohs.push_back(s.coherence);
                row.findings.merge(std::move(r.quality.lint));
            }
            const double n = static_cast<double>(row.instances);
            row.depth /= n;
            row.gates /= n;
            row.two_q /= n;
            row.swaps /= n;
            row.exec_ns /= n;
            row.esp = geomean(esps);
            row.coherence = geomean(cohs);
            esp_by_method[row.method] = row.esp;
            rows.push_back(std::move(row));
        }

        // Render.
        bool dirty = false;
        if (format == "json") {
            std::cout << "[\n";
            for (std::size_t i = 0; i < rows.size(); ++i) {
                const MethodRow &r = rows[i];
                std::cout
                    << "  {\"method\": \"" << jsonEscape(r.method)
                    << "\", \"device\": \"" << jsonEscape(map.name())
                    << "\", \"instances\": " << r.instances
                    << ", \"depth\": " << fmt(r.depth, 2)
                    << ", \"gates\": " << fmt(r.gates, 2)
                    << ", \"two_qubit\": " << fmt(r.two_q, 2)
                    << ", \"swaps\": " << fmt(r.swaps, 2)
                    << ", \"execution_ns\": " << fmt(r.exec_ns, 1)
                    << ", \"esp\": " << fmt(r.esp, 6)
                    << ", \"coherence\": " << fmt(r.coherence, 6)
                    << ", \"errors\": "
                    << r.findings.count(Severity::Error)
                    << ", \"warnings\": "
                    << r.findings.count(Severity::Warning)
                    << ", \"infos\": "
                    << r.findings.count(Severity::Info)
                    << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
            }
            std::cout << "]\n";
        } else {
            Table t({"method", "instances", "depth", "gates", "2q",
                     "swaps", "exec_ns", "esp", "coherence", "errors",
                     "warnings", "infos"});
            for (const MethodRow &r : rows)
                t.addRow({r.method, std::to_string(r.instances),
                          fmt(r.depth, 2), fmt(r.gates, 2),
                          fmt(r.two_q, 2), fmt(r.swaps, 2),
                          fmt(r.exec_ns, 1), fmt(r.esp, 6),
                          fmt(r.coherence, 6),
                          std::to_string(r.findings.count(Severity::Error)),
                          std::to_string(
                              r.findings.count(Severity::Warning)),
                          std::to_string(r.findings.count(Severity::Info))});
            if (format == "csv")
                t.printCsv(std::cout);
            else
                t.print(std::cout);
        }
        for (const MethodRow &r : rows) {
            if (!r.findings.clean(fail_on))
                dirty = true;
            if (format == "text" && !r.findings.clean(fail_on)) {
                std::cout << "\n" << r.method << " findings:\n";
                r.findings.print(std::cout, "lint");
            } else if (format == "text") {
                std::cout << r.method << " lint: "
                          << r.findings.summary() << "\n";
            }
        }

        if (check_ordering) {
            const char *want[] = {"NAIVE", "IP", "IC", "VIC"};
            bool have_all = true;
            for (const char *m : want)
                if (esp_by_method.find(m) == esp_by_method.end())
                    have_all = false;
            if (!have_all) {
                std::cerr << "error: --check-ordering needs methods "
                             "naive, ip, ic and vic\n";
                return 2;
            }
            const double tol = 1.0e-12;
            bool ordered =
                esp_by_method["VIC"] + tol >= esp_by_method["IC"] &&
                esp_by_method["IC"] + tol >= esp_by_method["IP"] &&
                esp_by_method["IP"] + tol >= esp_by_method["NAIVE"];
            std::cout << "esp ordering: VIC " << fmt(esp_by_method["VIC"], 6)
                      << " >= IC " << fmt(esp_by_method["IC"], 6)
                      << " >= IP " << fmt(esp_by_method["IP"], 6)
                      << " >= NAIVE " << fmt(esp_by_method["NAIVE"], 6)
                      << (ordered ? " : ok" : " : VIOLATED") << "\n";
            if (!ordered)
                dirty = true;
        }

        return dirty ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // QE105: the process crash domain — anything the typed handler
    // above misses exits kExitFatal with a classified report.
    return qaoa::toolMain("qaoa_lint", [&] { return runLint(argc, argv); });
}
