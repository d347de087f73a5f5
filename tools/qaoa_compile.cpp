/**
 * @file
 * qaoa_compile — command-line front end for the compilation pipeline.
 *
 * Usage:
 *   qaoa_compile --graph FILE [--method naive|greedyv|qaim|ip|ic|vic]
 *                [--preset o0|o1|o2|o3]
 *                [--device tokyo|melbourne|poughkeepsie|heavyhex|
 *                 grid6x6|linearN|ringN]
 *                [--gamma G] [--beta B] [--levels P] [--packing N]
 *                [--seed S] [--peephole] [--qasm OUT.qasm]
 *                [--qbin OUT.qbin] [--no-decompose]
 *                [--fault-edge-rate R] [--fault-qubit-rate R]
 *                [--fault-seed S] [--dead-qubits a,b,c]
 *                [--disable-edges a-b,c-d] [--drift M]
 *                [--verify] [--verify-strict] [--verify-csv]
 *                [--timeout-ms MS] [--stage-budget MS]
 *                [--workload fig11] [--instances N]
 *                [--optimize-p1] [--checkpoint FILE] [--resume]
 *
 * Reads a MaxCut problem graph in the edge-list format (see
 * graph/io.hpp), compiles it with the chosen methodology and prints the
 * §V-A quality metrics; optionally writes the compiled circuit as
 * OpenQASM text (--qasm) and/or a bit-exact qbin artifact (--qbin,
 * inspectable with qaoa_qbin).
 *
 * The fault flags degrade the device before compiling (see
 * hardware/faults.hpp); the compile then reports a structured status
 * (ok / degraded / failed) with the fallbacks taken.
 *
 * --verify runs the verify/ translation validator on the compiled
 * circuit (coupling conformance against the possibly-degraded device,
 * SWAP-replay of the reported mapping, ZZ-interaction equivalence with
 * the problem graph) and prints the findings table; --verify-strict also
 * fails on warnings.  --verify-csv renders the findings as CSV.
 *
 * Resilience (common/guard.hpp): --timeout-ms puts the whole run under
 * a monotonic deadline and --stage-budget caps each retry-ladder rung;
 * an expired compile reports a structured timed-out status with its
 * per-stage trace and exits 4 — no partial circuit is ever emitted.
 * --workload fig11 compiles the scaled Fig. 11 instance pool under one
 * shared deadline instead of a single graph.  --optimize-p1 runs the
 * checkpointable p=1 (γ, β) search (metrics/harness.hpp); with
 * --checkpoint the optimizer state is saved after every committed step
 * and --resume continues a killed run bit-identically.
 *
 * Exit codes: 0 success (ok or degraded), 1 compile failure,
 * 2 usage error, 3 verification failure, 4 timeout.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "circuit/qbin.hpp"
#include "common/error.hpp"
#include "common/guard.hpp"
#include "opt/checkpoint.hpp"
#include "graph/io.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "qaoa/presets.hpp"
#include "qaoa/problem.hpp"
#include "sim/success.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace qaoa;

void
usage()
{
    std::cerr
        << "usage: qaoa_compile --graph FILE [options]\n"
           "  --method M    naive|greedyv|qaim|ip|ic|vic (default ic)\n"
           "  --preset L    o0|o1|o2|o3 (overrides --method/--peephole)\n"
           "  --device D    tokyo|melbourne|poughkeepsie|heavyhex|"
           "grid6x6|linearN|ringN (default melbourne)\n"
           "  --gamma G     cost angle per level (default 0.7)\n"
           "  --beta B      mixer angle per level (default 0.35)\n"
           "  --levels P    QAOA levels (default 1)\n"
           "  --packing N   max CPHASEs per layer (default unlimited)\n"
           "  --seed S      master seed (default 7)\n"
           "  --peephole    run the peephole optimizer\n"
           "  --qasm FILE   write compiled OpenQASM\n"
           "  --qbin FILE   write a bit-exact qbin artifact "
           "(circuit + metadata)\n"
           "  --no-decompose  keep high-level gates\n"
           "fault injection (hardware/faults.hpp):\n"
           "  --fault-edge-rate R   disable each coupling with prob R\n"
           "  --fault-qubit-rate R  kill each qubit with prob R\n"
           "  --fault-seed S        seed of the fault stream (default "
           "2020)\n"
           "  --dead-qubits LIST    explicit dead qubits, e.g. 3,7,12\n"
           "  --disable-edges LIST  explicit couplings, e.g. 0-1,4-5\n"
           "  --drift M             multiply CNOT error rates by M\n"
           "  --no-fallbacks        fail instead of retrying/falling "
           "back\n"
           "verification (verify/):\n"
           "  --verify        print the translation-validation report; "
           "exit 3 on errors\n"
           "  --verify-strict exit 3 on any finding, warnings included\n"
           "  --verify-csv    render the findings table as CSV\n"
           "resilience (common/guard.hpp):\n"
           "  --timeout-ms MS   total compile deadline; exit 4 when it "
           "expires\n"
           "  --stage-budget MS watchdog budget per retry-ladder rung\n"
           "  --workload fig11  compile the scaled Fig. 11 pool under "
           "one deadline\n"
           "  --instances N     instances per workload class (default "
           "3)\n"
           "  --optimize-p1     run the p=1 (gamma, beta) search instead "
           "of compiling\n"
           "  --checkpoint FILE save optimizer state after every "
           "committed step\n"
           "  --resume          continue from --checkpoint if it "
           "exists\n";
}

/** Parses "3,7,12" into a list of qubit indices. */
std::vector<int>
parseQubitList(const std::string &text)
{
    std::vector<int> qubits;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            qubits.push_back(std::stoi(item));
    if (qubits.empty())
        throw std::runtime_error("empty qubit list: " + text);
    return qubits;
}

/** Parses "0-1,4-5" into a list of couplings. */
std::vector<std::pair<int, int>>
parseEdgeList(const std::string &text)
{
    std::vector<std::pair<int, int>> edges;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        std::size_t dash = item.find('-');
        if (dash == std::string::npos || dash == 0 ||
            dash + 1 >= item.size())
            throw std::runtime_error("bad edge (want a-b): " + item);
        edges.emplace_back(std::stoi(item.substr(0, dash)),
                           std::stoi(item.substr(dash + 1)));
    }
    if (edges.empty())
        throw std::runtime_error("empty edge list: " + text);
    return edges;
}

/** Scaled Fig. 11 instance pool (same classes as qaoa_lint). */
std::vector<graph::Graph>
fig11Workload(int n, int count, std::uint64_t seed)
{
    std::vector<graph::Graph> pool;
    for (int i = 0; i < 6; ++i) {
        double p = 0.1 + 0.1 * i;
        for (auto &g : metrics::erdosRenyiInstances(
                 n, p, count, seed + static_cast<std::uint64_t>(i)))
            pool.push_back(std::move(g));
    }
    for (int k = 3; k <= 8; ++k) {
        for (auto &g : metrics::regularInstances(
                 n, k, count, seed + 100 + static_cast<std::uint64_t>(k)))
            pool.push_back(std::move(g));
    }
    return pool;
}

/** Prints the retry-ladder flight record of one compile. */
void
printStages(const transpiler::CompileResult &r)
{
    for (const run::StageTrace &t : r.stages) {
        std::cout << "stage:        " << t.stage << " ["
                  << run::stageOutcomeName(t.outcome) << ", "
                  << t.elapsed_ms << " ms, retry " << t.retries << "]";
        if (!t.detail.empty())
            std::cout << " — " << t.detail;
        std::cout << "\n";
    }
}

int
runCompile(int argc, char **argv)
{
    std::string graph_path, method = "ic", device = "melbourne",
                qasm_path, qbin_path, preset, workload, checkpoint_path;
    double gamma = 0.7, beta = 0.35;
    double timeout_ms = -1.0, stage_budget_ms = -1.0;
    int levels = 1, packing = 1 << 30, instances = 3;
    std::uint64_t seed = 7;
    bool decompose = true;
    bool peephole = false;
    bool fallbacks = true;
    bool run_verify = false;
    bool verify_strict = false;
    bool verify_csv = false;
    bool optimize_p1 = false;
    bool resume = false;
    hw::FaultSpec faults;

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
            else if (!std::strcmp(argv[i], "--method"))
                method = next("--method");
            else if (!std::strcmp(argv[i], "--device"))
                device = next("--device");
            else if (!std::strcmp(argv[i], "--gamma"))
                gamma = std::stod(next("--gamma"));
            else if (!std::strcmp(argv[i], "--beta"))
                beta = std::stod(next("--beta"));
            else if (!std::strcmp(argv[i], "--levels"))
                levels = std::stoi(next("--levels"));
            else if (!std::strcmp(argv[i], "--packing"))
                packing = std::stoi(next("--packing"));
            else if (!std::strcmp(argv[i], "--seed"))
                seed = std::stoull(next("--seed"));
            else if (!std::strcmp(argv[i], "--qasm"))
                qasm_path = next("--qasm");
            else if (!std::strcmp(argv[i], "--qbin"))
                qbin_path = next("--qbin");
            else if (!std::strcmp(argv[i], "--no-decompose"))
                decompose = false;
            else if (!std::strcmp(argv[i], "--peephole"))
                peephole = true;
            else if (!std::strcmp(argv[i], "--preset"))
                preset = next("--preset");
            else if (!std::strcmp(argv[i], "--fault-edge-rate"))
                faults.edge_fault_rate =
                    std::stod(next("--fault-edge-rate"));
            else if (!std::strcmp(argv[i], "--fault-qubit-rate"))
                faults.qubit_fault_rate =
                    std::stod(next("--fault-qubit-rate"));
            else if (!std::strcmp(argv[i], "--fault-seed"))
                faults.seed = std::stoull(next("--fault-seed"));
            else if (!std::strcmp(argv[i], "--dead-qubits"))
                faults.dead_qubits =
                    parseQubitList(next("--dead-qubits"));
            else if (!std::strcmp(argv[i], "--disable-edges"))
                faults.disabled_edges =
                    parseEdgeList(next("--disable-edges"));
            else if (!std::strcmp(argv[i], "--drift"))
                faults.drift_multiplier = std::stod(next("--drift"));
            else if (!std::strcmp(argv[i], "--no-fallbacks"))
                fallbacks = false;
            else if (!std::strcmp(argv[i], "--timeout-ms"))
                timeout_ms = std::stod(next("--timeout-ms"));
            else if (!std::strcmp(argv[i], "--stage-budget"))
                stage_budget_ms = std::stod(next("--stage-budget"));
            else if (!std::strcmp(argv[i], "--workload"))
                workload = next("--workload");
            else if (!std::strcmp(argv[i], "--instances"))
                instances = std::stoi(next("--instances"));
            else if (!std::strcmp(argv[i], "--optimize-p1"))
                optimize_p1 = true;
            else if (!std::strcmp(argv[i], "--checkpoint"))
                checkpoint_path = next("--checkpoint");
            else if (!std::strcmp(argv[i], "--resume"))
                resume = true;
            else if (!std::strcmp(argv[i], "--verify"))
                run_verify = true;
            else if (!std::strcmp(argv[i], "--verify-strict"))
                run_verify = verify_strict = true;
            else if (!std::strcmp(argv[i], "--verify-csv"))
                run_verify = verify_csv = true;
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
    if (!workload.empty() && workload != "fig11") {
        std::cerr << "error: unknown workload: " << workload << "\n";
        return 2;
    }
    if (optimize_p1 && graph_path.empty()) {
        std::cerr << "error: --optimize-p1 needs --graph\n";
        return 2;
    }

    try {
        // One guard for everything this invocation runs: a single
        // monotonic deadline shared by every compile/optimizer step.
        const run::CancelToken token;
        const run::Deadline deadline =
            timeout_ms >= 0.0 ? run::Deadline::afterMs(timeout_ms)
                              : run::Deadline::never();
        const run::RunGuard guard(token, deadline);

        if (optimize_p1) {
            graph::Graph problem = graph::loadGraphFile(graph_path);
            metrics::OptimizeP1Options popts;
            popts.guard = &guard;
            popts.checkpoint_path = checkpoint_path;
            popts.resume = resume;
            try {
                metrics::P1Run run =
                    metrics::optimizeP1Checkpointed(problem, popts);
                char line[256];
                std::snprintf(line, sizeof line,
                              "p1 optimum:   gamma=%.17g beta=%.17g "
                              "cut=%.17g evals=%d%s\n",
                              run.params.gamma, run.params.beta,
                              run.params.expected_cut, run.evaluations,
                              run.resumed ? " (resumed)" : "");
                std::cout << line;
                return 0;
            } catch (const run::TimedOutError &e) {
                std::cerr << "error: timed out: " << e.what() << "\n";
                return 4;
            }
        }

        hw::CouplingMap base_map = hw::deviceByName(device);
        hw::CalibrationData base_calib =
            base_map.name() == "ibmq_16_melbourne"
                ? hw::melbourneCalibration(base_map)
                : hw::CalibrationData(base_map);

        // With faults, compile against the degraded view: the injector
        // owns the degraded map and its calibration, and usable() keeps
        // placement inside the largest surviving component.
        std::optional<hw::FaultInjector> injector;
        if (!faults.empty())
            injector.emplace(base_map, faults, &base_calib);
        const hw::CouplingMap &map =
            injector ? injector->map() : base_map;
        const hw::CalibrationData &calib =
            injector ? injector->calibration() : base_calib;

        core::QaoaCompileOptions opts;
        opts.method = core::methodFromName(method);
        if (!preset.empty()) {
            core::OptimizationLevel level;
            if (preset == "o0")
                level = core::OptimizationLevel::O0;
            else if (preset == "o1")
                level = core::OptimizationLevel::O1;
            else if (preset == "o2")
                level = core::OptimizationLevel::O2;
            else if (preset == "o3")
                level = core::OptimizationLevel::O3;
            else
                throw std::runtime_error("unknown preset: " + preset);
            opts.method = core::presetMethod(level, true);
            peephole = level == core::OptimizationLevel::O3;
        }
        opts.gammas.assign(static_cast<std::size_t>(levels), gamma);
        opts.betas.assign(static_cast<std::size_t>(levels), beta);
        opts.packing_limit = packing;
        opts.seed = seed;
        opts.calibration = &calib;
        opts.decompose_to_basis = decompose;
        opts.peephole = peephole;
        opts.allow_fallbacks = fallbacks;
        if (injector) {
            opts.allowed_qubits = &injector->usable();
            opts.device_degraded = !injector->deadQubits().empty() ||
                                   !injector->disabledEdges().empty();
        }
        opts.guard = &guard;
        opts.stage_budget_ms = stage_budget_ms;

        if (!workload.empty()) {
            int usable = map.numQubits();
            if (injector) {
                usable = 0;
                for (char c : injector->usable())
                    usable += c ? 1 : 0;
            }
            int n = std::min(20, usable);
            n -= n % 2; // k-regular families in k=3..8 need n*k even
            if (n < 10) {
                std::cerr << "error: fig11 workload needs >= 10 usable "
                             "qubits, device has "
                          << usable << "\n";
                return 2;
            }
            std::vector<graph::Graph> pool =
                fig11Workload(n, instances, seed);
            metrics::MetricSeries series =
                metrics::compileSeries(pool, map, opts);
            int ok = 0, timed_out = 0, other = 0;
            for (transpiler::CompileStatus s : series.status) {
                if (s == transpiler::CompileStatus::Ok ||
                    s == transpiler::CompileStatus::Degraded)
                    ++ok;
                else if (s == transpiler::CompileStatus::TimedOut)
                    ++timed_out;
                else
                    ++other;
            }
            std::cout << "workload:     fig11 (" << pool.size()
                      << " instances, n=" << n << ")\n"
                      << "device:       " << map.name() << "\n"
                      << "method:       "
                      << core::methodName(opts.method) << "\n"
                      << "compiled:     " << ok << "\n"
                      << "timed out:    " << timed_out << "\n"
                      << "failed:       " << other << "\n";
            if (timed_out > 0) {
                std::cerr << "error: workload timed out (" << timed_out
                          << "/" << series.status.size()
                          << " instances hit the deadline)\n";
                return 4;
            }
            return other > 0 ? 1 : 0;
        }

        graph::Graph problem = graph::loadGraphFile(graph_path);
        transpiler::CompileResult r =
            core::compileQaoaMaxcut(problem, map, opts);

        std::cout << "graph:        " << graph_path << " ("
                  << problem.numNodes() << " nodes, "
                  << problem.numEdges() << " edges)\n"
                  << "device:       " << map.name() << "\n"
                  << "method:       " << core::methodName(opts.method)
                  << "\n"
                  << "status:       " << transpiler::statusName(r.status)
                  << "\n";
        if (injector)
            for (const std::string &note : injector->notes())
                std::cout << "fault:        " << note << "\n";
        for (const std::string &d : r.diagnostics)
            std::cout << "note:         " << d << "\n";
        printStages(r);

        if (!r.ok()) {
            std::cerr << "error: compile "
                      << transpiler::statusName(r.status) << ": "
                      << r.failure_reason << "\n";
            return r.status == transpiler::CompileStatus::TimedOut ? 4
                                                                   : 1;
        }

        std::cout << "depth:        " << r.report.depth << "\n"
                  << "gate count:   " << r.report.gate_count << "\n"
                  << "CNOTs:        " << r.report.cx_count << "\n"
                  << "SWAPs:        " << r.report.swap_count << "\n"
                  << "compile time: " << r.report.compile_seconds * 1e3
                  << " ms\n"
                  << "success prob: "
                  << sim::successProbability(r.compiled, calib) << "\n";

        if (!qasm_path.empty()) {
            std::ofstream out(qasm_path);
            if (!out.good()) {
                std::cerr << "cannot write " << qasm_path << "\n";
                return 1;
            }
            out << circuit::toQasm(r.compiled);
            std::cout << "wrote " << qasm_path << "\n";
        }

        if (!qbin_path.empty()) {
            circuit::qbin::Artifact artifact;
            artifact.circuit = circuit::qbin::encodeCircuit(r.compiled);
            artifact.meta.set("producer", "qaoa_compile");
            artifact.meta.set("status",
                              transpiler::statusName(r.status));
            artifact.meta.set("method", core::methodName(opts.method));
            artifact.meta.set("device", map.name());
            artifact.meta.set("depth", std::to_string(r.report.depth));
            artifact.meta.set("gate_count",
                              std::to_string(r.report.gate_count));
            artifact.meta.set("cx_count",
                              std::to_string(r.report.cx_count));
            artifact.meta.set("swap_count",
                              std::to_string(r.report.swap_count));
            artifact.meta.set(
                "compile_ms",
                opt::formatHexDouble(r.report.compile_seconds * 1e3));
            opt::saveArtifactFile(qbin_path,
                                  circuit::qbin::encodeArtifact(artifact));
            std::cout << "wrote " << qbin_path << "\n";
        }

        if (run_verify) {
            std::vector<verify::ZZTerm> expected;
            for (double g : opts.gammas)
                for (const core::ZZOp &op : core::costOperations(problem))
                    expected.push_back({op.a, op.b, g * op.weight});

            verify::VerifySpec spec;
            spec.map = &map;
            spec.allowed_qubits = opts.allowed_qubits;
            spec.initial_log_to_phys = r.initial_layout.logToPhys();
            spec.expected_final = r.final_layout.logToPhys();
            spec.expected_interactions = &expected;
            spec.lift_basis = false; // r.physical holds high-level gates
            spec.ignore_zero_interactions = peephole;
            verify::VerifyReport report =
                verify::verifyCircuit(r.physical, spec);
            report.print(std::cout, "verification", verify_csv);
            const bool pass =
                verify_strict ? report.spotless() : report.clean();
            if (!pass) {
                std::cerr << "error: verification failed ("
                          << report.summary() << ")\n";
                return 3;
            }
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // QE105: the process crash domain — anything the typed handlers
    // above miss exits kExitFatal with a classified report, never aborts.
    return toolMain("qaoa_compile", [&] { return runCompile(argc, argv); });
}
