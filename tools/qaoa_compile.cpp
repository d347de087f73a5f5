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
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/esp.hpp"
#include "circuit/qasm.hpp"
#include "circuit/qbin.hpp"
#include "common/error.hpp"
#include "common/guard.hpp"
#include "opt/checkpoint.hpp"
#include "graph/io.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "qaoa/presets.hpp"
#include "qaoa/problem.hpp"
#include "serve/request.hpp"
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

/**
 * --preset: the method and peephole flag of optimization level o0..o3
 * (core::presetMethod with calibration available).
 */
void
applyPreset(const std::string &preset, serve::CompileRequest &request)
{
    static const char *const kNames[] = {"o0", "o1", "o2", "o3"};
    for (int l = 0; l < 4; ++l) {
        if (preset != kNames[l])
            continue;
        const auto level = static_cast<core::OptimizationLevel>(l);
        std::string method =
            core::methodName(core::presetMethod(level, true));
        std::transform(method.begin(), method.end(), method.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        request.method = method;
        request.peephole = level == core::OptimizationLevel::O3;
        return;
    }
    throw std::runtime_error("unknown preset: " + preset);
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
    // Every compile input the wire carries goes into the request; the
    // device view and the options come from serve::, as for qaoa_serve.
    serve::CompileRequest req;
    std::string graph_path, qasm_path, qbin_path, preset, workload,
        checkpoint_path;
    double gamma = 0.7, beta = 0.35;
    int levels = 1, instances = 3;
    bool run_verify = false;
    bool verify_strict = false;
    bool verify_csv = false;
    bool optimize_p1 = false;
    bool resume = false;

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
                req.method = next("--method");
            else if (!std::strcmp(argv[i], "--device"))
                req.device = next("--device");
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
            else if (!std::strcmp(argv[i], "--qasm"))
                qasm_path = next("--qasm");
            else if (!std::strcmp(argv[i], "--qbin"))
                qbin_path = next("--qbin");
            else if (!std::strcmp(argv[i], "--no-decompose"))
                req.decompose = false;
            else if (!std::strcmp(argv[i], "--peephole"))
                req.peephole = true;
            else if (!std::strcmp(argv[i], "--preset"))
                preset = next("--preset");
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
            else if (!std::strcmp(argv[i], "--drift"))
                req.faults.drift_multiplier = std::stod(next("--drift"));
            else if (!std::strcmp(argv[i], "--no-fallbacks"))
                req.allow_fallbacks = false;
            else if (!std::strcmp(argv[i], "--timeout-ms"))
                req.timeout_ms = std::stod(next("--timeout-ms"));
            else if (!std::strcmp(argv[i], "--stage-budget"))
                req.stage_budget_ms = std::stod(next("--stage-budget"));
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
            req.timeout_ms >= 0.0 ? run::Deadline::afterMs(req.timeout_ms)
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

        if (!preset.empty())
            applyPreset(preset, req);
        req.gammas.assign(static_cast<std::size_t>(levels), gamma);
        req.betas.assign(static_cast<std::size_t>(levels), beta);
        const std::unique_ptr<serve::RequestEnvironment> env =
            serve::makeEnvironment(req);
        const hw::CouplingMap &map = env->map();
        core::QaoaCompileOptions opts = serve::makeOptions(req, *env);
        opts.guard = &guard;

        if (!workload.empty()) {
            const int usable = env->usableQubits();
            int n = std::min(20, usable);
            n -= n % 2; // k-regular families in k=3..8 need n*k even
            if (n < 10) {
                std::cerr << "error: fig11 workload needs >= 10 usable "
                             "qubits, device has "
                          << usable << "\n";
                return 2;
            }
            std::vector<graph::Graph> pool =
                metrics::fig11Instances(n, instances, req.seed);
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
        if (env->injector)
            for (const std::string &note : env->injector->notes())
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
                  << analysis::estimateEsp(r.compiled, env->calibration())
                         .total
                  << "\n";

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
            const core::CostHamiltonian cost =
                core::costHamiltonian(problem);
            std::vector<verify::ZZTerm> expected;
            for (double g : opts.gammas)
                for (const core::ZZOp &op : cost.quadratic)
                    expected.push_back(
                        {op.a, op.b, cost.levelAngle(g) * op.weight});

            verify::VerifySpec spec;
            spec.map = &map;
            spec.allowed_qubits = opts.allowed_qubits;
            spec.initial_log_to_phys = r.initial_layout.logToPhys();
            spec.expected_final = r.final_layout.logToPhys();
            spec.expected_interactions = &expected;
            spec.lift_basis = false; // r.physical holds high-level gates
            spec.ignore_zero_interactions = opts.peephole;
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
