/**
 * @file
 * compile_fig11: the paper's Fig. 11 pool compiled in a closed loop on
 * one thread, one core::compileQaoaMaxcut() call after another, with the
 * library defaults (verify and analysis on).
 *
 * Pool: connected ER(n, p) for p in 0.1..0.6 and random k-regular(n)
 * for k in 3..8, n = 20 on ibmq_20_tokyo and n = 14 on
 * ibmq_16_melbourne, each compiled with NAIVE, QAIM, IP, IC and VIC.
 */
#include <map>
#include <memory>
#include <tuple>

#include "bench.hpp"
#include "circuit/qbin.hpp"
#include "common/parallel.hpp"
#include "hardware/calibration.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"

namespace perfbench {

namespace {

/** Instances per (family, parameter, device) configuration. */
constexpr int kPerConfig = 9;
constexpr int kSetupRepeats = 41;

const core::Method kMethods[] = {core::Method::Naive, core::Method::Qaim,
                                 core::Method::Ip, core::Method::Ic,
                                 core::Method::Vic};

struct Task
{
    int instance = 0; ///< Index into Fig11Setup::instances.
    core::QaoaCompileOptions opts;
};

struct Instance
{
    graph::Graph graph{0};
    const hw::CouplingMap *map = nullptr;
};

/** Devices, calibrations and the compile task list.  Held by pointer:
 *  calibrations and tasks point into the maps. */
struct Fig11Setup
{
    hw::CouplingMap tokyo = hw::ibmqTokyo20();
    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    hw::CalibrationData tokyo_calib;
    hw::CalibrationData melbourne_calib;
    std::vector<Instance> instances;
    std::vector<Task> tasks;

    explicit Fig11Setup(std::uint64_t seed)
        : tokyo_calib(makeTokyoCalib(tokyo, seed)),
          melbourne_calib(hw::melbourneCalibration(melbourne))
    {
        Rng rng(seed);
        for (const auto &[n, map, calib] :
             {std::tuple{20, &tokyo, &tokyo_calib},
              std::tuple{14, &melbourne, &melbourne_calib}}) {
            std::vector<graph::Graph> graphs;
            for (double p : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6})
                for (auto &g : metrics::erdosRenyiInstances(n, p, kPerConfig,
                                                            rng.fork()))
                    graphs.push_back(std::move(g));
            for (int k = 3; k <= 8; ++k)
                for (auto &g : metrics::regularInstances(n, k, kPerConfig,
                                                         rng.fork()))
                    graphs.push_back(std::move(g));
            for (auto &g : graphs) {
                instances.push_back({std::move(g), map});
                for (core::Method m : kMethods) {
                    Task t;
                    t.instance = static_cast<int>(instances.size() - 1);
                    t.opts.method = m;
                    t.opts.seed = rng.fork();
                    t.opts.calibration = calib;
                    tasks.push_back(std::move(t));
                }
            }
        }
        rng.shuffle(tasks);
    }

    static hw::CalibrationData
    makeTokyoCalib(const hw::CouplingMap &tokyo, std::uint64_t seed)
    {
        Rng rng(seed ^ 0x7a11b0a7ULL);
        return hw::randomCalibration(tokyo, rng, 1.0e-2, 0.5e-2);
    }
};

std::string
methodKey(core::Method m)
{
    switch (m) {
      case core::Method::Naive: return "naive";
      case core::Method::Qaim: return "qaim";
      case core::Method::Ip: return "ip";
      case core::Method::Ic: return "ic";
      case core::Method::Vic: return "vic";
      default: return "other";
    }
}

} // namespace

void
runCompileFig11(const RunConfig &config, RunResult &out)
{
    par::setThreadCount(1);
    out.threads = 1;

    std::unique_ptr<Fig11Setup> setup;
    const double setup_s = timeSetup(
        kSetupRepeats,
        [&] { setup = std::make_unique<Fig11Setup>(config.seed); },
        [&] { setup.reset(); });
    const std::vector<Task> &tasks = setup->tasks;

    auto compile = [&](const Task &t) {
        const Instance &inst =
            setup->instances[static_cast<std::size_t>(t.instance)];
        return core::compileQaoaMaxcut(inst.graph, *inst.map, t.opts);
    };

    // Pass 0, off the clock: warms caches, runs the independent oracle
    // on every task and records each output's hash for the timed passes.
    std::vector<std::uint64_t> expected_hash(tasks.size());
    std::vector<double> cx, depth, swaps, qbin_bytes;
    double rungs_run = 0.0, rungs_failed = 0.0;
    std::uint64_t digest = fnv1a("");
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Instance &inst =
            setup->instances[static_cast<std::size_t>(tasks[i].instance)];
        const transpiler::CompileResult r = compile(tasks[i]);
        const std::string err =
            checkCompile(r, inst.graph, *inst.map, tasks[i].opts);
        out.check(err.empty(),
                  [&] { return "task " + std::to_string(i) + ": " + err; });
        const std::string bytes = circuit::qbin::encodeCircuit(r.compiled);
        expected_hash[i] = fnv1a(bytes);
        digest = fnv1a(bytes, digest);
        cx.push_back(r.report.cx_count);
        depth.push_back(r.report.depth);
        swaps.push_back(r.report.swap_count);
        qbin_bytes.push_back(static_cast<double>(bytes.size()));
        // Every ladder rung before the one that succeeded failed.
        rungs_run += static_cast<double>(r.stages.size());
        rungs_failed += r.stages.empty() ? 0.0 : r.stages.size() - 1.0;
    }
    out.output_digest = hex64(digest);

    // Timed closed loop; in the traced run every library call is
    // followed by its traced replay, so both see the same tasks.
    std::unique_ptr<SpanRecorder> rec;
    if (config.trace)
        rec = std::make_unique<SpanRecorder>(std::size_t{1} << 21);
    std::vector<std::vector<double>> task_ms(tasks.size());
    std::size_t calls = 0;
    std::vector<double> ic_layers;
    double library_ms = 0.0;
    double replay_ms = 0.0;
    SpeedProbe probe;
    const double t_end = nowSeconds() + config.seconds;
    std::uint32_t request = 0;
    for (std::size_t i = 0; nowSeconds() < t_end; i = (i + 1) % tasks.size()) {
        const Task &t = tasks[i];
        probe.poll();
        const double t0 = nowSeconds();
        const transpiler::CompileResult r = compile(t);
        const double ms = (nowSeconds() - t0) * 1e3;
        task_ms[i].push_back(ms);
        ++calls;
        const std::uint64_t h =
            fnv1a(circuit::qbin::encodeCircuit(r.compiled));
        out.check(r.ok() && h == expected_hash[i], [&] {
            return "task " + std::to_string(i) +
                   ": output changed between identical compiles";
        });
        if (!rec)
            continue;
        library_ms += ms;
        const Instance &inst =
            setup->instances[static_cast<std::size_t>(t.instance)];
        int layers = 0;
        const double r0 = nowSeconds();
        {
            ScopedSpan root(rec.get(), "compile", request);
            const transpiler::CompileResult replay = replayCompile(
                inst.graph, *inst.map, t.opts, rec.get(), request, &layers);
            std::string bytes;
            {
                ScopedSpan span(rec.get(), "circuit.qbin_encode", request);
                bytes = circuit::qbin::encodeCircuit(replay.compiled);
            }
            out.check(replay.ok() && fnv1a(bytes) == expected_hash[i], [&] {
                return "task " + std::to_string(i) +
                       ": replayed compile differs from the library's";
            });
        }
        replay_ms += (nowSeconds() - r0) * 1e3;
        if (t.opts.method == core::Method::Ic ||
            t.opts.method == core::Method::Vic)
            ic_layers.push_back(layers);
        ++request;
    }

    Ledger &L = out.ledger;
    L.add("setup_s", setup_s, "s", kSetupRepeats, "median of set-ups");
    // Each task's time is the fastest of its repeats (see fastest());
    // the percentiles are over the tasks.
    std::vector<double> fast_ms;
    std::map<std::string, std::vector<double>> method_ms;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (task_ms[i].empty())
            continue;
        fast_ms.push_back(fastest(task_ms[i]));
        method_ms[methodKey(tasks[i].opts.method)].push_back(fast_ms.back());
    }
    const Summary fast = summarize(fast_ms);
    L.add("compile.p50_ms", fast.p50, "ms", calls,
          "median over " + std::to_string(fast.n) +
              " tasks of each one's fastest call");
    L.add("compile.p99_ms", fast.p99, "ms", calls,
          "p99 over " + std::to_string(fast.n) +
              " tasks of each one's fastest call" +
              (supportsPercentile(fast.n, 0.99) ? "" : " (UNSUPPORTED)"));
    L.add("compile.per_s", 1e3 / fast.mean, "1/s", calls,
          "compiles per second at the tasks' fastest times");
    L.addMean("compile.cx_mean", cx, "count");
    L.addMean("compile.depth_mean", depth, "count");
    probe.report(L);
    L.alias("latency_ms", "compile.p50_ms", probe.factor());
    L.alias("tail_ms", "compile.p99_ms", probe.factor());
    L.alias("rate_per_s", "compile.per_s", 1.0 / probe.factor());
    if (!rec)
        return;

    for (core::Method m : kMethods)
        L.addMedian("qaoa." + methodKey(m) + "_ms", method_ms[methodKey(m)],
                    "ms");
    L.add("qaoa.fallback_frac", rungs_run > 0 ? rungs_failed / rungs_run : 0.0,
          "ratio", tasks.size(), "failed ladder rungs / rungs run");
    L.addMean("qaoa.ic_layers", ic_layers, "count");
    L.addMean("transpiler.swaps", swaps, "count");
    L.addMean("circuit.qbin_bytes", qbin_bytes, "bytes");
    addSpanMedians(L, *rec,
                   {{"qaoa.layout", "qaoa.layout_ms"},
                    {"qaoa.order", "qaoa.order_ms"},
                    {"qaoa.ic_layer", "qaoa.ic_layer_ms"},
                    {"hardware.vic_distances", "hardware.vic_distances_ms"},
                    {"transpiler.route", "transpiler.route_ms"},
                    {"transpiler.basis", "transpiler.basis_ms"},
                    {"verify", "verify.ms"},
                    {"analysis", "analysis.ms"},
                    {"circuit.qbin_encode", "circuit.qbin_encode_us"}});
    L.add("trace.coverage", rec->coveredMs() / library_ms, "ratio", request,
          "replayed pass spans / untraced library call time");
    L.add("trace.overhead_frac", replay_ms / library_ms - 1.0, "ratio",
          request, "traced replay time / untraced library time - 1");
    L.add("trace.dropped_spans", static_cast<double>(rec->dropped()),
          "count", rec->size(), "spans lost to a full recorder");
    rec->writeCsv(config.workdir + "/spans.csv");
}

} // namespace perfbench
