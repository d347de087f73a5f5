/**
 * @file
 * sim_p1: the §V-G parameter search on one thread.
 *
 * Each run calls the p = 1 optimizer once on a 12- and a 14-node ring
 * and on a 12- and a 14-node ER(n, 0.5) graph, and evaluates one p = 1
 * expectation on an ER(20, 0.5) graph; these calls feed the oracles,
 * the evaluation counts and the per-call figures.  The timed closed
 * loop then evaluates the p = 1 expectation, as the optimizer does,
 * on those four graphs and on a 16-node ER graph, at the points of the
 * optimizer's 13 x 9 starting grid in turn.  The n = 12 and 14
 * statevectors (64 and 256 KiB) fit in a core's cache, the n = 16 one
 * (1 MiB) fills half of it and the n = 20 one (16 MiB) does not fit.
 * The ER graphs are drawn from G(n, m) with m the expected edge count
 * of G(n, 0.5), so every seed does the same number of CPHASE passes
 * per evaluation.
 *
 * The loop times single evaluations (0.7 to 45 ms) rather than whole
 * optimizer calls (0.1 to 1.5 s): the shared machine the benchmark
 * was written on switched between two speeds every few milliseconds,
 * so only short operations are ever timed wholly at the faster one
 * (see fastest()).
 *
 * One thread: the simulator runs each gate as its own parallel loop,
 * and with a second thread every gate waited on the slower of two
 * cores, which varied call times by a third between runs.
 */
#include <cmath>
#include <memory>
#include <numbers>

#include "bench.hpp"
#include "circuit/circuit.hpp"
#include "common/parallel.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "metrics/harness.hpp"
#include "opt/grid_search.hpp"
#include "qaoa/problem.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

namespace {

constexpr int kThreads = 1;
constexpr int kSetupRepeats = 31;
constexpr double kEval20Gamma = 0.7;
constexpr double kEval20Beta = 0.35;

struct P1Instance
{
    std::string name;
    graph::Graph graph{0};
    bool ring = false;
};

struct SimSetup
{
    std::vector<P1Instance> p1;
    graph::Graph er16{0};
    graph::Graph er20{0};
};

/** Connected G(n, m) with m = round(C(n, 2) / 2). */
graph::Graph
halfDense(int n, Rng &rng)
{
    return connectedGnm(n, static_cast<int>(std::lround(n * (n - 1) / 4.0)),
                        rng);
}

SimSetup
buildSetup(std::uint64_t seed)
{
    Rng rng(seed);
    SimSetup s;
    s.p1.push_back({"ring12", graph::cycleGraph(12), true});
    s.p1.push_back({"er12", halfDense(12, rng), false});
    s.p1.push_back({"ring14", graph::cycleGraph(14), true});
    s.p1.push_back({"er14", halfDense(14, rng), false});
    s.er16 = halfDense(16, rng);
    s.er20 = halfDense(20, rng);
    // Warm-up, part of set-up: one evaluation per optimizer instance, so
    // first-touch costs are not charged to the first timed call.
    for (const P1Instance &inst : s.p1)
        (void)metrics::exactExpectedCut(inst.graph, {kEval20Gamma},
                                        {kEval20Beta});
    return s;
}

/** Reference MaxCut by exhaustive search, written here so the oracle
 *  shares no code with the library. */
double
bruteForceMaxCut(const graph::Graph &g)
{
    const int n = g.numNodes();
    double best = 0.0;
    for (std::uint64_t a = 0; a < (1ULL << (n - 1)); ++a) {
        double cut = 0.0;
        for (const graph::Edge &e : g.edges())
            if (((a >> e.u) ^ (a >> e.v)) & 1ULL)
                cut += e.weight;
        best = std::max(best, cut);
    }
    return best;
}

/** Span names of one traced evaluation. */
struct EvalSpans
{
    const char *eval, *build, *cost, *mixer, *expect;
};
constexpr EvalSpans kOptimizerSpans{"sim.eval", "sim.build", "sim.cost",
                                    "sim.mixer", "sim.expect"};
constexpr EvalSpans kEval20Spans{"sim.eval20", "sim.build20", "sim.cost20",
                                 "sim.mixer20", "sim.expect20"};

/**
 * metrics::exactExpectedCut() replayed through the public simulator
 * calls with one span per phase: circuit build and statevector
 * allocation, each run of CPHASE gates (cost), each run of H/RX gates
 * (mixer), and probabilities() plus the cut sum (expectation).
 * @p bytes receives the computed memory traffic of the evaluation.
 */
double
tracedExpectedCut(const graph::Graph &problem, double gamma, double beta,
                  SpanRecorder *rec, std::uint32_t request,
                  const EvalSpans &names, double *bytes)
{
    ScopedSpan root(rec, names.eval, request);
    circuit::Circuit logical(0);
    std::unique_ptr<sim::Statevector> state;
    {
        ScopedSpan span(rec, names.build, request);
        logical = core::buildQaoaCircuit(problem, {gamma}, {beta},
                                         /*measure=*/false);
        state = std::make_unique<sim::Statevector>(problem.numNodes());
    }
    const auto &gates = logical.gates();
    for (std::size_t i = 0; i < gates.size();) {
        const bool cost = gates[i].type == circuit::GateType::CPHASE;
        ScopedSpan span(rec, cost ? names.cost : names.mixer, request);
        for (; i < gates.size() &&
               (gates[i].type == circuit::GateType::CPHASE) == cost;
             ++i)
            state->apply(gates[i]);
    }
    double expectation = 0.0;
    {
        ScopedSpan span(rec, names.expect, request);
        const std::vector<double> probs = state->probabilities();
        for (std::size_t b = 0; b < probs.size(); ++b)
            if (probs[b] > 0.0)
                expectation +=
                    probs[b] *
                    graph::cutValue(problem, static_cast<std::uint64_t>(b));
    }
    // Computed, not measured: every gate reads and writes all 2^n
    // complex amplitudes (16 B each); probabilities() reads them and
    // writes 8 B per state; the cut sum reads the probabilities.
    const double states = std::ldexp(1.0, problem.numNodes());
    *bytes = static_cast<double>(gates.size()) * states * 32.0 +
             states * (16.0 + 8.0) + states * 8.0;
    return expectation;
}

} // namespace

void
runSimP1(const RunConfig &config, RunResult &out)
{
    par::setThreadCount(kThreads);
    out.threads = kThreads;

    SimSetup setup;
    const double setup_s = timeSetup(
        kSetupRepeats, [&] { setup = buildSetup(config.seed); },
        [&] { setup = SimSetup{}; });

    // Oracle references, off the clock and independent of the library.
    // The loop's graphs: the optimizer instances, then er16.
    std::vector<const graph::Graph *> loop_graphs;
    std::vector<double> max_cut;
    for (const P1Instance &inst : setup.p1) {
        loop_graphs.push_back(&inst.graph);
        max_cut.push_back(inst.ring ? inst.graph.numNodes()
                                    : bruteForceMaxCut(inst.graph));
    }
    loop_graphs.push_back(&setup.er16);
    max_cut.push_back(bruteForceMaxCut(setup.er16));
    const double max_cut20 = bruteForceMaxCut(setup.er20);

    std::unique_ptr<SpanRecorder> rec;
    if (config.trace)
        rec = std::make_unique<SpanRecorder>(std::size_t{1} << 20);
    std::vector<double> evals, bytes_per_eval;
    bytes_per_eval.reserve(std::size_t{1} << 16);
    double library_ms = 0.0, replay_ms = 0.0;
    std::uint32_t request = 0;
    std::uint64_t digest = fnv1a("");

    // One optimizer call per instance; in the traced run each is
    // followed by its traced replay.
    std::vector<double> p1_seconds;
    for (std::size_t op = 0; op < setup.p1.size(); ++op) {
        const P1Instance &inst = setup.p1[op];
        // optimizeP1() is this call without checkpointing; the
        // checkpointed form also reports the evaluation count.
        const double t0 = nowSeconds();
        const metrics::P1Run run =
            metrics::optimizeP1Checkpointed(inst.graph, {});
        p1_seconds.push_back(nowSeconds() - t0);
        const double cut = run.params.expected_cut;
        evals.push_back(run.evaluations);
        digest = fnv1a(std::to_string(cut) + "/" +
                           std::to_string(run.evaluations),
                       digest);
        const double n = inst.graph.numNodes();
        out.check(inst.ring ? std::abs(cut - 0.75 * n) <= 1e-6 * 0.75 * n
                            : cut <= max_cut[op] * (1.0 + 1e-12),
                  [&] {
                      return inst.name + ": p=1 optimum " +
                             std::to_string(cut) +
                             (inst.ring ? " is not 0.75 n"
                                        : " exceeds the MaxCut");
                  });
        if (!rec)
            continue;
        library_ms += p1_seconds.back() * 1e3;
        const double r0 = nowSeconds();
        ScopedSpan root(rec.get(), "sim.optimize", request++);
        opt::Objective objective = [&](const std::vector<double> &x) {
            double bytes = 0.0;
            const double e =
                tracedExpectedCut(inst.graph, x[0], x[1], rec.get(),
                                  request++, kOptimizerSpans, &bytes);
            bytes_per_eval.push_back(bytes);
            return -e;
        };
        constexpr double pi = std::numbers::pi;
        const opt::OptResult r = opt::gridThenNelderMead(
            objective, {{0.0, 2.0 * pi, 13}, {0.0, pi, 9}});
        out.check(r.evaluations == run.evaluations && -r.value == cut, [&] {
            return inst.name + ": traced replay differs from optimizeP1";
        });
        replay_ms += (nowSeconds() - r0) * 1e3;
    }

    // One n = 20 evaluation, and its traced replay.
    double t0 = nowSeconds();
    const double e20 =
        metrics::exactExpectedCut(setup.er20, {kEval20Gamma}, {kEval20Beta});
    const double eval20_ms = (nowSeconds() - t0) * 1e3;
    out.check(e20 > 0.0 && e20 <= max_cut20, [] {
        return std::string("er20: expectation out of range");
    });
    if (rec) {
        library_ms += eval20_ms;
        const double r0 = nowSeconds();
        double bytes = 0.0;
        const double e = tracedExpectedCut(setup.er20, kEval20Gamma,
                                           kEval20Beta, rec.get(), request++,
                                           kEval20Spans, &bytes);
        out.check(e == e20, [] {
            return std::string("er20: traced replay differs from the library");
        });
        replay_ms += (nowSeconds() - r0) * 1e3;
    }

    // Timed closed loop of single evaluations, one per loop graph per
    // grid point.  Every value must lie in [0, MaxCut] and repeat
    // exactly at the same point.
    constexpr int kGridGammas = 13, kGridBetas = 9;
    constexpr std::size_t kPoints = kGridGammas * kGridBetas;
    std::vector<std::vector<double>> eval_ms(loop_graphs.size());
    std::vector<std::vector<double>> value(
        loop_graphs.size(), std::vector<double>(kPoints, -1.0));
    SpeedProbe probe;
    const double t_end = nowSeconds() + config.seconds;
    for (std::size_t i = 0; i == 0 || nowSeconds() < t_end; ++i) {
        probe.poll();
        const std::size_t point = i % kPoints;
        const double gamma = 2.0 * std::numbers::pi *
                             static_cast<double>(point / kGridBetas) /
                             kGridGammas;
        const double beta = std::numbers::pi *
                            static_cast<double>(point % kGridBetas) /
                            kGridBetas;
        for (std::size_t g = 0; g < loop_graphs.size(); ++g) {
            t0 = nowSeconds();
            const double e =
                metrics::exactExpectedCut(*loop_graphs[g], {gamma}, {beta});
            eval_ms[g].push_back((nowSeconds() - t0) * 1e3);
            double &seen = value[g][point];
            out.check(e >= -1e-9 && e <= max_cut[g] * (1.0 + 1e-12) &&
                          (seen < 0.0 || e == seen),
                      [&] {
                          return "graph " + std::to_string(g) +
                                 ": evaluation out of range or not "
                                 "repeatable";
                      });
            if (seen < 0.0) {
                seen = e;
                digest = fnv1a(std::to_string(e), digest);
            }
        }
    }
    out.output_digest = hex64(digest);

    // Each graph's evaluation time is the fastest of its repeats (see
    // fastest()).
    Ledger &L = out.ledger;
    std::vector<double> fast;
    std::size_t loop_evals = 0;
    for (std::size_t g = 0; g < loop_graphs.size(); ++g) {
        fast.push_back(fastest(eval_ms[g]));
        loop_evals += eval_ms[g].size();
        const std::string name =
            g < setup.p1.size() ? setup.p1[g].name : std::string("er16");
        L.add("sim.eval_" + name + "_ms", fast.back(), "ms",
              eval_ms[g].size(), "fastest p=1 evaluation");
    }
    const std::vector<double> optimizer_fast(fast.begin(),
                                             fast.begin() + setup.p1.size());
    L.add("setup_s", setup_s, "s", kSetupRepeats, "median of set-ups");
    L.add("sim.eval_ms", summarize(optimizer_fast).mean, "ms",
          loop_evals - eval_ms.back().size(),
          "mean over the 4 optimizer instances of each one's evaluation");
    L.add("sim.eval16_ms", fast.back(), "ms", eval_ms.back().size(),
          "fastest n = 16 evaluation");
    L.add("sim.evals_per_s", 1e3 * static_cast<double>(fast.size()) / sum(fast),
          "1/s", loop_evals, "evaluations per second over the 5 graphs");
    for (std::size_t i = 0; i < setup.p1.size(); ++i)
        L.add("sim.p1_" + setup.p1[i].name + "_s", p1_seconds[i], "s", 1,
              "one optimizeP1 call, " +
                  std::to_string(static_cast<int>(evals[i])) +
                  " evaluations");
    L.add("sim.p1_s", summarize(p1_seconds).mean, "s", p1_seconds.size(),
          "mean over the 4 instances of one optimizeP1 call each");
    L.add("sim.eval20_ms", eval20_ms, "ms", 1, "one n = 20 evaluation");
    probe.report(L);
    L.alias("latency_ms", "sim.eval_ms", probe.factor());
    L.alias("tail_ms", "sim.eval16_ms", probe.factor());
    L.alias("rate_per_s", "sim.evals_per_s", 1.0 / probe.factor());
    if (!rec)
        return;

    L.addMean("opt.evals", evals, "count");
    L.addMedian("sim.bytes_per_eval", bytes_per_eval, "bytes");
    addSpanMedians(L, *rec,
                   {{"sim.build", "sim.build_ms"},
                    {"sim.cost", "sim.cost_ms"},
                    {"sim.mixer", "sim.mixer_ms"},
                    {"sim.expect", "sim.expect_ms"},
                    {"sim.cost20", "sim.cost20_ms"},
                    {"sim.mixer20", "sim.mixer20_ms"},
                    {"sim.expect20", "sim.expect20_ms"}});
    L.add("trace.coverage", rec->coveredMs() / library_ms, "ratio", request,
          "replayed spans / untraced library call time");
    L.add("trace.overhead_frac", replay_ms / library_ms - 1.0, "ratio",
          request, "traced replay time / untraced library time - 1");
    L.add("trace.dropped_spans", static_cast<double>(rec->dropped()),
          "count", rec->size(), "spans lost to a full recorder");
    rec->writeCsv(config.workdir + "/spans.csv");
}

} // namespace perfbench
