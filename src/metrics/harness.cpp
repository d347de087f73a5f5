#include "metrics/harness.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <optional>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "graph/maxcut.hpp"
#include "metrics/cut_table.hpp"
#include "opt/checkpoint.hpp"
#include "opt/grid_search.hpp"
#include "qaoa/problem.hpp"
#include "sim/statevector.hpp"

namespace qaoa::metrics {

namespace {

/** Rejects disconnected or edgeless draws (a MaxCut instance needs
 *  edges; connectivity keeps every qubit active as in the paper's
 *  randomly chosen instances). */
template <typename Generator>
std::vector<graph::Graph>
generateConnected(int count, std::uint64_t seed, Generator make)
{
    Rng rng(seed);
    std::vector<graph::Graph> out;
    int guard = 0;
    while (static_cast<int>(out.size()) < count) {
        QAOA_CHECK(++guard < count * 1000,
                   "could not generate enough connected instances");
        graph::Graph g = make(rng);
        if (g.numEdges() >= 1 && g.isConnected())
            out.push_back(std::move(g));
    }
    return out;
}

/** The weight every edge of @p problem carries, bit for bit; none for
 *  an edgeless graph or mixed weights. */
std::optional<double>
uniformWeight(const graph::Graph &problem)
{
    if (problem.edges().empty())
        return std::nullopt;
    const double w = problem.edges().front().weight;
    for (const graph::Edge &e : problem.edges())
        if (std::bit_cast<std::uint64_t>(e.weight) !=
            std::bit_cast<std::uint64_t>(w))
            return std::nullopt;
    return w;
}

/**
 * exactExpectedCut() for a graph whose edges all weigh @p w, with the
 * same floating-point operations as the gate-by-gate evaluation (see
 * DESIGN §7): H^n leaves every amplitude at s = inv_sqrt2^n, and the
 * CPHASEs of a level multiply amplitude z by P = e^{i·angle·w} once per
 * cut edge, in edge order, and by 1 otherwise, which changes at most the
 * sign of a zero.  So level 1 is the lookup T[k(z)] with
 * T[k] = T[k-1]·P, later levels multiply by P k(z) times, and the cut
 * value k·w is S[k] = S[k-1] + w, the additions graph::cutValue makes.
 * Each mixer is Statevector::applyMixer(), the RX(2β) gates' operations.
 */
template <typename Level>
double
diagonalExpectedCut(const graph::Graph &problem, double w,
                    const std::vector<Level> &cuts,
                    const std::vector<double> &gammas,
                    const std::vector<double> &betas,
                    const run::RunGuard *guard)
{
    const int n = problem.numNodes();
    const std::size_t num_counts = problem.edges().size() + 1;
    sim::Statevector state(n, guard);

    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    double s = 1.0;
    for (int q = 0; q < n; ++q)
        s = inv_sqrt2 * s;
    std::vector<double> cut_value(num_counts, 0.0);
    for (std::size_t k = 1; k < num_counts; ++k)
        cut_value[k] = cut_value[k - 1] + w;

    for (std::size_t level = 0; level < gammas.size(); ++level) {
        // costHamiltonian(problem).levelAngle(γ)·w, as the CPHASEs get it.
        const sim::Complex phase =
            sim::expi(core::kMaxCutAngleScale * gammas[level] * w);
        if (level == 0) {
            std::vector<sim::Complex> amplitude(num_counts, {s, 0.0});
            for (std::size_t k = 1; k < num_counts; ++k)
                amplitude[k] = amplitude[k - 1] * phase;
            state.loadByLevel(cuts, amplitude);
        } else {
            state.applyPhasePowers(cuts, phase);
        }
        state.applyMixer(betas[level]);
    }
    return state.levelExpectation(cuts, cut_value);
}

} // namespace

std::vector<graph::Graph>
erdosRenyiInstances(int n, double p, int count, std::uint64_t seed)
{
    return generateConnected(count, seed, [&](Rng &rng) {
        return graph::erdosRenyi(n, p, rng);
    });
}

std::vector<graph::Graph>
regularInstances(int n, int k, int count, std::uint64_t seed)
{
    return generateConnected(count, seed, [&](Rng &rng) {
        return graph::randomRegular(n, k, rng);
    });
}

std::vector<graph::Graph>
fig11Instances(int n, int count, std::uint64_t seed)
{
    std::vector<graph::Graph> pool;
    for (int i = 0; i < 6; ++i) {
        double p = 0.1 + 0.1 * i;
        for (auto &g : erdosRenyiInstances(
                 n, p, count, seed + static_cast<std::uint64_t>(i)))
            pool.push_back(std::move(g));
    }
    for (int k = 3; k <= 8; ++k) {
        for (auto &g : regularInstances(
                 n, k, count, seed + 100 + static_cast<std::uint64_t>(k)))
            pool.push_back(std::move(g));
    }
    return pool;
}

MetricSeries
compileSeries(const std::vector<graph::Graph> &instances,
              const hw::CouplingMap &map, core::QaoaCompileOptions opts)
{
    // Derive every per-instance seed up front, in the serial iteration
    // order — the seed sequence (and hence each compiled circuit) is
    // identical no matter how many threads run the compiles below.
    Rng seeder(opts.seed);
    std::vector<std::uint64_t> seeds(instances.size());
    for (std::uint64_t &s : seeds)
        s = seeder.fork();

    // One child token for the whole sweep: an external cancel on the
    // caller's guard propagates in, a throwing instance trips it for
    // its siblings, and per-instance guards all share it.  The total
    // deadline and resource limits are the caller's, unchanged.
    const run::CancelToken series_token = opts.guard
                                              ? opts.guard->token().child()
                                              : run::CancelToken();
    const run::Deadline series_deadline =
        opts.guard ? opts.guard->deadline() : run::Deadline::never();
    const run::ResourceLimits series_limits =
        opts.guard ? opts.guard->limits() : run::ResourceLimits();
    std::vector<run::RunGuard> guards;
    guards.reserve(instances.size());
    for (std::size_t i = 0; i < instances.size(); ++i)
        guards.emplace_back(series_token, series_deadline, series_limits);

    std::vector<transpiler::CompileResult> results(instances.size());
    // Pre-mark every slot Cancelled: an instance the cancel-aware
    // parallel loop never starts (token tripped first) must not
    // surface as a default-constructed Ok result.  Instances that do
    // run overwrite their slot wholesale.
    for (transpiler::CompileResult &r : results) {
        r.status = transpiler::CompileStatus::Cancelled;
        r.failure_reason = "batch cancelled before this instance started";
    }
    par::parallelForTasks(
        instances.size(), series_token, [&](std::uint64_t i) {
            core::QaoaCompileOptions inst_opts = opts;
            inst_opts.seed = seeds[i];
            inst_opts.guard = &guards[i];
            results[i] =
                core::compileQaoaMaxcut(instances[i], map, inst_opts);
        });

    MetricSeries series;
    for (const transpiler::CompileResult &r : results) {
        series.depth.push_back(static_cast<double>(r.report.depth));
        series.gate_count.push_back(
            static_cast<double>(r.report.gate_count));
        series.compile_seconds.push_back(r.report.compile_seconds);
        series.swap_count.push_back(
            static_cast<double>(r.report.swap_count));
        series.status.push_back(r.status);
    }
    return series;
}

double
exactExpectedCut(const graph::Graph &problem,
                 const std::vector<double> &gammas,
                 const std::vector<double> &betas,
                 const run::RunGuard *guard)
{
    if (const std::optional<double> w = uniformWeight(problem)) {
        core::checkLevels(gammas, betas);
        // The state and the table, checked before either is allocated.
        const int n = problem.numNodes();
        const std::uint64_t bytes = sim::Statevector::allocationBytes(n) +
                                    cutCountBytes(n, problem.numEdges());
        if (guard) {
            guard->checkAllocation("diagonal QAOA evaluation", bytes);
            guard->poll("cut-count table");
        }
        const std::shared_ptr<const CutCounts> cuts =
            cachedCutCounts(problem);
        return cuts->wide.empty()
                   ? diagonalExpectedCut(problem, *w, cuts->narrow, gammas,
                                         betas, guard)
                   : diagonalExpectedCut(problem, *w, cuts->wide, gammas,
                                         betas, guard);
    }
    circuit::Circuit logical = core::buildQaoaCircuit(
        problem, gammas, betas, /*measure=*/false);
    sim::Statevector state(problem.numNodes(), guard);
    state.apply(logical);
    std::vector<double> probs = state.probabilities();
    double expectation = 0.0;
    for (std::size_t bits = 0; bits < probs.size(); ++bits)
        if (probs[bits] > 0.0)
            expectation += probs[bits] *
                           graph::cutValue(problem,
                                           static_cast<std::uint64_t>(bits));
    return expectation;
}

P1Parameters
optimizeP1(const graph::Graph &problem)
{
    return optimizeP1Checkpointed(problem, {}).params;
}

std::string
problemHash(const graph::Graph &problem)
{
    // FNV-1a over node count and the weighted edge list.  Same byte
    // stream as before the common/hash.hpp refactor, so pre-existing
    // checkpoints keep their hashes.
    Fnv1a h;
    h.u64(static_cast<std::uint64_t>(problem.numNodes()));
    for (const graph::Edge &e : problem.edges()) {
        h.u64(static_cast<std::uint64_t>(e.u));
        h.u64(static_cast<std::uint64_t>(e.v));
        h.f64(e.weight);
    }
    return h.hex();
}

P1Run
optimizeP1Checkpointed(const graph::Graph &problem,
                       const OptimizeP1Options &options)
{
    constexpr double pi = std::numbers::pi;
    // Maximize expected cut == minimize its negation.  CPHASE(γ) and the
    // RX(2β) mixer make the landscape 2π-periodic in γ and π-periodic in
    // β.
    opt::Objective objective = [&](const std::vector<double> &x) {
        return -exactExpectedCut(problem, {x[0]}, {x[1]},
                                 options.guard);
    };
    const std::vector<opt::GridAxis> axes{{0.0, 2.0 * pi, 13},
                                          {0.0, pi, 9}};
    const std::string hash = problemHash(problem);

    opt::OptCheckpoint cp;
    bool resumed = false;
    if (options.resume && !options.checkpoint_path.empty() &&
        opt::loadCheckpointFile(options.checkpoint_path, cp)) {
        QAOA_CHECK(cp.problem_hash == hash,
                   "checkpoint " << options.checkpoint_path
                                 << " belongs to problem "
                                 << cp.problem_hash << ", not " << hash);
        resumed = true;
    } else {
        cp = opt::OptCheckpoint{};
        cp.problem_hash = hash;
    }

    auto save = [&]() {
        if (!options.checkpoint_path.empty())
            opt::saveCheckpointFile(options.checkpoint_path, cp);
    };
    opt::OptHooks hooks;
    hooks.guard = options.guard;
    hooks.on_progress = save;

    // Same sequence as opt::gridThenNelderMead(), phase by phase, so
    // an unguarded, checkpoint-free run is arithmetically identical to
    // optimizeP1()'s historical behavior.
    if (cp.phase == opt::OptPhase::Grid) {
        opt::gridSearchResume(objective, axes, cp.grid, hooks);
        cp.phase = opt::OptPhase::Nm;
        save();
    }
    if (cp.phase == opt::OptPhase::Nm) {
        opt::OptResult refined = opt::nelderMeadResume(
            objective, cp.grid.best_x, {}, cp.nm, hooks);
        refined.evaluations += cp.grid.evaluations;
        if (cp.grid.best_value < refined.value) {
            // Guard against a pathological refinement step.
            refined.x = cp.grid.best_x;
            refined.value = cp.grid.best_value;
        }
        cp.final_x = refined.x;
        cp.final_value = refined.value;
        cp.final_evaluations = refined.evaluations;
        cp.phase = opt::OptPhase::Done;
        save();
    }

    QAOA_CHECK(cp.final_x.size() == 2,
               "p=1 checkpoint finished with " << cp.final_x.size()
                                               << " parameters");
    P1Run run;
    run.params.gamma = cp.final_x[0];
    run.params.beta = cp.final_x[1];
    run.params.expected_cut = -cp.final_value;
    run.evaluations = cp.final_evaluations;
    run.resumed = resumed;
    return run;
}

} // namespace qaoa::metrics
