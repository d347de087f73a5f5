#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numbers>
#include <utility>

#include "bench.hpp"
#include "circuit/decompose.hpp"
#include "circuit/qbin.hpp"
#include "graph/generators.hpp"
#include "hardware/calibration.hpp"
#include "qaoa/incremental.hpp"
#include "qaoa/ip.hpp"
#include "qaoa/problem.hpp"
#include "qaoa/profile_stats.hpp"
#include "qaoa/qaim.hpp"
#include "transpiler/layout_passes.hpp"
#include "transpiler/peephole.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using core::Method;
using transpiler::CompileResult;
using transpiler::Layout;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
timeSetup(int repeats, const std::function<void()> &setup,
          const std::function<void()> &teardown)
{
    std::vector<double> seconds;
    for (int i = 0; i < repeats; ++i) {
        if (i > 0)
            teardown();
        const double t0 = nowSeconds();
        setup();
        seconds.push_back(nowSeconds() - t0);
    }
    return median(seconds);
}

graph::Graph
connectedGnm(int n, int m, Rng &rng)
{
    for (;;) {
        graph::Graph g = graph::randomGnm(n, m, rng);
        if (graph::connectedComponents(g).size() == 1)
            return g;
    }
}

SpeedProbe::SpeedProbe() : bytes_(16 * 1024), amps_(2048) {}

void
SpeedProbe::poll()
{
    const double t0 = nowSeconds();
    if (t0 - last_ < kProbeInterval)
        return;
    std::uint64_t h = fnv1a("");
    for (int pass = 0; pass < 12; ++pass)
        for (std::uint8_t b : bytes_) {
            h ^= b;
            h *= 1099511628211ULL;
        }
    bytes_[h % bytes_.size()] ^= 1; // Keeps the chain from being elided.
    // Unitary butterflies (a + b, (a - b) e^{i theta}) / sqrt 2 in real
    // arithmetic, restarted each run so the values stay normal.
    std::fill(amps_.begin(), amps_.end(), 0.03);
    constexpr double r = 1.0 / std::numbers::sqrt2;
    constexpr double c = 0.6 * r, s = 0.8 * r;
    for (int pass = 0; pass < 256; ++pass)
        for (std::size_t i = 0; i < amps_.size(); i += 4) {
            const double ar = amps_[i], ai = amps_[i + 1];
            const double br = amps_[i + 2], bi = amps_[i + 3];
            const double dr = ar - br, di = ai - bi;
            amps_[i] = (ar + br) * r;
            amps_[i + 1] = (ai + bi) * r;
            amps_[i + 2] = dr * c - di * s;
            amps_[i + 3] = dr * s + di * c;
        }
    last_ = nowSeconds();
    run_ms_.push_back((last_ - t0) * 1e3);
}

double
SpeedProbe::typicalFastMs() const
{
    std::vector<double> sorted = run_ms_;
    std::sort(sorted.begin(), sorted.end());
    return quantileSorted(sorted, kQuantile);
}

double
SpeedProbe::factor() const
{
    return run_ms_.empty() ? 1.0 : kReferenceMs / typicalFastMs();
}

void
SpeedProbe::report(Ledger &ledger) const
{
    ledger.add("probe.p5_ms", typicalFastMs(), "ms", run_ms_.size(),
               "5th percentile of the speed probe kernel's runs");
    ledger.add("probe.factor", factor(), "ratio", run_ms_.size(),
               "reference kernel time / probe.p5_ms");
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
checkCompile(const CompileResult &result, const graph::Graph &problem,
             const hw::CouplingMap &map, const core::QaoaCompileOptions &opts)
{
    if (!result.ok())
        return "compile not ok: " + result.failure_reason;
    std::vector<verify::ZZTerm> expected;
    for (double gamma : opts.gammas)
        for (const graph::Edge &e : problem.edges())
            expected.push_back({e.u, e.v, gamma * e.weight});
    verify::VerifySpec spec;
    spec.map = &map;
    spec.initial_log_to_phys = result.initial_layout.logToPhys();
    spec.expected_final = result.final_layout.logToPhys();
    spec.expected_interactions = &expected;
    spec.lift_basis = false;
    spec.ignore_zero_interactions = opts.peephole;
    const verify::VerifyReport report =
        verify::verifyCircuit(result.physical, spec);
    return report.clean() ? "" : "verifier: " + report.summary();
}

namespace {

/** qaoa/api.cpp chooseLayout(). */
Layout
chooseLayout(Method method, const std::vector<core::ZZOp> &ops, int n,
             const hw::CouplingMap &map, Rng &rng)
{
    switch (method) {
      case Method::Naive: return transpiler::randomLayout(n, map, rng);
      case Method::GreedyV:
        return transpiler::greedyVLayout(core::opsPerQubit(ops, n), map);
      default: return core::qaimLayout(ops, n, map, rng);
    }
}

/** Peephole, basis translation and report, as both api.cpp paths end. */
CompileResult
finish(circuit::Circuit physical, const core::QaoaCompileOptions &opts,
       SpanRecorder *rec, std::uint32_t request)
{
    if (opts.peephole) {
        ScopedSpan span(rec, "transpiler.peephole", request);
        physical = transpiler::peepholeOptimize(physical);
    }
    CompileResult result;
    {
        ScopedSpan span(rec, "transpiler.basis", request);
        result.physical = physical;
        result.compiled = opts.decompose_to_basis
                              ? circuit::decomposeToBasis(physical)
                              : std::move(physical);
    }
    if (opts.peephole) {
        ScopedSpan span(rec, "transpiler.peephole", request);
        result.compiled = transpiler::peepholeOptimize(result.compiled);
    }
    result.report.depth = result.compiled.depth();
    result.report.gate_count = result.compiled.gateCount();
    result.report.cx_count =
        result.compiled.countType(circuit::GateType::CNOT);
    return result;
}

} // namespace

CompileResult
replayCompile(const graph::Graph &problem, const hw::CouplingMap &map,
              const core::QaoaCompileOptions &opts, SpanRecorder *rec,
              std::uint32_t request, int *ic_layers)
{
    const int n = problem.numNodes();
    const std::vector<core::ZZOp> ops = core::costOperations(problem);
    Rng rng(opts.seed);
    Layout initial;
    {
        ScopedSpan span(rec, "qaoa.layout", request);
        initial = chooseLayout(opts.method, ops, n, map, rng);
    }

    CompileResult result;
    if (opts.method == Method::Ic || opts.method == Method::Vic) {
        graph::DistanceMatrix weighted;
        core::IncrementalOptions iopts;
        iopts.packing_limit = opts.packing_limit;
        iopts.router = opts.router;
        if (opts.method == Method::Vic) {
            ScopedSpan span(rec, "hardware.vic_distances", request);
            weighted = hw::weightedDistances(map, *opts.calibration);
            iopts.distances = &weighted;
        }
        circuit::Circuit physical(map.numQubits());
        Layout layout = initial;
        for (int l = 0; l < n; ++l)
            physical.add(circuit::Gate::h(layout.physicalOf(l)));
        int swaps = 0;
        for (std::size_t level = 0; level < opts.gammas.size(); ++level) {
            iopts.seed = rng.fork();
            ScopedSpan span(rec, "qaoa.ic_layer", request);
            core::IncrementalResult inc = core::icCompileCostLayer(
                ops, map, layout, opts.gammas[level], iopts);
            physical.append(inc.physical);
            layout = inc.final_layout;
            swaps += inc.swap_count;
            if (ic_layers)
                *ic_layers += inc.layer_count;
            for (int l = 0; l < n; ++l)
                physical.add(circuit::Gate::rx(layout.physicalOf(l),
                                               2.0 * opts.betas[level]));
        }
        if (opts.measure)
            for (int l = 0; l < n; ++l)
                physical.add(circuit::Gate::measure(layout.physicalOf(l), l));
        result = finish(std::move(physical), opts, rec, request);
        result.final_layout = layout;
        result.report.swap_count = swaps;
    } else {
        circuit::Circuit logical(0);
        transpiler::CompileOptions copts;
        {
            ScopedSpan span(rec, "qaoa.order", request);
            std::vector<core::ZZOp> ordered = ops;
            if (opts.method == Method::Ip)
                ordered = core::ipOrder(ops, n, rng, opts.packing_limit).order;
            else
                rng.shuffle(ordered);
            logical = core::buildQaoaCircuit(n, ordered, opts.gammas,
                                             opts.betas, opts.measure);
        }
        copts.router = opts.router;
        copts.router.seed = rng.fork();
        copts.layered_routing = true;
        copts.decompose_to_basis = false; // Timed as its own span below.
        copts.peephole = false;
        CompileResult routed;
        {
            ScopedSpan span(rec, "transpiler.route", request);
            routed = transpiler::compileCircuit(logical, map, initial, copts);
        }
        if (!routed.ok())
            return routed;
        result = finish(std::move(routed.physical), opts, rec, request);
        result.final_layout = routed.final_layout;
        result.report.swap_count = routed.report.swap_count;
    }
    result.initial_layout = initial;

    if (opts.verify) {
        std::vector<verify::ZZTerm> expected;
        for (double gamma : opts.gammas)
            for (const core::ZZOp &op : ops)
                expected.push_back({op.a, op.b, gamma * op.weight});
        ScopedSpan span(rec, "verify", request);
        verify::VerifySpec spec;
        spec.map = &map;
        spec.initial_log_to_phys = result.initial_layout.logToPhys();
        spec.expected_final = result.final_layout.logToPhys();
        spec.expected_interactions = &expected;
        spec.lift_basis = false;
        spec.ignore_zero_interactions = opts.peephole;
        if (!verify::verifyCircuit(result.physical, spec).clean()) {
            result.status = transpiler::CompileStatus::Failed;
            result.failure_reason = "replay: verifier rejected rung 0";
        }
    }
    if (opts.analyze_quality && result.ok()) {
        ScopedSpan span(rec, "analysis", request);
        analysis::QualityOptions qopts;
        qopts.lint.map = &map;
        qopts.lint.calibration = opts.calibration;
        result.quality = analysis::analyzeCircuit(result.physical, qopts);
    }
    return result;
}

void
addSpanMedians(Ledger &ledger, const SpanRecorder &rec,
               const std::vector<std::pair<std::string, std::string>> &names)
{
    const auto self = rec.selfTimesMs();
    for (const auto &[span, metric] : names) {
        const auto it = self.find(span);
        std::vector<double> values =
            it == self.end() ? std::vector<double>{} : it->second;
        const bool micro = metric.size() > 3 &&
                           metric.compare(metric.size() - 3, 3, "_us") == 0;
        if (micro)
            for (double &v : values)
                v *= 1e3;
        ledger.add(metric, median(values), micro ? "us" : "ms",
                   values.size(), "median per operation of the self time in span " + span);
    }
}

} // namespace perfbench
