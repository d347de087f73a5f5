/**
 * @file
 * Shared pieces of the three benchmark workloads: run configuration,
 * the per-run result, the set-up timer, output digests and the
 * independent compile oracle.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "hardware/coupling_map.hpp"
#include "qaoa/api.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

// The benchmark names library modules as the library does (core::,
// graph::, serve::, ...).
using namespace qaoa;

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir; ///< Scratch directory inside the checkout.
};

struct RunResult
{
    Ledger ledger;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failure descriptions (all are counted). */
    std::vector<std::string> failures;
    /** Threads this workload runs on, for the ledger's provenance. */
    int threads = 0;
    /** Digest of every distinct output, so a behaviour change shows. */
    std::string output_digest;

    /** Counts one checked operation; a failed one is also counted and,
     *  for the first few, described by @p describe() (only called on
     *  failure, so passing checks cost no string work). */
    template <typename Describe>
    void
    check(bool ok, Describe &&describe)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(describe());
    }
};

/**
 * Measures how fast the machine runs while a workload does, so that its
 * times can be scaled to one reference speed.  The shared 4-core virtual
 * machine the benchmark was written on changed speed from minute to
 * minute, and with it the fastest repeats of a 30-second run by up to
 * 30%.  A fixed kernel of the benchmark's own, an FNV-1a chain over
 * 16 KiB and complex butterflies over 16 KiB, slowed with the workloads:
 * divided by the 5th percentile of its runs in the same run, the times
 * varied between runs about half as much as without (its fastest run
 * tracked them less well).  The library cannot change the kernel's time,
 * so the scaled times still move with the library.
 */
class SpeedProbe
{
  public:
    SpeedProbe();

    /** Runs the kernel (about 0.5 ms) when kProbeInterval has passed
     *  since its last run; workloads call this between operations. */
    void poll();

    /** kReferenceMs over the kQuantile quantile of the kernel's runs:
     *  multiplies this run's times (divides its rates) to the reference
     *  speed. */
    double factor() const;

    /** Adds that quantile and the factor to @p ledger. */
    void report(Ledger &ledger) const;

  private:
    /** The kernel's kQuantile time on the machine the benchmark was
     *  written on (see above). */
    static constexpr double kReferenceMs = 0.55;
    static constexpr double kQuantile = 0.05;
    static constexpr double kProbeInterval = 0.1;

    double typicalFastMs() const;

    std::vector<std::uint8_t> bytes_;
    std::vector<double> amps_; ///< Interleaved real and imaginary parts.
    std::vector<double> run_ms_;
    double last_ = -1.0;
};

/** Runs @p setup @p repeats times and returns the median wall time in
 *  seconds; the last repetition's products are what the run uses.
 *  @p teardown, untimed, releases each earlier repetition's products. */
double timeSetup(int repeats, const std::function<void()> &setup,
                 const std::function<void()> &teardown);

/** A connected G(n, m) graph: an ER graph whose edge count, and so the
 *  work it costs, does not depend on the seed. */
graph::Graph connectedGnm(int n, int m, Rng &rng);

/** Seconds on a steady clock since an arbitrary epoch. */
double nowSeconds();

/** 64-bit FNV-1a of @p bytes, folded into @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 1469598103934665603ULL);

/** Hex form of @p h. */
std::string hex64(std::uint64_t h);

/**
 * Independent compile oracle: @p result must be ok() and its physical
 * circuit must pass verify::verifyCircuit against the ZZ multiset taken
 * straight from the edges of @p problem (one term per edge per level,
 * angle gamma * weight).  Returns "" or a description of the failure.
 */
std::string checkCompile(const transpiler::CompileResult &result,
                         const graph::Graph &problem,
                         const hw::CouplingMap &map,
                         const core::QaoaCompileOptions &opts);

/**
 * Replays rung 0 of core::compileQaoaMaxcut() through the public pass
 * functions, making the same calls in the same RNG order as
 * qaoa/api.cpp, and records one span per pass on @p rec (null records
 * nothing).  On a healthy device rung 0 is the whole compile, so the
 * compiled circuit must be bit-identical to the library's.  When
 * @p ic_layers is set, the CPHASE layers icCompileCostLayer formed are
 * added to it.
 */
transpiler::CompileResult replayCompile(const graph::Graph &problem,
                                        const hw::CouplingMap &map,
                                        const core::QaoaCompileOptions &opts,
                                        SpanRecorder *rec,
                                        std::uint32_t request,
                                        int *ic_layers);

/** Adds each span name's median self time to @p ledger under the
 *  names in @p names (span name -> metric name, unit ms or us). */
void addSpanMedians(Ledger &ledger, const SpanRecorder &rec,
                    const std::vector<std::pair<std::string, std::string>>
                        &names);

void runCompileFig11(const RunConfig &config, RunResult &out);
void runServeStorm(const RunConfig &config, RunResult &out);
void runSimP1(const RunConfig &config, RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
