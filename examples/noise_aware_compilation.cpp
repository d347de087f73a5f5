/**
 * @file
 * Variation-aware compilation in action: IC vs VIC on ibmq_16_melbourne
 * with the Fig. 10(a) calibration snapshot.  Shows the success
 * probability gain and the resulting ARG improvement under the noisy
 * hardware stand-in (Monte-Carlo depolarizing simulation).
 */

#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "hardware/devices.hpp"
#include "metrics/approx_ratio.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "sim/noise.hpp"
#include "analysis/esp.hpp"

int
main()
{
    using namespace qaoa;

    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    hw::CalibrationData calib = hw::melbourneCalibration(melbourne);

    Rng rng(2020);
    graph::Graph problem = graph::erdosRenyi(10, 0.5, rng);
    double optimum = graph::maxCutBruteForce(problem).value;
    metrics::P1Parameters params = metrics::optimizeP1(problem);
    std::cout << "problem: 10-node ER(0.5), " << problem.numEdges()
              << " edges; optimal gamma = " << params.gamma
              << ", beta = " << params.beta << "\n\n";

    Table table({"method", "depth", "gates", "success prob", "r0", "rh",
                 "ARG %"});
    for (core::Method m : {core::Method::Ic, core::Method::Vic}) {
        core::QaoaCompileOptions opts;
        opts.method = m;
        opts.calibration = &calib;
        opts.gammas = {params.gamma};
        opts.betas = {params.beta};
        opts.seed = 4;
        transpiler::CompileResult r =
            core::compileQaoaMaxcut(problem, melbourne, opts);

        double sp = analysis::estimateEsp(r.compiled, calib).total;

        Rng sample_rng(17);
        sim::Counts ideal =
            sim::runAndSample(r.compiled, 8192, sample_rng);
        double r0 = metrics::approximationRatio(problem, ideal, optimum);

        sim::NoiseOptions nopts;
        nopts.trajectories = 24;
        sim::Counts noisy =
            sim::noisySample(r.compiled, calib, 8192, sample_rng, nopts);
        double rh = metrics::approximationRatio(problem, noisy, optimum);

        table.addRow({core::methodName(m),
                      Table::num(static_cast<long long>(r.report.depth)),
                      Table::num(static_cast<long long>(
                          r.report.gate_count)),
                      Table::num(sp, 4), Table::num(r0, 3),
                      Table::num(rh, 3),
                      Table::num(metrics::approximationRatioGap(r0, rh),
                                 2)});
    }
    table.print(std::cout);
    std::cout << "\nVIC routes around the weak couplings reported in the\n"
                 "calibration snapshot, trading the same depth/gate count\n"
                 "for a higher product-of-success-rates and a smaller\n"
                 "approximation-ratio gap on noisy execution.\n";
    return 0;
}
