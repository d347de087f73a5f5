/**
 * @file
 * Ablation: decomposing VIC's success-probability gain.
 *
 * VIC changes two things relative to IC (§IV-D): (a) reliable CPHASEs
 * are *ordered* into earlier layers, and (b) SWAP *routing* is scored
 * against reliability-weighted distances (the VQM idea of [50]).  This
 * bench runs the four combinations on melbourne with the Fig. 10(a)
 * calibration and reports mean success probability of each, attributing
 * the gain to its source.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "qaoa/incremental.hpp"
#include "qaoa/qaim.hpp"
#include "analysis/esp.hpp"

namespace {

using namespace qaoa;

/** IC cost-layer compile with independently selectable matrices. */
double
meanSuccess(const std::vector<graph::Graph> &instances,
            const hw::CouplingMap &melbourne,
            const hw::CalibrationData &calib,
            const graph::DistanceMatrix &weighted, bool weighted_order,
            bool weighted_routing)
{
    Accumulator acc;
    Rng seeder(4242);
    for (const graph::Graph &g : instances) {
        std::vector<core::ZZOp> ops = core::costOperations(g);
        Rng rng(seeder.fork());
        transpiler::Layout layout =
            core::qaimLayout(ops, g.numNodes(), melbourne, rng);

        core::IncrementalOptions iopts;
        iopts.seed = rng.fork();
        iopts.distances = weighted_order ? &weighted : nullptr;
        iopts.router_distances =
            weighted_routing ? &weighted : &melbourne.distances();

        core::IncrementalResult inc = core::icCompileCostLayer(
            ops, melbourne, layout, 0.7, iopts);

        // Score the cost layer itself (H/mixer are method-independent).
        acc.add(analysis::estimateEsp(inc.physical, calib).total);
    }
    return acc.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchConfig config = bench::parseArgs(argc, argv);
    const int count = config.instances(16, 40);

    hw::CouplingMap melbourne = hw::ibmqMelbourne15();
    hw::CalibrationData calib = hw::melbourneCalibration(melbourne);
    graph::DistanceMatrix weighted =
        hw::weightedDistances(melbourne, calib);
    auto instances = metrics::erdosRenyiInstances(13, 0.5, count, 1331);

    double base =
        meanSuccess(instances, melbourne, calib, weighted, false, false);
    Table table({"configuration", "mean success prob", "vs IC"});
    auto row = [&](const std::string &name, double sp) {
        table.addRow({name, Table::num(sp, 5), Table::num(sp / base, 2)});
    };
    row("IC (hop order, hop routing)", base);
    row("weighted ordering only",
        meanSuccess(instances, melbourne, calib, weighted, true, false));
    row("weighted routing only (VQM [50])",
        meanSuccess(instances, melbourne, calib, weighted, false, true));
    row("both = VIC",
        meanSuccess(instances, melbourne, calib, weighted, true, true));
    bench::emit(config,
                "Ablation — decomposing VIC's gain, 13-node ER(0.5) "
                "cost layers on ibmq_16_melbourne (" +
                    std::to_string(count) + " instances)",
                table);
    std::cout << "expected shape: every configuration with weighting\n"
                 "beats plain IC; the ordering/routing mix is instance-\n"
                 "dependent (success products are heavy-tailed).\n";
    return 0;
}
