/**
 * @file
 * Fault-tolerance sweep: compile quality and service availability as the
 * coupling fault rate grows from 0% to 30% on the three paper
 * topologies (ibmq_20_tokyo, ibmq_16_melbourne, hypothetical 6x6 grid).
 *
 * For each (device, fault rate) cell, several random fault draws degrade
 * the device (hardware/faults.hpp) and a pool of MaxCut instances is
 * compiled with the IC methodology against the largest surviving
 * component.  Reported per cell: how many compiles ended ok / degraded /
 * failed, and the mean depth, gate count and estimated success
 * probability of the circuits that did compile.  `--csv` emits the same
 * rows as comma-separated values.
 */

#include <iostream>
#include <string>
#include <vector>

#include "analysis/esp.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"

namespace {

using namespace qaoa;

struct Workload
{
    std::string label;
    hw::CouplingMap map;
    int problem_nodes;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchConfig config = bench::parseArgs(argc, argv);
    const int per_cell = config.instances(3, 10);  // instances per draw
    const int draws = config.instances(3, 8);      // fault draws per rate

    std::vector<Workload> workloads;
    workloads.push_back({"ibmq_20_tokyo", hw::ibmqTokyo20(), 12});
    workloads.push_back({"ibmq_16_melbourne", hw::ibmqMelbourne15(), 10});
    workloads.push_back({"grid_6x6", hw::gridDevice(6, 6), 16});

    const double rates[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30};

    Table table({"device", "fault rate", "ok", "degraded", "failed",
                 "mean depth", "mean gates", "mean succ. prob"});
    for (const Workload &w : workloads) {
        std::vector<graph::Graph> pool = metrics::erdosRenyiInstances(
            w.problem_nodes, 0.3, per_cell, 733);
        for (double rate : rates) {
            int ok = 0, degraded = 0, failed = 0;
            double depth_sum = 0.0, gates_sum = 0.0, prob_sum = 0.0;
            for (int draw = 0; draw < draws; ++draw) {
                hw::FaultSpec spec;
                spec.edge_fault_rate = rate;
                spec.seed = 1000 + static_cast<std::uint64_t>(draw);
                hw::FaultInjector inj(w.map, spec);

                core::QaoaCompileOptions opts;
                opts.method = core::Method::Ic;
                opts.seed = 99;
                opts.calibration = &inj.calibration();
                opts.allowed_qubits = &inj.usable();
                opts.device_degraded = !inj.disabledEdges().empty();
                for (const graph::Graph &g : pool) {
                    transpiler::CompileResult r =
                        core::compileQaoaMaxcut(g, inj.map(), opts);
                    switch (r.status) {
                      case transpiler::CompileStatus::Ok: ++ok; break;
                      case transpiler::CompileStatus::Degraded:
                        ++degraded;
                        break;
                      case transpiler::CompileStatus::Failed:
                      case transpiler::CompileStatus::TimedOut:
                      case transpiler::CompileStatus::Cancelled:
                      case transpiler::CompileStatus::ResourceExceeded:
                        ++failed;
                        continue; // no circuit to measure
                    }
                    depth_sum += r.report.depth;
                    gates_sum += r.report.gate_count;
                    prob_sum += analysis::estimateEsp(
                                    r.compiled, inj.calibration())
                                    .total;
                }
            }
            const int compiled = ok + degraded;
            table.addRow(
                {w.label, Table::num(rate, 2),
                 Table::num(static_cast<long long>(ok)),
                 Table::num(static_cast<long long>(degraded)),
                 Table::num(static_cast<long long>(failed)),
                 compiled ? Table::num(depth_sum / compiled) : "-",
                 compiled ? Table::num(gates_sum / compiled) : "-",
                 compiled ? Table::num(prob_sum / compiled, 4) : "-"});
        }
    }
    bench::emit(config,
                "fault sweep — IC compiles per (device, coupling fault "
                "rate) cell: " +
                    std::to_string(draws) + " fault draw(s) x " +
                    std::to_string(per_cell) + " instance(s)",
                table);
    std::cout << "degraded = compiled on a faulty device or via a "
                 "retry-ladder fallback; failed = no usable region "
                 "large enough / unroutable\n";
    return 0;
}
