/** @file
 * Golden corpus of compiled outputs: the behaviour every compile-path
 * refactor must keep bit for bit.
 *
 * Each case compiles one Fig. 11-style instance (ER and random regular,
 * n = 10) as MaxCut or as an Ising model with linear terms, with one of
 * the six methods, on ibmq_20_tokyo, ibmq_16_melbourne or a 4x5 grid,
 * healthy or fault-masked (hw::FaultInjector, placement confined to
 * usable()), at p = 1 or 2, with the peephole pass on or off.  A small
 * extra slice keeps decompose_to_basis off.  Per case the corpus holds
 * the FNV-1a of the qbin encoding of CompileResult::compiled, the
 * status, the depth/CNOT/SWAP counts and both layouts; timings are left
 * out.
 *
 * There is deliberately no switch that rewrites the corpus.  A mismatch
 * prints the case id with the expected and the actual line; a change
 * that is meant to alter compiled output regenerates
 * tests/golden/compile_corpus.txt from those lines in a commit of its
 * own that says why.  The hashes assume IEEE-754 doubles without
 * floating-point contraction (the x86-64 default).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/qbin.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "hardware/calibration.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"
#include "qaoa/ising.hpp"

namespace qaoa::core {
namespace {

struct NamedGraph
{
    std::string name;
    graph::Graph graph{0};
};

/** Three Fig. 11-style instances: sparse ER, dense ER, 4-regular. */
std::vector<NamedGraph>
instances()
{
    return {
        {"er10p3", metrics::erdosRenyiInstances(10, 0.3, 1, 1101)[0]},
        {"er10p6", metrics::erdosRenyiInstances(10, 0.6, 1, 1102)[0]},
        {"reg10k4", metrics::regularInstances(10, 4, 1, 1104)[0]},
    };
}

/** Ising model on @p g with varied couplings and linear terms (some
 *  zero, so the skipped-RZ branch is covered too). */
IsingModel
isingOf(const graph::Graph &g)
{
    IsingModel m(g.numNodes());
    for (const graph::Edge &e : g.edges())
        m.addQuadratic(e.u, e.v, 0.5 + 0.25 * ((e.u + e.v) % 3));
    for (int i = 0; i < g.numNodes(); ++i)
        m.addLinear(i, 0.25 * (i % 4) - 0.25);
    return m;
}

/** One device, healthy and fault-masked, with calibrations for VIC. */
struct DeviceViews
{
    hw::CouplingMap base;
    hw::CalibrationData calib;
    std::unique_ptr<hw::FaultInjector> faulty;

    explicit DeviceViews(hw::CouplingMap map)
        : base(std::move(map)), calib(randomCalib(base))
    {
        hw::FaultSpec spec;
        spec.dead_qubits = {3};
        spec.disabled_edges = {{0, 1}};
        spec.edge_fault_rate = 0.08;
        spec.seed = 11;
        faulty = std::make_unique<hw::FaultInjector>(base, spec, &calib);
    }

    static hw::CalibrationData
    randomCalib(const hw::CouplingMap &map)
    {
        Rng rng(2020);
        return hw::randomCalibration(map, rng);
    }
};

std::string
joined(const std::vector<int> &v)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < v.size(); ++i)
        out << (i ? "." : "") << v[i];
    return v.empty() ? "-" : out.str();
}

/** The corpus line (without the case id) of one compile. */
std::string
describe(const transpiler::CompileResult &r)
{
    Fnv1a h;
    h.str(circuit::qbin::encodeCircuit(r.compiled));
    std::ostringstream os;
    os << h.hex() << " " << transpiler::statusName(r.status)
       << " d=" << r.report.depth << " cx=" << r.report.cx_count
       << " swaps=" << r.report.swap_count
       << " init=" << joined(r.initial_layout.logToPhys())
       << " final=" << joined(r.final_layout.logToPhys());
    return os.str();
}

/** Every case of one device, keyed by case id. */
std::map<std::string, std::string>
compileSlice(const std::string &device_name, hw::CouplingMap map)
{
    const DeviceViews views(std::move(map));
    const Method methods[] = {Method::Naive, Method::GreedyV, Method::Qaim,
                              Method::Ip,    Method::Ic,      Method::Vic};
    std::map<std::string, std::string> out;
    for (const NamedGraph &inst : instances()) {
        const IsingModel ising = isingOf(inst.graph);
        for (bool is_ising : {false, true}) {
            for (Method method : methods) {
                for (bool faulty : {false, true}) {
                    for (int p : {1, 2}) {
                        for (int variant = 0; variant < 3; ++variant) {
                            // variant 0/1: peephole off/on; variant 2:
                            // basis translation off (one slice only).
                            const bool peephole = variant == 1;
                            const bool basis = variant != 2;
                            if (!basis && (faulty || p != 1))
                                continue;
                            QaoaCompileOptions opts;
                            opts.method = method;
                            opts.gammas = p == 1
                                              ? std::vector<double>{0.7}
                                              : std::vector<double>{0.7, 0.45};
                            opts.betas = p == 1
                                             ? std::vector<double>{0.35}
                                             : std::vector<double>{0.35, 0.2};
                            opts.seed = 17;
                            opts.peephole = peephole;
                            opts.decompose_to_basis = basis;
                            opts.calibration = &views.calib;
                            const hw::CouplingMap *target = &views.base;
                            if (faulty) {
                                target = &views.faulty->map();
                                opts.calibration =
                                    &views.faulty->calibration();
                                opts.allowed_qubits =
                                    &views.faulty->usable();
                                opts.device_degraded = true;
                            }
                            const transpiler::CompileResult r =
                                is_ising
                                    ? compileQaoaIsing(ising, *target, opts)
                                    : compileQaoaMaxcut(inst.graph,
                                                        *target, opts);
                            const std::string id =
                                device_name + "/" +
                                (faulty ? "faulty" : "healthy") + "/" +
                                inst.name + "/" +
                                (is_ising ? "ising" : "maxcut") + "/" +
                                methodName(method) + "/p" +
                                std::to_string(p) + "/" +
                                (basis ? (peephole ? "peep" : "plain")
                                       : "nobasis");
                            out[id] = describe(r);
                        }
                    }
                }
            }
        }
    }
    return out;
}

/** Corpus entries whose id starts with "<device>/". */
std::map<std::string, std::string>
loadCorpus(const std::string &device_name)
{
    std::ifstream in(QAOA_GOLDEN_CORPUS);
    EXPECT_TRUE(in.good()) << "cannot open " << QAOA_GOLDEN_CORPUS;
    std::map<std::string, std::string> corpus;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        const std::string id = line.substr(0, space);
        if (id.rfind(device_name + "/", 0) == 0)
            corpus[id] = line.substr(space + 1);
    }
    return corpus;
}

void
checkSlice(const std::string &device_name, hw::CouplingMap map)
{
    const std::map<std::string, std::string> expected =
        loadCorpus(device_name);
    const std::map<std::string, std::string> actual =
        compileSlice(device_name, std::move(map));
    int mismatches = 0;
    for (const auto &[id, line] : actual) {
        auto it = expected.find(id);
        if (it != expected.end() && it->second == line)
            continue;
        ++mismatches;
        ADD_FAILURE() << "golden mismatch for case " << id
                      << "\n  expected: "
                      << (it == expected.end() ? "(missing)" : it->second)
                      << "\n  actual:   " << id << " " << line;
    }
    for (const auto &[id, line] : expected)
        if (!actual.count(id))
            ADD_FAILURE() << "corpus names a case that no longer exists: "
                          << id;
    EXPECT_EQ(mismatches, 0) << "of " << actual.size() << " cases";
}

TEST(GoldenCorpus, Tokyo) { checkSlice("tokyo", hw::ibmqTokyo20()); }

TEST(GoldenCorpus, Melbourne)
{
    checkSlice("melbourne", hw::ibmqMelbourne15());
}

TEST(GoldenCorpus, Grid4x5) { checkSlice("grid4x5", hw::gridDevice(4, 5)); }

} // namespace
} // namespace qaoa::core
