#include "serve/request.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "graph/io.hpp"
#include "opt/checkpoint.hpp"

namespace qaoa::serve {

namespace {

constexpr const char *kCanonicalVersion = "qaoa-serve-req-v2";

/**
 * Lossless graph rendering for the canonical form.  writeEdgeList()
 * prints weights at default ostream precision (6 significant digits),
 * which would collapse weights differing only beyond that into the
 * same fingerprint — and the canonical-match collision guard would
 * pass, serving the wrong cached circuit.  Hexfloat weights keep the
 * fingerprint faithful to every bit the compiled rz angles depend on.
 */
std::string
canonicalGraph(const graph::Graph &g)
{
    std::string out = std::to_string(g.numNodes());
    for (const graph::Edge &e : g.edges()) {
        out += ';';
        out += std::to_string(e.u) + "-" + std::to_string(e.v) + "@" +
               opt::formatHexDouble(e.weight);
    }
    return out;
}

std::string
joinDoubles(const std::vector<double> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += opt::formatHexDouble(v[i]);
    }
    return out;
}

std::vector<double>
splitDoubles(const std::string &text)
{
    std::vector<double> out;
    std::size_t start = 0;
    while (start <= text.size() && !text.empty()) {
        const std::size_t pos = text.find(',', start);
        const std::string item =
            pos == std::string::npos ? text.substr(start)
                                     : text.substr(start, pos - start);
        out.push_back(opt::parseHexDouble(item));
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return out;
}

std::string
joinInts(const std::vector<int> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

std::string
joinEdges(const std::vector<std::pair<int, int>> &edges)
{
    std::string out;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(edges[i].first) + "-" +
               std::to_string(edges[i].second);
    }
    return out;
}

bool
parseBool(const std::string &text, const char *what)
{
    QAOA_CHECK(text == "0" || text == "1",
               "request: " << what << " must be 0 or 1, got: " << text);
    return text == "1";
}

} // namespace

std::vector<int>
parseQubitList(const std::string &text)
{
    std::vector<int> out;
    std::size_t start = 0;
    while (start <= text.size() && !text.empty()) {
        const std::size_t pos = text.find(',', start);
        const std::string item =
            pos == std::string::npos ? text.substr(start)
                                     : text.substr(start, pos - start);
        QAOA_CHECK(!item.empty(),
                   "request: empty item in int list: " << text);
        out.push_back(std::stoi(item));
        if (pos == std::string::npos)
            break;
        start = pos + 1;
    }
    return out;
}

std::vector<std::pair<int, int>>
parseCouplingList(const std::string &text)
{
    std::vector<std::pair<int, int>> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        QAOA_CHECK(!item.empty(),
                   "request: empty item in edge list: " << text);
        const std::size_t dash = item.find('-');
        QAOA_CHECK(dash != std::string::npos && dash > 0 &&
                       dash + 1 < item.size(),
                   "request: bad edge (want a-b): " << item);
        out.emplace_back(std::stoi(item.substr(0, dash)),
                         std::stoi(item.substr(dash + 1)));
    }
    return out;
}

std::string
canonicalText(const CompileRequest &r)
{
    // One field per line, fixed order, versioned.  Everything the
    // compiled artifact depends on appears here; serving metadata
    // (id, tenant, timeout) deliberately does not.
    std::ostringstream os;
    os << kCanonicalVersion << "\n"
       << "graph=" << canonicalGraph(r.problem) << "\n"
       << "device=" << r.device << "\n"
       << "method=" << r.method << "\n"
       << "gammas=" << joinDoubles(r.gammas) << "\n"
       << "betas=" << joinDoubles(r.betas) << "\n"
       << "packing=" << r.packing_limit << "\n"
       << "seed=" << r.seed << "\n"
       << "fault.dead=" << joinInts(r.faults.dead_qubits) << "\n"
       << "fault.edges=" << joinEdges(r.faults.disabled_edges) << "\n"
       << "fault.qubit_rate="
       << opt::formatHexDouble(r.faults.qubit_fault_rate) << "\n"
       << "fault.edge_rate="
       << opt::formatHexDouble(r.faults.edge_fault_rate) << "\n"
       << "fault.drift="
       << opt::formatHexDouble(r.faults.drift_multiplier) << "\n"
       << "fault.seed=" << r.faults.seed << "\n"
       << "router.lookahead_weight="
       << opt::formatHexDouble(r.lookahead_weight) << "\n"
       << "router.lookahead_depth=" << r.lookahead_depth << "\n"
       << "router.seed=" << r.router_seed << "\n"
       << "decompose=" << (r.decompose ? 1 : 0) << "\n"
       << "peephole=" << (r.peephole ? 1 : 0) << "\n"
       << "fallbacks=" << (r.allow_fallbacks ? 1 : 0) << "\n"
       << "verify=" << (r.verify ? 1 : 0) << "\n"
       << "analyze=" << (r.analyze_quality ? 1 : 0) << "\n"
       << "stage_budget=" << opt::formatHexDouble(r.stage_budget_ms)
       << "\n";
    return os.str();
}

std::string
requestFingerprint(const CompileRequest &request)
{
    Fnv1a h;
    h.str(canonicalText(request));
    return h.hex();
}

void
requestToRecord(const CompileRequest &r, kv::Record &out)
{
    out.set("id", r.id);
    if (!r.tenant.empty())
        out.set("tenant", r.tenant);
    if (r.timeout_ms >= 0.0)
        out.set("timeout_ms", opt::formatHexDouble(r.timeout_ms));
    out.set("graph", graph::writeEdgeList(r.problem));
    out.set("device", r.device);
    out.set("method", r.method);
    out.set("gammas", joinDoubles(r.gammas));
    out.set("betas", joinDoubles(r.betas));
    out.set("packing", std::to_string(r.packing_limit));
    out.set("seed", std::to_string(r.seed));
    if (!r.faults.dead_qubits.empty())
        out.set("dead_qubits", joinInts(r.faults.dead_qubits));
    if (!r.faults.disabled_edges.empty())
        out.set("disabled_edges", joinEdges(r.faults.disabled_edges));
    if (r.faults.qubit_fault_rate != 0.0)
        out.set("fault_qubit_rate",
                opt::formatHexDouble(r.faults.qubit_fault_rate));
    if (r.faults.edge_fault_rate != 0.0)
        out.set("fault_edge_rate",
                opt::formatHexDouble(r.faults.edge_fault_rate));
    if (r.faults.drift_multiplier != 1.0)
        out.set("fault_drift",
                opt::formatHexDouble(r.faults.drift_multiplier));
    out.set("fault_seed", std::to_string(r.faults.seed));
    out.set("lookahead_weight", opt::formatHexDouble(r.lookahead_weight));
    out.set("lookahead_depth", std::to_string(r.lookahead_depth));
    out.set("router_seed", std::to_string(r.router_seed));
    out.set("decompose", r.decompose ? "1" : "0");
    out.set("peephole", r.peephole ? "1" : "0");
    out.set("fallbacks", r.allow_fallbacks ? "1" : "0");
    out.set("verify", r.verify ? "1" : "0");
    out.set("analyze", r.analyze_quality ? "1" : "0");
    if (r.stage_budget_ms >= 0.0)
        out.set("stage_budget_ms",
                opt::formatHexDouble(r.stage_budget_ms));
}

CompileRequest
requestFromRecord(const kv::Record &record, int max_nodes)
{
    CompileRequest r;
    r.id = record.get("id", "");
    r.tenant = record.get("tenant", "");
    if (record.has("timeout_ms"))
        r.timeout_ms = opt::parseHexDouble(record.get("timeout_ms"));
    r.problem = graph::parseEdgeList(record.get("graph"));
    QAOA_CHECK(r.problem.numNodes() >= 1 &&
                   r.problem.numNodes() <= max_nodes,
               "request: graph has " << r.problem.numNodes()
                                     << " nodes, limit is " << max_nodes);
    r.device = record.get("device", r.device);
    r.method = record.get("method", r.method);
    // Validate names at admission time, not deep inside a worker.
    // qe-allow(QE104): lookup-as-validation — only the throw matters.
    (void)hw::deviceByName(r.device);
    // qe-allow(QE104): lookup-as-validation — only the throw matters.
    (void)core::methodFromName(r.method);
    if (record.has("gammas"))
        r.gammas = splitDoubles(record.get("gammas"));
    if (record.has("betas"))
        r.betas = splitDoubles(record.get("betas"));
    QAOA_CHECK(!r.gammas.empty() && r.gammas.size() == r.betas.size(),
               "request: gammas/betas must be non-empty and equal-length");
    if (record.has("packing"))
        r.packing_limit = std::stoi(record.get("packing"));
    QAOA_CHECK(r.packing_limit >= 1,
               "request: packing must be >= 1, got " << r.packing_limit);
    if (record.has("seed"))
        r.seed = std::stoull(record.get("seed"));
    if (record.has("dead_qubits"))
        r.faults.dead_qubits = parseQubitList(record.get("dead_qubits"));
    if (record.has("disabled_edges"))
        r.faults.disabled_edges =
            parseCouplingList(record.get("disabled_edges"));
    if (record.has("fault_qubit_rate"))
        r.faults.qubit_fault_rate =
            opt::parseHexDouble(record.get("fault_qubit_rate"));
    if (record.has("fault_edge_rate"))
        r.faults.edge_fault_rate =
            opt::parseHexDouble(record.get("fault_edge_rate"));
    if (record.has("fault_drift"))
        r.faults.drift_multiplier =
            opt::parseHexDouble(record.get("fault_drift"));
    if (record.has("fault_seed"))
        r.faults.seed = std::stoull(record.get("fault_seed"));
    if (record.has("lookahead_weight"))
        r.lookahead_weight =
            opt::parseHexDouble(record.get("lookahead_weight"));
    if (record.has("lookahead_depth"))
        r.lookahead_depth = std::stoi(record.get("lookahead_depth"));
    if (record.has("router_seed"))
        r.router_seed = std::stoull(record.get("router_seed"));
    if (record.has("decompose"))
        r.decompose = parseBool(record.get("decompose"), "decompose");
    if (record.has("peephole"))
        r.peephole = parseBool(record.get("peephole"), "peephole");
    if (record.has("fallbacks"))
        r.allow_fallbacks =
            parseBool(record.get("fallbacks"), "fallbacks");
    if (record.has("verify"))
        r.verify = parseBool(record.get("verify"), "verify");
    if (record.has("analyze"))
        r.analyze_quality = parseBool(record.get("analyze"), "analyze");
    if (record.has("stage_budget_ms"))
        r.stage_budget_ms =
            opt::parseHexDouble(record.get("stage_budget_ms"));
    return r;
}

StatusOr<CompileRequest>
tryRequestFromRecord(const kv::Record &record, int max_nodes)
{
    try {
        return requestFromRecord(record, max_nodes);
    } catch (const Error &e) {
        return e.status();
    } catch (const std::invalid_argument &e) {
        // std::sto* rejects an unparseable numeric field this way; it
        // derives from logic_error but describes the CLIENT's input.
        return Status(ErrorCode::Malformed,
                      std::string("request: unparseable numeric field: ") +
                          e.what());
    } catch (const std::out_of_range &e) {
        return Status(ErrorCode::Malformed,
                      std::string("request: numeric field out of range: ") +
                          e.what());
    } catch (const std::exception &e) {
        return Status(ErrorCode::InvalidArgument, e.what());
    }
}

RequestEnvironment::RequestEnvironment(
    const CompileRequest &request,
    const CalibrationFactory &base_calibration)
    : base_map(hw::deviceByName(request.device)),
      base_calib(base_calibration(base_map))
{
    if (!request.faults.empty())
        injector = std::make_unique<hw::FaultInjector>(
            base_map, request.faults, &base_calib);
}

int
RequestEnvironment::usableQubits() const
{
    if (!injector)
        return base_map.numQubits();
    const std::vector<char> &usable = injector->usable();
    return static_cast<int>(std::count_if(
        usable.begin(), usable.end(), [](char c) { return c != 0; }));
}

std::unique_ptr<RequestEnvironment>
makeEnvironment(const CompileRequest &request,
                const CalibrationFactory &base_calibration)
{
    return std::make_unique<RequestEnvironment>(request, base_calibration);
}

core::QaoaCompileOptions
makeOptions(const CompileRequest &r, const RequestEnvironment &env)
{
    core::QaoaCompileOptions opts;
    opts.method = core::methodFromName(r.method);
    opts.gammas = r.gammas;
    opts.betas = r.betas;
    opts.packing_limit = r.packing_limit;
    opts.seed = r.seed;
    opts.calibration = &env.calibration();
    opts.router.lookahead_weight = r.lookahead_weight;
    opts.router.lookahead_depth = r.lookahead_depth;
    opts.router.seed = r.router_seed;
    opts.decompose_to_basis = r.decompose;
    opts.peephole = r.peephole;
    opts.allow_fallbacks = r.allow_fallbacks;
    opts.verify = r.verify;
    opts.analyze_quality = r.analyze_quality;
    opts.stage_budget_ms = r.stage_budget_ms;
    if (env.injector) {
        opts.allowed_qubits = &env.injector->usable();
        opts.device_degraded = !env.injector->deadQubits().empty() ||
                               !env.injector->disabledEdges().empty();
    }
    return opts;
}

} // namespace qaoa::serve
