/**
 * @file
 * Compile requests: the unit of work the serve daemon accepts.
 *
 * A CompileRequest carries everything a compile depends on — problem
 * graph, device, method, angles, fault spec, router tunables, pipeline
 * flags — plus serving metadata (request id, tenant, client deadline)
 * that deliberately does NOT participate in the content address.
 *
 * canonicalText() renders the dependency-closure fields into one
 * versioned, order-fixed string; requestFingerprint() hashes it.  Two
 * requests share a fingerprint iff a compile for one is a valid answer
 * for the other, so the fingerprint is the compile cache's key
 * (serve/cache.hpp).  Every new option that can change the compiled
 * artifact MUST be added to canonicalText() — the hash-key
 * completeness tests in tests/test_serve.cpp guard the known fields.
 */

#ifndef QAOA_SERVE_REQUEST_HPP
#define QAOA_SERVE_REQUEST_HPP

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/kv.hpp"
#include "graph/graph.hpp"
#include "hardware/devices.hpp"
#include "hardware/faults.hpp"
#include "qaoa/api.hpp"

namespace qaoa::serve {

/** One compile request as received over the wire (or built in-process). */
struct CompileRequest
{
    /** @name Serving metadata (not part of the content address) @{ */
    std::string id;        ///< Client-chosen id, echoed in the response.
    std::string tenant;    ///< Fairness bucket; "" = anonymous tenant.
    double timeout_ms = -1.0; ///< Client deadline; negative = none.
    /** @} */

    /** @name Compile inputs (the content address covers all of these) @{ */
    graph::Graph problem{0};           ///< MaxCut problem graph.
    std::string device = "melbourne";  ///< hw::deviceByName() name.
    std::string method = "ic";         ///< core::methodFromName() name.
    std::vector<double> gammas{0.7};   ///< Cost angles (p levels).
    std::vector<double> betas{0.35};   ///< Mixer angles.
    int packing_limit = 1 << 30;       ///< Max CPHASEs per layer.
    std::uint64_t seed = 7;            ///< Compile master seed.
    hw::FaultSpec faults;              ///< Device degradation to inject.
    double lookahead_weight = 0.5;     ///< Router lookahead weight.
    int lookahead_depth = 20;          ///< Router lookahead depth.
    std::uint64_t router_seed = 17;    ///< Router tie-break seed.
    bool decompose = true;             ///< Translate to the IBM basis.
    bool peephole = false;             ///< Run the peephole optimizer.
    bool allow_fallbacks = true;       ///< Retry-ladder fallbacks.
    bool verify = true;                ///< Per-rung translation validation.
    bool analyze_quality = false;      ///< Record the quality report.
    double stage_budget_ms = -1.0;     ///< Per-rung watchdog budget.
    /** @} */
};

/**
 * Canonical, versioned rendering of the compile-relevant fields.
 * Stored next to the digest in cache entries so a hash collision can
 * only cause a miss, never a stale answer.
 */
[[nodiscard]] std::string canonicalText(const CompileRequest &request);

/** 16-hex-char content address: FNV-1a of canonicalText(). */
[[nodiscard]] std::string requestFingerprint(const CompileRequest &request);

/** Encodes the request as a wire record (type field excluded). */
void requestToRecord(const CompileRequest &request, kv::Record &out);

/**
 * Decodes a wire record into a request.  Unknown device/method names
 * and packing limits below 1 are rejected here (before the request is
 * admitted), as are graphs beyond @p max_nodes.
 *
 * @throws std::runtime_error on malformed or out-of-contract fields.
 */
[[nodiscard]] CompileRequest requestFromRecord(const kv::Record &record,
                                               int max_nodes = 64);

/**
 * Non-throwing requestFromRecord() for untrusted wire input: the
 * Status classifies the rejection (InvalidArgument for out-of-contract
 * fields, Malformed for unparseable ones).
 */
[[nodiscard]] StatusOr<CompileRequest>
tryRequestFromRecord(const kv::Record &record, int max_nodes = 64);

/**
 * Parses a comma-separated qubit list ("3,7,12"), as the wire's
 * dead_qubits field: "" is the empty list; an empty item ("3,,7", or a
 * trailing comma) throws.
 */
[[nodiscard]] std::vector<int> parseQubitList(const std::string &text);

/**
 * Parses a comma-separated coupling list ("0-1,4-5"), as the wire's
 * disabled_edges field: "" is the empty list; an empty inner item
 * ("0-1,,4-5") or an item not of the form a-b throws.
 */
[[nodiscard]] std::vector<std::pair<int, int>>
parseCouplingList(const std::string &text);

/** Builds the calibration of a base (healthy) device. */
using CalibrationFactory =
    std::function<hw::CalibrationData(const hw::CouplingMap &)>;

/**
 * The hardware view a request compiles against: the one place a device
 * name, its calibration and a fault spec become a map, a calibration, a
 * usable mask and a degraded flag, for the daemon and the CLIs alike.
 * Owns the base device, its calibration, and (when the request injects
 * faults) the FaultInjector holding the degraded map — kept alive
 * together because QaoaCompileOptions points into them.  Not copyable
 * or movable (the calibration points at the owned map); makeEnvironment()
 * returns it behind a unique_ptr.
 *
 * @p base_calibration builds the healthy device's calibration; the
 * default is the daemon's (hw::defaultCalibration).
 */
struct RequestEnvironment
{
    explicit RequestEnvironment(
        const CompileRequest &request,
        const CalibrationFactory &base_calibration = hw::defaultCalibration);

    RequestEnvironment(const RequestEnvironment &) = delete;
    RequestEnvironment &operator=(const RequestEnvironment &) = delete;

    hw::CouplingMap base_map;
    hw::CalibrationData base_calib;
    std::unique_ptr<hw::FaultInjector> injector; ///< Null when no faults.

    /** The map to compile against (degraded view when faulty). */
    const hw::CouplingMap &
    map() const
    {
        return injector ? injector->map() : base_map;
    }

    /** Matching calibration data. */
    const hw::CalibrationData &
    calibration() const
    {
        return injector ? injector->calibration() : base_calib;
    }

    /** Qubits placement may use (the surviving component when faulty). */
    int usableQubits() const;
};

/** Builds the hardware view of @p request (resolves device + faults). */
std::unique_ptr<RequestEnvironment> makeEnvironment(
    const CompileRequest &request,
    const CalibrationFactory &base_calibration = hw::defaultCalibration);

/**
 * Builds the QaoaCompileOptions encoding @p request against @p env.
 * The returned options point into @p env (calibration, usable mask) —
 * @p env must outlive them.  guard / stage budget are left for the
 * caller (the server attaches its per-request guard).
 */
core::QaoaCompileOptions makeOptions(const CompileRequest &request,
                                     const RequestEnvironment &env);

} // namespace qaoa::serve

#endif // QAOA_SERVE_REQUEST_HPP
