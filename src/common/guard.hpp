/**
 * @file
 * RunGuard — the one handle hot loops poll for cancellation,
 * deadlines and resource limits.
 *
 * The guard bundles a CancelToken, a Deadline and a ResourceLimits
 * table behind a single poll() call so threading resilience through
 * the pipeline costs one optional pointer per options struct
 * (RouterOptions, AStarOptions, QaoaCompileOptions, ...).  A null
 * guard pointer means "unguarded" and costs nothing.
 *
 * poll() checks the token on every call but reads the monotonic clock
 * only every kDeadlineStride-th call — a steady_clock read is ~25 ns,
 * which would otherwise dominate tight A* expansion loops; the
 * watchdog-overhead bar in bench_resilience (<2%) depends on this
 * decimation.  Deadline expiry is therefore detected within
 * kDeadlineStride polls: far below a millisecond in the compile loops,
 * but up to kDeadlineStride whole statevector passes in the simulator,
 * which polls once per pass (the diagonal QAOA path: once per table
 * lookup, level load or phase pass, and mixer).
 *
 * Guard table (enforced limits):
 *   max_statevector_bytes  Statevector allocation (16 bytes/amplitude),
 *                          plus the cut-count table on the diagonal
 *                          QAOA path (metrics::exactExpectedCut)
 *   max_astar_expansions   A* node expansions per layer search
 *   max_router_swaps       SWAPs one routing run may insert (circuit
 *                          breaker against livelock-ish blowups)
 */

#ifndef QAOA_COMMON_GUARD_HPP
#define QAOA_COMMON_GUARD_HPP

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "common/cancel.hpp"
#include "common/deadline.hpp"

namespace qaoa::run {

/** Thrown when a resource guard limit is exceeded. */
class ResourceExceededError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Hard caps on unbounded-work stages; defaults are generous. */
struct ResourceLimits
{
    /** Statevector allocation cap (1 GiB ~= 26 qubits). */
    std::uint64_t max_statevector_bytes = 1ULL << 30;

    /** A* node-expansion cap per layer search. */
    int max_astar_expansions = 1 << 30;

    /** SWAP-count circuit breaker per routing run. */
    int max_router_swaps = 1 << 30;
};

/**
 * Copyable poll handle combining token + deadline + limits.
 *
 * Copies share the token's cancellation state but keep their own
 * poll-decimation counter, so a guard can be captured by value into
 * per-stage option structs.
 */
class RunGuard
{
  public:
    /** Clock-read decimation: deadline checked every N-th poll. */
    static constexpr std::uint32_t kDeadlineStride = 8;

    RunGuard() = default;

    RunGuard(CancelToken token, Deadline deadline,
             ResourceLimits limits = {})
        : token_(std::move(token)), deadline_(deadline), limits_(limits)
    {
    }

    RunGuard(const RunGuard &other)
        : token_(other.token_), deadline_(other.deadline_),
          limits_(other.limits_)
    {
    }

    RunGuard &
    operator=(const RunGuard &other)
    {
        token_ = other.token_;
        deadline_ = other.deadline_;
        limits_ = other.limits_;
        polls_.store(0, std::memory_order_relaxed);
        return *this;
    }

    const CancelToken &token() const { return token_; }
    const Deadline &deadline() const { return deadline_; }
    const ResourceLimits &limits() const { return limits_; }

    /**
     * Cooperative check point: throws CancelledError when the token
     * tripped, TimedOutError when the deadline expired (checked every
     * kDeadlineStride-th call).  @p where names the loop for the
     * error message.
     */
    void
    poll(const char *where) const
    {
        token_.throwIfCancelled(where);
        if (!deadline_.finite())
            return;
        const std::uint32_t n =
            polls_.fetch_add(1, std::memory_order_relaxed);
        if (n % kDeadlineStride == 0 && deadline_.expired())
            throw TimedOutError(std::string("deadline expired during ") +
                                where);
    }

    /** Always-check variant for coarse boundaries (stage entry). */
    void
    pollStrict(const char *where) const
    {
        token_.throwIfCancelled(where);
        if (deadline_.expired())
            throw TimedOutError(std::string("deadline expired during ") +
                                where);
    }

    /** Throws ResourceExceededError when an allocation of @p bytes
     *  would exceed max_statevector_bytes. */
    void checkAllocation(const char *what, std::uint64_t bytes) const;

    /**
     * Derives the guard for one pipeline stage: same token and
     * limits, deadline tightened to now + @p stage_budget_ms (never
     * looser than the total deadline; negative = no stage budget).
     */
    RunGuard
    stageGuard(double stage_budget_ms) const
    {
        return RunGuard(token_, deadline_.tightened(stage_budget_ms),
                        limits_);
    }

  private:
    CancelToken token_;
    Deadline deadline_;
    ResourceLimits limits_;
    /** Relaxed atomic, not a guarded field: the poll decimation
     *  counter only gates how often the (exact) token/deadline checks
     *  run, so a lost increment under contention merely shifts which
     *  poll does the real check. */
    mutable std::atomic<std::uint32_t> polls_{0};
};

} // namespace qaoa::run

#endif // QAOA_COMMON_GUARD_HPP
