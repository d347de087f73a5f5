/**
 * @file
 * Cut-count tables for the diagonal QAOA evaluation (DESIGN §7).
 *
 * For a MaxCut graph whose edges share one weight w, the cost layer of
 * a basis state z depends only on k(z), the number of edges z cuts:
 * its phase is P^k(z) and its cut value is k(z)·w.  A CutCounts table
 * stores k(z) for all 2^n states, one byte per state when |E| <= 255
 * and two bytes otherwise.  Building it costs O(2^n), so tables are
 * kept in a small process-wide LRU keyed by problemHash() and bounded
 * by kCutCountCacheBytes.
 */

#ifndef QAOA_METRICS_CUT_TABLE_HPP
#define QAOA_METRICS_CUT_TABLE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"

namespace qaoa::metrics {

/** k(z) for every basis state z of one problem graph. */
struct CutCounts
{
    int num_nodes = 0;
    /** The graph's edge list; a cache hit must match it exactly, so a
     *  hash collision never serves another graph's table. */
    std::vector<graph::Edge> edges;
    std::vector<std::uint8_t> narrow; ///< k(z) when |E| <= 255, else empty.
    std::vector<std::uint16_t> wide;  ///< k(z) when |E| > 255, else empty.
};

/** Byte budget of the process-wide table cache (fixed, not a knob). */
inline constexpr std::uint64_t kCutCountCacheBytes = 32ULL << 20;

/** Bytes of the k(z) table of a graph with these sizes (0 <= n < 64). */
std::uint64_t cutCountBytes(int num_nodes, int num_edges);

/**
 * Builds k(z) in O(2^n): a state z with top set bit h extends
 * z' = z without h, and only the edges at h change sides, so
 * k(z) = k(z') + popcount(N(h) & ~z) - popcount(N(h) & z).
 */
CutCounts buildCutCounts(const graph::Graph &problem);

/**
 * The table of @p problem from the process-wide cache, built and
 * inserted on a miss (tables larger than the whole budget are built
 * but not kept).  Thread-safe; the build runs outside the cache lock
 * and callers read the shared table without holding it.
 */
std::shared_ptr<const CutCounts> cachedCutCounts(const graph::Graph &problem);

} // namespace qaoa::metrics

#endif // QAOA_METRICS_CUT_TABLE_HPP
