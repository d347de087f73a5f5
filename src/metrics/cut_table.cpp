#include "metrics/cut_table.hpp"

#include <bit>
#include <iterator>
#include <list>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "metrics/harness.hpp"

namespace qaoa::metrics {

namespace {

/** Charged per cache entry on top of its tables (key, list and map
 *  nodes), so many tiny tables cannot outgrow the budget. */
constexpr std::uint64_t kEntryOverheadBytes = 256;

template <typename Level>
std::vector<Level>
countCuts(const graph::Graph &problem)
{
    const int n = problem.numNodes();
    std::vector<std::uint64_t> nbr(static_cast<std::size_t>(n), 0);
    for (const graph::Edge &e : problem.edges()) {
        nbr[static_cast<std::size_t>(e.u)] |= 1ULL << e.v;
        nbr[static_cast<std::size_t>(e.v)] |= 1ULL << e.u;
    }
    std::vector<Level> k(std::size_t{1} << n, 0);
    for (int h = 0; h < n; ++h) {
        const std::uint64_t top = 1ULL << h;
        const std::uint64_t at_h = nbr[static_cast<std::size_t>(h)];
        for (std::uint64_t low = 0; low < top; ++low) {
            const std::uint64_t z = low | top;
            // Setting bit h cuts the edges to h's 0-side neighbors and
            // uncuts those to its 1-side neighbors.
            k[z] = static_cast<Level>(k[low] + std::popcount(at_h & ~z) -
                                      std::popcount(at_h & z));
        }
    }
    return k;
}

std::uint64_t
entryBytes(const std::string &key, const CutCounts &table)
{
    return kEntryOverheadBytes + key.size() +
           table.edges.size() * sizeof(graph::Edge) + table.narrow.size() +
           table.wide.size() * sizeof(std::uint16_t);
}

/** Byte-bounded LRU of shared, immutable tables. */
class CutCountCache
{
  public:
    /** The entry under @p key when it was built from @p problem's exact
     *  node count and edge list; null otherwise. */
    std::shared_ptr<const CutCounts>
    find(const std::string &key, const graph::Graph &problem)
        QAOA_EXCLUDES(mutex_)
    {
        sync::MutexLock lock(mutex_);
        const auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        const CutCounts &table = *it->second->table;
        if (table.num_nodes != problem.numNodes() ||
            table.edges != problem.edges())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->table;
    }

    /** Inserts (or replaces) @p key, evicting least recently used
     *  entries past the budget; a table over the budget is not kept. */
    void
    insert(const std::string &key, std::shared_ptr<const CutCounts> table)
        QAOA_EXCLUDES(mutex_)
    {
        const std::uint64_t bytes = entryBytes(key, *table);
        if (bytes > kCutCountCacheBytes)
            return;
        sync::MutexLock lock(mutex_);
        if (const auto it = index_.find(key); it != index_.end())
            eraseLocked(it->second);
        lru_.push_front({key, std::move(table), bytes});
        index_[key] = lru_.begin();
        bytes_ += bytes;
        while (bytes_ > kCutCountCacheBytes)
            eraseLocked(std::prev(lru_.end()));
    }

  private:
    struct Entry
    {
        std::string key;
        std::shared_ptr<const CutCounts> table;
        std::uint64_t bytes = 0;
    };

    void
    eraseLocked(std::list<Entry>::iterator it) QAOA_REQUIRES(mutex_)
    {
        bytes_ -= it->bytes;
        index_.erase(it->key);
        lru_.erase(it);
    }

    sync::Mutex mutex_;
    std::list<Entry> lru_ QAOA_GUARDED_BY(mutex_); ///< Most recent first.
    std::unordered_map<std::string, std::list<Entry>::iterator>
        index_ QAOA_GUARDED_BY(mutex_);
    std::uint64_t bytes_ QAOA_GUARDED_BY(mutex_) = 0;
};

CutCountCache &
processCache()
{
    static CutCountCache cache;
    return cache;
}

} // namespace

std::uint64_t
cutCountBytes(int num_nodes, int num_edges)
{
    return (num_edges <= 255 ? 1ULL : 2ULL) << num_nodes;
}

CutCounts
buildCutCounts(const graph::Graph &problem)
{
    QAOA_CHECK(problem.numNodes() <= 26,
               "cut-count tables support up to 26 nodes, got "
                   << problem.numNodes());
    CutCounts table;
    table.num_nodes = problem.numNodes();
    table.edges = problem.edges();
    if (problem.numEdges() <= 255)
        table.narrow = countCuts<std::uint8_t>(problem);
    else
        table.wide = countCuts<std::uint16_t>(problem);
    return table;
}

std::shared_ptr<const CutCounts>
cachedCutCounts(const graph::Graph &problem)
{
    const std::string key = problemHash(problem);
    CutCountCache &cache = processCache();
    if (std::shared_ptr<const CutCounts> hit = cache.find(key, problem))
        return hit;
    auto built = std::make_shared<const CutCounts>(buildCutCounts(problem));
    cache.insert(key, built);
    return built;
}

} // namespace qaoa::metrics
