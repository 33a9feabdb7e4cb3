/**
 * @file
 * Content-addressed result store for campaign sweep points: the only
 * persistent state of a campaign.
 *
 * A campaign point is fully determined by its config hash
 * (PointTask::keyOf: sweep shape, flags, workload knobs, seed). The
 * store maps that key to the point's serialized artifact on disk, so
 * a repeated point — across campaigns, across interrupted and resumed
 * runs, across concurrent campaigns sharing the directory — is a hit
 * instead of a re-simulation. Both `--cache DIR` and
 * `--journal DIR` are stores in this format; CampaignStores below
 * says when each is read and written.
 *
 * Layout: one file per key, `<dir>/<%016x key>.tbr`, containing a
 * `TBCACHE1 <%016x fnv1a-checksum>` header line followed by the
 * artifact bytes, written via atomic tmp+rename. Every lookup
 * re-verifies the checksum: a corrupted entry (torn write, bit rot,
 * truncation) is *evicted* — unlinked and counted — and reported as
 * a miss, so corruption costs one re-simulation, never a wrong
 * artifact. Concurrent writers of one key each publish a whole entry
 * (writeFileAtomic uses a temp name per writer); the last rename
 * wins.
 */

#ifndef TB_SVC_RESULT_CACHE_HH_
#define TB_SVC_RESULT_CACHE_HH_

#include <cstddef>
#include <cstdint>
#include <string>

namespace tb {
namespace svc {

/** Exact on-disk header length: "TBCACHE1 " + 16 hex + '\n'. */
constexpr std::size_t kCacheHeaderLen = 26;

/** Hit/miss/eviction accounting of one cache instance. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0; ///< corrupted entries removed
};

/** On-disk content-addressed store of point artifacts. */
class ResultCache
{
  public:
    /**
     * Attach to @p dir, creating it (one level) if missing. When the
     * directory cannot be created, is not a directory or is not
     * writable, returns false with a warning — cache disabled,
     * campaign proceeds uncached — or, with @p required, throws
     * FatalError naming @p dir.
     */
    bool open(const std::string& dir, bool required = false);

    bool active() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /**
     * Look up @p key. True (and @p result filled) only when an entry
     * exists *and* its checksum verifies; a corrupted entry is
     * evicted and counted, then reported as a miss.
     */
    bool lookup(std::uint64_t key, std::string* result);

    /** Store @p result under @p key (atomic tmp+rename; overwrites). */
    void store(std::uint64_t key, const std::string& result);

    const CacheStats& stats() const { return stats_; }

    /** Entry path of @p key (tests and diagnostics). */
    std::string entryPath(std::uint64_t key) const;

  private:
    std::string dir_;
    CacheStats stats_;
};

/**
 * The stores one campaign consults: the `--journal` store, read only
 * on `--resume`, and the `--cache` store, always read. Either may be
 * null or inactive. Every completed point is written to both, and a
 * hit in one is copied into the other, so each store alone can
 * answer a later run. With one store configured each lookup and
 * store touches only that store. Not thread-safe.
 */
class CampaignStores
{
  public:
    CampaignStores(ResultCache* journal, bool resume, ResultCache* cache);

    /** Any active store, and whether the journal store is read. */
    bool any() const { return journal_ || cache_; }
    bool resuming() const { return journal_ && resume_; }

    /** Look @p key up: the journal store when resuming, then the
     *  cache store. */
    bool lookup(std::uint64_t key, std::string* result);

    /** Store a completed point in every active store. */
    void store(std::uint64_t key, const std::string& result);

    /**
     * Per-point accounting: a hit is a point served by either store,
     * a miss one that neither had, stores counts completed points
     * stored; evictions sum both stores'.
     */
    CacheStats stats() const;

  private:
    ResultCache* journal_ = nullptr; ///< active --journal store
    ResultCache* cache_ = nullptr;   ///< active --cache store
    bool resume_ = false;
    CacheStats stats_;
};

} // namespace svc
} // namespace tb

#endif // TB_SVC_RESULT_CACHE_HH_
