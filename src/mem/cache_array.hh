/**
 * @file
 * Set-associative cache tag/state array with true-LRU replacement.
 *
 * Purely structural: no timing, no protocol. The CacheController
 * composes two of these (L1, L2) with the coherence engine and the
 * clocked access latencies from Table 1.
 *
 * Alongside the ways, the array keeps one bit per way that is set
 * exactly when the way holds a Modified line. Every state change goes
 * through insert(), invalidate() or setState(), which keep the bitmap
 * exact, so the pre-sleep flush visits the dirty lines without
 * scanning the whole cache (forEachModified()).
 */

#ifndef TB_MEM_CACHE_ARRAY_HH_
#define TB_MEM_CACHE_ARRAY_HH_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/mem_types.hh"
#include "sim/types.hh"

namespace tb {
namespace mem {

/** Geometry of one cache level. */
struct CacheGeometry
{
    unsigned sizeBytes = 16 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = kLineBytes;

    unsigned
    numSets() const
    {
        return sizeBytes / (assoc * lineBytes);
    }
};

/** Tag + MESI state array. */
class CacheArray
{
  public:
    /** One way of one set. */
    class Line
    {
      public:
        Addr addr = 0; ///< line-aligned address
        std::uint64_t lru = 0; ///< larger == more recently used

        /** MESI state; written only through the owning CacheArray. */
        LineState state() const { return st; }

      private:
        friend class CacheArray;
        LineState st = LineState::Invalid;
    };

    /** Evicted line descriptor returned by insert(). */
    struct Victim
    {
        bool valid = false;
        Addr addr = 0;
        LineState state = LineState::Invalid;
    };

    explicit CacheArray(const CacheGeometry& geometry);

    /** Geometry this array was built with. */
    const CacheGeometry& geometry() const { return geom; }

    /**
     * Look up @p line (line-aligned). Returns the entry or nullptr.
     * Does not touch LRU; call touch() on a real access.
     */
    Line* find(Addr line);
    const Line* find(Addr line) const;

    /** Mark @p entry most-recently used. */
    void touch(Line& entry) { entry.lru = ++lruClock; }

    /**
     * Allocate a way for @p line in state @p st, evicting the LRU
     * victim if the set is full. @p line must not already be present.
     * @return the victim descriptor (valid==false if a free way
     *         existed).
     */
    Victim insert(Addr line, LineState st);

    /** Drop @p line if present. @return true if it was present. */
    bool invalidate(Addr line);

    /** Set the state of way @p entry (from find()) to @p st. */
    void
    setState(Line& entry, LineState st)
    {
        const auto i = static_cast<std::size_t>(&entry - lines.data());
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if (st == LineState::Modified)
            modified[i >> 6] |= bit;
        else
            modified[i >> 6] &= ~bit;
        entry.st = st;
    }

    /** Visit every valid line in array order (a full scan). */
    template <typename Fn>
    void
    forEachValid(Fn&& fn)
    {
        for (auto& l : lines) {
            if (l.st != LineState::Invalid)
                fn(l);
        }
    }

    /**
     * Visit every Modified line in array order — the order
     * forEachValid() would meet them in — at a cost proportional to
     * the number of Modified lines, not the cache size. @p fn may
     * change or drop the line it is given.
     */
    template <typename Fn>
    void
    forEachModified(Fn&& fn)
    {
        for (std::size_t w = 0; w < modified.size(); ++w) {
            for (std::uint64_t bits = modified[w]; bits != 0;
                 bits &= bits - 1) {
                const auto b =
                    static_cast<std::size_t>(std::countr_zero(bits));
                fn(lines[w * 64 + b]);
            }
        }
    }

    /** Count of valid lines. */
    unsigned validCount() const;

  private:
    /** Set index via the precomputed shift/mask — the geometry is
     *  validated power-of-two in the constructor, so no division sits
     *  on the lookup path. */
    std::size_t
    setBase(Addr line) const
    {
        return ((line >> lineShift) & setMask) * geom.assoc;
    }

    CacheGeometry geom;
    unsigned lineShift = 0;      ///< log2(lineBytes)
    std::size_t setMask = 0;     ///< numSets - 1
    std::vector<Line> lines; ///< numSets * assoc, set-major
    /** Bit i set <=> lines[i] is Modified. */
    std::vector<std::uint64_t> modified;
    std::uint64_t lruClock = 0;
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_CACHE_ARRAY_HH_
