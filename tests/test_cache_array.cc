/**
 * @file
 * Unit tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache_array.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace tb {
namespace {

using mem::CacheArray;
using mem::CacheGeometry;
using mem::LineState;

CacheGeometry
tiny()
{
    // 4 sets x 2 ways x 64B lines.
    return CacheGeometry{512, 2, 64};
}

TEST(CacheArray, GeometryDerivesSets)
{
    CacheArray c(tiny());
    EXPECT_EQ(c.geometry().numSets(), 4u);
}

TEST(CacheArray, MissOnEmpty)
{
    CacheArray c(tiny());
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(CacheArray, InsertThenHit)
{
    CacheArray c(tiny());
    auto victim = c.insert(0x1000, LineState::Shared);
    EXPECT_FALSE(victim.valid);
    CacheArray::Line* l = c.find(0x1000);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state(), LineState::Shared);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, LruEvictionWithinSet)
{
    CacheArray c(tiny());
    // Lines mapping to set 0: line addr multiples of 4*64=256.
    c.insert(0x0000, LineState::Shared);
    c.insert(0x0100, LineState::Modified);
    // Touch the first so the second becomes LRU.
    c.touch(*c.find(0x0000));
    auto victim = c.insert(0x0200, LineState::Exclusive);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0x0100u);
    EXPECT_EQ(victim.state, LineState::Modified);
    EXPECT_NE(c.find(0x0000), nullptr);
    EXPECT_EQ(c.find(0x0100), nullptr);
    EXPECT_NE(c.find(0x0200), nullptr);
}

TEST(CacheArray, DifferentSetsDoNotConflict)
{
    CacheArray c(tiny());
    for (Addr a = 0; a < 8 * 64; a += 64)
        c.insert(a, LineState::Shared); // 2 per set across 4 sets
    EXPECT_EQ(c.validCount(), 8u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c(tiny());
    c.insert(0x40, LineState::Exclusive);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_EQ(c.find(0x40), nullptr);
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(CacheArray, InvalidWayReusedBeforeEviction)
{
    CacheArray c(tiny());
    c.insert(0x0000, LineState::Shared);
    c.insert(0x0100, LineState::Shared);
    c.invalidate(0x0000);
    auto victim = c.insert(0x0200, LineState::Shared);
    EXPECT_FALSE(victim.valid);
    EXPECT_NE(c.find(0x0100), nullptr);
}

TEST(CacheArray, ForEachValidVisitsAllValid)
{
    CacheArray c(tiny());
    c.insert(0x0000, LineState::Modified);
    c.insert(0x0040, LineState::Shared);
    c.insert(0x0080, LineState::Modified);
    unsigned dirty = 0, total = 0;
    c.forEachValid([&](CacheArray::Line& l) {
        ++total;
        if (l.state() == LineState::Modified)
            ++dirty;
    });
    EXPECT_EQ(total, 3u);
    EXPECT_EQ(dirty, 2u);
}

TEST(CacheArray, ForEachModifiedMatchesFullScanUnderRandomOps)
{
    // The paper's L2 (1024 ways, so the bitmap spans 16 words) under a
    // random mix of fills with eviction, invalidations and state
    // changes over 4x more lines than fit.
    CacheArray c(CacheGeometry{64 * 1024, 8, 64});
    const LineState valid[] = {LineState::Shared, LineState::Exclusive,
                               LineState::Modified};
    Random rng(20260418);
    auto check = [&]() {
        std::vector<const CacheArray::Line*> scan, fast;
        c.forEachValid([&](CacheArray::Line& l) {
            if (l.state() == LineState::Modified)
                scan.push_back(&l);
        });
        c.forEachModified([&](CacheArray::Line& l) { fast.push_back(&l); });
        ASSERT_EQ(fast, scan);
    };
    for (unsigned op = 0; op < 20000; ++op) {
        const Addr line = 64 * rng.uniformInt(4096);
        const LineState st = valid[rng.uniformInt(3)];
        CacheArray::Line* e = c.find(line);
        switch (rng.uniformInt(3)) {
          case 0:
            if (!e)
                c.insert(line, st);
            break;
          case 1:
            c.invalidate(line);
            break;
          default:
            if (e)
                c.setState(*e, st);
            break;
        }
        if (op % 16 == 0)
            check();
    }
    check();

    // The visitor may drop the line it is handed.
    unsigned dropped = 0;
    c.forEachModified([&](CacheArray::Line& l) {
        c.invalidate(l.addr);
        ++dropped;
    });
    EXPECT_GT(dropped, 0u);
    unsigned left = 0;
    c.forEachModified([&](CacheArray::Line&) { ++left; });
    EXPECT_EQ(left, 0u);
}

TEST(CacheArray, DoubleInsertPanics)
{
    CacheArray c(tiny());
    c.insert(0x40, LineState::Shared);
    EXPECT_THROW(c.insert(0x40, LineState::Shared), PanicError);
}

TEST(CacheArray, InsertInvalidStatePanics)
{
    CacheArray c(tiny());
    EXPECT_THROW(c.insert(0x40, LineState::Invalid), PanicError);
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(CacheGeometry{512, 0, 64}), FatalError);
    EXPECT_THROW(CacheArray(CacheGeometry{512, 2, 48}), FatalError);
    EXPECT_THROW(CacheArray(CacheGeometry{500, 2, 64}), FatalError);
    // 3 sets: not a power of two (768 = 3*2*128... use lineBytes 128)
    EXPECT_THROW(CacheArray(CacheGeometry{768, 2, 128}), FatalError);
}

TEST(CacheArray, PaperGeometriesConstruct)
{
    CacheArray l1(CacheGeometry{16 * 1024, 2, 64});
    CacheArray l2(CacheGeometry{64 * 1024, 8, 64});
    EXPECT_EQ(l1.geometry().numSets(), 128u);
    EXPECT_EQ(l2.geometry().numSets(), 128u);
}

} // namespace
} // namespace tb
