/**
 * @file
 * Persistence primitives from harness/posix_io.hh: the FNV-1a hash
 * behind point keys and artifact checksums, and the atomic file
 * publish every artifact and result-store entry goes through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <dirent.h>

#include "harness/posix_io.hh"
#include "sim/logging.hh"

namespace tb {
namespace {

using harness::fnv1a64;
using harness::writeFileAtomic;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Entries of @p dir whose name starts with @p prefix. */
int
countWithPrefix(const std::string& dir, const std::string& prefix)
{
    int n = 0;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (struct dirent* e = ::readdir(d))
            n += std::string(e->d_name).compare(0, prefix.size(),
                                                prefix) == 0;
        ::closedir(d);
    }
    return n;
}

TEST(Fnv1a64, ReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    EXPECT_NE(fnv1a64("config-a"), fnv1a64("config-b"));
}

TEST(WriteFileAtomic, WritesAndReplacesWithoutTempResidue)
{
    const std::string dir = testing::TempDir();
    const std::string path = dir + "tb_atomic.txt";
    std::remove(path.c_str());
    writeFileAtomic(path, "first\n");
    EXPECT_EQ(slurp(path), "first\n");
    writeFileAtomic(path, "second, longer content\n");
    EXPECT_EQ(slurp(path), "second, longer content\n");
    // No staging file may survive a successful rename.
    EXPECT_EQ(countWithPrefix(dir, "tb_atomic.txt.tmp"), 0);
    std::remove(path.c_str());
}

TEST(WriteFileAtomic, ThrowsOnUnwritablePath)
{
    EXPECT_THROW(
        writeFileAtomic("/nonexistent-dir/deep/artifact.json", "x"),
        FatalError);
}

} // namespace
} // namespace tb
