#include "svc/result_cache.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "harness/posix_io.hh"
#include "sim/logging.hh"

namespace tb {
namespace svc {

namespace {

std::string
keyName(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, key);
    return buf;
}

} // namespace

bool
ResultCache::open(const std::string& dir, bool required)
{
    dir_.clear();
    if (dir.empty())
        return false;
    std::string problem;
    struct stat st;
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST)
        problem = "cannot create it: " + errnoMessage(errno);
    else if (::stat(dir.c_str(), &st) != 0)
        problem = "cannot stat it: " + errnoMessage(errno);
    else if (!S_ISDIR(st.st_mode))
        problem = "not a directory";
    else if (::access(dir.c_str(), W_OK | X_OK) != 0)
        problem = "not writable: " + errnoMessage(errno);
    if (!problem.empty()) {
        if (required)
            fatal("result store ", dir, ": ", problem);
        warn("result cache ", dir, ": ", problem, " — running uncached");
        return false;
    }
    dir_ = dir;
    return true;
}

std::string
ResultCache::entryPath(std::uint64_t key) const
{
    return dir_ + "/" + keyName(key) + ".tbr";
}

bool
ResultCache::lookup(std::uint64_t key, std::string* result)
{
    if (!active())
        return false;
    const std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ++stats_.misses;
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    in.close();
    const std::string data = os.str();

    // Classify before trusting. Entries are written via atomic
    // tmp+rename, but a writer dying under ENOSPC or SIGKILL can
    // still leave zero-length or header-truncated files behind; each
    // shape is evicted with its own diagnosis so an operator can tell
    // torn writes from bit rot. The header is exactly "TBCACHE1 "
    // plus 16 lowercase hex digits plus a newline — nothing looser.
    const char* why = nullptr;
    std::uint64_t sum = 0;
    if (data.empty()) {
        why = "zero-length entry (torn write?)";
    } else if (data.size() < kCacheHeaderLen ||
               data.compare(0, 9, "TBCACHE1 ") != 0 ||
               data[kCacheHeaderLen - 1] != '\n') {
        why = "truncated or malformed header";
    } else {
        for (std::size_t i = 9; i < kCacheHeaderLen - 1; ++i) {
            const char c = data[i];
            if (c >= '0' && c <= '9')
                sum = sum * 16 + static_cast<std::uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                sum = sum * 16 +
                      static_cast<std::uint64_t>(c - 'a' + 10);
            else {
                why = "truncated or malformed header";
                break;
            }
        }
    }
    std::string body;
    if (!why) {
        body = data.substr(kCacheHeaderLen);
        if (harness::fnv1a64(body) != sum)
            why = "checksum mismatch";
    }
    if (why) {
        // Evict so the rerun repairs the cache, and make sure
        // corruption never masquerades as a result.
        std::remove(path.c_str());
        ++stats_.evictions;
        ++stats_.misses;
        warn("result cache: evicted ", path, ": ", why);
        return false;
    }
    *result = std::move(body);
    ++stats_.hits;
    return true;
}

void
ResultCache::store(std::uint64_t key, const std::string& result)
{
    if (!active())
        return;
    char header[32];
    std::snprintf(header, sizeof(header), "TBCACHE1 %016" PRIx64 "\n",
                  harness::fnv1a64(result));
    harness::writeFileAtomic(entryPath(key), header + result);
    ++stats_.stores;
}

CampaignStores::CampaignStores(ResultCache* journal, bool resume,
                               ResultCache* cache)
    : journal_(journal && journal->active() ? journal : nullptr),
      cache_(cache && cache->active() ? cache : nullptr),
      resume_(resume)
{}

bool
CampaignStores::lookup(std::uint64_t key, std::string* result)
{
    if (!resuming() && !cache_)
        return false; // nothing readable: a write-only --journal
    if (resuming() && journal_->lookup(key, result)) {
        ++stats_.hits;
        if (cache_)
            cache_->store(key, *result);
        return true;
    }
    if (cache_ && cache_->lookup(key, result)) {
        ++stats_.hits;
        if (journal_)
            journal_->store(key, *result);
        return true;
    }
    ++stats_.misses;
    return false;
}

void
CampaignStores::store(std::uint64_t key, const std::string& result)
{
    if (journal_)
        journal_->store(key, result);
    if (cache_)
        cache_->store(key, result);
    if (any())
        ++stats_.stores;
}

CacheStats
CampaignStores::stats() const
{
    CacheStats s = stats_;
    s.evictions = (journal_ ? journal_->stats().evictions : 0) +
                  (cache_ ? cache_->stats().evictions : 0);
    return s;
}

} // namespace svc
} // namespace tb
