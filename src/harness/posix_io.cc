#include "harness/posix_io.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>

#include <unistd.h>

#include "sim/logging.hh"

namespace tb {
namespace harness {

void
ignoreSigpipe()
{
    // std::signal is async-signal-safe to install and idempotent, so
    // every supervisor may call it; all callers want SIG_IGN.
    std::signal(SIGPIPE, SIG_IGN);
}

bool
writeFull(int fd, const void* buf, std::size_t n)
{
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

ssize_t
readSome(int fd, void* buf, std::size_t n)
{
    for (;;) {
        const ssize_t r = ::read(fd, buf, n);
        if (r < 0 && errno == EINTR)
            continue;
        return r;
    }
}

std::uint64_t
fnv1a64(const std::string& data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

void
writeFileAtomic(const std::string& path, const std::string& content)
{
    // pid tells processes apart, the counter threads and calls; a
    // shared temp name would let one writer truncate or rename away
    // another's half-written file.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal("cannot write ", tmp, ": ", errnoMessage(errno));
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), f) ==
            content.size() &&
        std::fflush(f) == 0;
    const int err = errno;
    std::fclose(f);
    if (!ok) {
        std::remove(tmp.c_str());
        fatal("short write to ", tmp, ": ", errnoMessage(err));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int renameErr = errno;
        std::remove(tmp.c_str());
        fatal("cannot rename ", tmp, " -> ", path, ": ",
              errnoMessage(renameErr));
    }
}

} // namespace harness
} // namespace tb
