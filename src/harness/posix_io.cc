#include "harness/posix_io.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace tb {
namespace harness {

void
ignoreSigpipe()
{
    // std::signal is async-signal-safe to install and idempotent;
    // calling it from daemon, worker and supervisor setup alike is
    // deliberate (whichever runs first wins, all want SIG_IGN).
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
readFull(int fd, void* buf, std::size_t n)
{
    char* p = static_cast<char*>(buf);
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r == 0) {
            if (got == 0)
                return 0;
            errno = 0; // EOF mid-record: truncated frame
            return -1;
        }
        got += static_cast<std::size_t>(r);
    }
    return static_cast<ssize_t>(got);
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

int
pollOne(int fd, short events, int timeoutMs)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeoutMs);
        if (rc < 0) {
            if (errno == EINTR)
                return 0; // treat like a timeout; callers re-poll
            return -1;
        }
        return rc == 0 ? 0 : pfd.revents;
    }
}

int
pollMany(struct pollfd* fds, std::size_t n, int timeoutMs)
{
    const int rc = ::poll(fds, static_cast<nfds_t>(n), timeoutMs);
    if (rc < 0 && errno == EINTR)
        return 0; // treat like a timeout; callers re-poll
    return rc;
}

int
acceptOne(int listenFd)
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0 && errno == EINTR)
            continue;
        return fd;
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
