/**
 * @file
 * EINTR-safe POSIX I/O helpers shared by every harness-layer process
 * boundary: the --isolate fork pipe in campaign_supervisor.cc and the
 * socket transport of the distributed campaign service (src/svc),
 * plus the two primitives every persisted artifact is built on: the
 * FNV-1a checksum and the atomic file publish.
 *
 * Two failure modes keep recurring around pipes and sockets:
 *
 *  - **EINTR**: any signal (SIGINT from the campaign handler, SIGCHLD
 *    from a reaped worker) can interrupt a blocking read/write/poll
 *    mid-call. Every loop here retries transparently.
 *  - **SIGPIPE**: writing to a pipe or socket whose reader died kills
 *    the whole process by default. A supervisor or daemon must never
 *    die because one of its children/workers did, so process setup
 *    calls ignoreSigpipe() once and write failures surface as EPIPE
 *    return values instead.
 */

#ifndef TB_HARNESS_POSIX_IO_HH_
#define TB_HARNESS_POSIX_IO_HH_

#include <cstddef>
#include <cstdint>
#include <string>

#include <sys/types.h>

struct pollfd; // from <poll.h>; completed by callers that build fd sets

namespace tb {
namespace harness {

/**
 * Ignore SIGPIPE process-wide (idempotent). After this, a write to a
 * dead reader fails with EPIPE instead of terminating the process —
 * the only behaviour a multi-client daemon or a forking supervisor
 * can live with.
 */
void ignoreSigpipe();

/**
 * Write all @p n bytes of @p buf to @p fd, retrying on EINTR and on
 * short writes. Returns true when everything was written; false on
 * any other error (errno is preserved, EPIPE included).
 */
bool writeFull(int fd, const void* buf, std::size_t n);

/**
 * Read exactly @p n bytes into @p buf, retrying on EINTR and short
 * reads. Returns @p n on success, 0 on clean EOF before the first
 * byte, and -1 on error or on EOF mid-record (errno 0 in the
 * truncated-record case).
 */
ssize_t readFull(int fd, void* buf, std::size_t n);

/**
 * One read(2) attempt that retries EINTR only. Returns the byte
 * count, 0 on EOF, and -1 with errno EAGAIN/EWOULDBLOCK untouched so
 * non-blocking callers can distinguish "no data yet" from errors.
 */
ssize_t readSome(int fd, void* buf, std::size_t n);

/**
 * poll(2) a single descriptor for @p events, retrying on EINTR with
 * the timeout re-armed. Returns the revents mask (0 on timeout), or
 * -1 on a real poll error. Passing @p fd = -1 (poll ignores negative
 * descriptors) turns this into a plain interruptible sleep.
 */
int pollOne(int fd, short events, int timeoutMs);

/**
 * poll(2) an array of descriptors once. EINTR is reported as a
 * timeout (return 0) rather than retried with the full timeout
 * re-armed: multi-fd callers are event loops that recompute their
 * deadline-derived timeout every round, so "pretend nothing was
 * ready" converges while "retry for another full timeout" can starve
 * the deadline bookkeeping. Returns the ready count, 0 on
 * timeout/EINTR, -1 on a real poll error.
 */
int pollMany(struct pollfd* fds, std::size_t n, int timeoutMs);

/**
 * accept(2) one connection from @p listenFd, retrying on EINTR.
 * Returns the connected descriptor, or -1 with errno preserved
 * (EAGAIN/EWOULDBLOCK = nothing pending on a non-blocking socket).
 */
int acceptOne(int listenFd);

/** FNV-1a 64-bit hash of @p data (point keys, artifact checksums). */
std::uint64_t fnv1a64(const std::string& data);

/**
 * Write @p content to @p path atomically: write a temp file next to
 * it, flush, then rename over the destination. Readers never observe
 * a partial artifact. The temp name is unique per process and call,
 * so concurrent writers of one path (two campaigns sharing a result
 * store) each publish a whole file and the last rename wins. Throws
 * FatalError on I/O failure.
 */
void writeFileAtomic(const std::string& path, const std::string& content);

} // namespace harness
} // namespace tb

#endif // TB_HARNESS_POSIX_IO_HH_
