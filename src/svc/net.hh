/**
 * @file
 * Socket address parsing and setup for the campaign service.
 *
 * Addresses are strings so one flag serves both transports:
 *
 *   unix:/path/to.sock   Unix-domain socket (single machine; the
 *                        CI smoke and run_all.sh --distributed)
 *   tcp:host:port        TCP (workers on other machines)
 *
 * All returned descriptors are close-on-exec. Errors return -1 with
 * a diagnostic — the daemon treats a failed listen as fatal, a
 * worker retries connects with backoff.
 */

#ifndef TB_SVC_NET_HH_
#define TB_SVC_NET_HH_

#include <string>

namespace tb {
namespace svc {

/**
 * Bind + listen on @p addr. A pre-existing Unix socket path is
 * unlinked first (stale socket of a dead daemon). Returns the
 * listening fd, or -1 with @p err filled.
 */
int listenOn(const std::string& addr, std::string* err);

/** Connect to @p addr. Returns the fd, or -1 with @p err filled. */
int connectTo(const std::string& addr, std::string* err);

/** Unlink the path of a unix: address (daemon shutdown). */
void cleanupAddress(const std::string& addr);

} // namespace svc
} // namespace tb

#endif // TB_SVC_NET_HH_
