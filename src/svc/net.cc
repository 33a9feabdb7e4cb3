#include "svc/net.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace tb {
namespace svc {

namespace {

constexpr const char* kUnixPrefix = "unix:";
constexpr const char* kTcpPrefix = "tcp:";

bool
hasPrefix(const std::string& s, const char* prefix)
{
    return s.rfind(prefix, 0) == 0;
}

void
setCloexec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/** Fill a sockaddr_un; false when the path does not fit. */
bool
unixSockaddr(const std::string& path, sockaddr_un* sa,
             std::string* err)
{
    std::memset(sa, 0, sizeof(*sa));
    sa->sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa->sun_path)) {
        *err = "unix socket path too long: " + path;
        return false;
    }
    std::memcpy(sa->sun_path, path.c_str(), path.size() + 1);
    return true;
}

/** Split "tcp:host:port" at the last colon. */
bool
splitTcp(const std::string& addr, std::string* host,
         std::string* port, std::string* err)
{
    const std::string rest = addr.substr(std::strlen(kTcpPrefix));
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
        *err = "tcp address must be tcp:host:port, got '" + addr +
               "'";
        return false;
    }
    *host = rest.substr(0, colon);
    *port = rest.substr(colon + 1);
    return true;
}

int
tcpSocket(const std::string& addr, bool listen_side,
          std::string* err)
{
    std::string host, port;
    if (!splitTcp(addr, &host, &port, err))
        return -1;
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    if (listen_side)
        hints.ai_flags = AI_PASSIVE;
    struct addrinfo* res = nullptr;
    const int rc =
        ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0) {
        *err = std::string("getaddrinfo: ") + ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (struct addrinfo* ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (listen_side) {
            const int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
                ::listen(fd, 64) == 0)
                break;
        } else if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            break;
        }
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        *err = (listen_side ? "cannot listen on " : "cannot connect to ") +
               addr + ": " + errnoMessage(errno);
    return fd;
}

} // namespace

int
listenOn(const std::string& addr, std::string* err)
{
    int fd = -1;
    if (hasPrefix(addr, kUnixPrefix)) {
        const std::string path =
            addr.substr(std::strlen(kUnixPrefix));
        sockaddr_un sa;
        if (!unixSockaddr(path, &sa, err))
            return -1;
        ::unlink(path.c_str()); // stale socket of a dead daemon
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0 ||
            ::bind(fd, reinterpret_cast<sockaddr*>(&sa),
                   sizeof(sa)) != 0 ||
            ::listen(fd, 64) != 0) {
            *err = "cannot listen on " + addr + ": " +
                   errnoMessage(errno);
            if (fd >= 0)
                ::close(fd);
            return -1;
        }
    } else if (hasPrefix(addr, kTcpPrefix)) {
        fd = tcpSocket(addr, /*listen_side=*/true, err);
        if (fd < 0)
            return -1;
    } else {
        *err = "service address must start with unix: or tcp:, got '" +
               addr + "'";
        return -1;
    }
    setCloexec(fd);
    return fd;
}

int
connectTo(const std::string& addr, std::string* err)
{
    int fd = -1;
    if (hasPrefix(addr, kUnixPrefix)) {
        const std::string path =
            addr.substr(std::strlen(kUnixPrefix));
        sockaddr_un sa;
        if (!unixSockaddr(path, &sa, err))
            return -1;
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0 ||
            ::connect(fd, reinterpret_cast<sockaddr*>(&sa),
                      sizeof(sa)) != 0) {
            *err = "cannot connect to " + addr + ": " +
                   errnoMessage(errno);
            if (fd >= 0)
                ::close(fd);
            return -1;
        }
    } else if (hasPrefix(addr, kTcpPrefix)) {
        fd = tcpSocket(addr, /*listen_side=*/false, err);
        if (fd < 0)
            return -1;
    } else {
        *err = "service address must start with unix: or tcp:, got '" +
               addr + "'";
        return -1;
    }
    setCloexec(fd);
    return fd;
}

void
cleanupAddress(const std::string& addr)
{
    if (hasPrefix(addr, kUnixPrefix))
        ::unlink(addr.substr(std::strlen(kUnixPrefix)).c_str());
}

} // namespace svc
} // namespace tb
