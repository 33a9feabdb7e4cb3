#include "svc/frame.hh"

#include <cerrno>
#include <cstring>

#include "harness/posix_io.hh"
#include "sim/logging.hh"

namespace tb {
namespace svc {

namespace {

constexpr char kMagic[4] = {'T', 'B', 'F', '1'};
constexpr std::size_t kHeaderSize = kFrameHeaderSize;

void
putU16(char* p, std::uint16_t v)
{
    p[0] = static_cast<char>(v & 0xff);
    p[1] = static_cast<char>((v >> 8) & 0xff);
}

void
putU32(char* p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint16_t
getU16(const char* p)
{
    return static_cast<std::uint16_t>(
        static_cast<unsigned char>(p[0]) |
        (static_cast<unsigned char>(p[1]) << 8));
}

std::uint32_t
getU32(const char* p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

} // namespace

bool
parseFrameHeader(const char* h, FrameType* type, std::uint32_t* length,
                 std::string* err)
{
    if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
        *err = "bad frame magic (peer is not speaking TBF1)";
        return false;
    }
    const std::uint16_t version = getU16(h + 4);
    if (version != kFrameVersion) {
        *err = "unsupported frame version " + std::to_string(version) +
               " (this build speaks " + std::to_string(kFrameVersion) +
               ")";
        return false;
    }
    const std::uint32_t len = getU32(h + 8);
    if (len > kMaxFramePayload) {
        *err = "frame payload length " + std::to_string(len) +
               " exceeds the " + std::to_string(kMaxFramePayload) +
               "-byte cap (corrupt header?)";
        return false;
    }
    *type = static_cast<FrameType>(getU16(h + 6));
    *length = len;
    return true;
}

const char*
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello:        return "hello";
      case FrameType::LeaseRequest: return "lease-request";
      case FrameType::Heartbeat:    return "heartbeat";
      case FrameType::Result:       return "result";
      case FrameType::PointError:   return "point-error";
      case FrameType::Goodbye:      return "goodbye";
      case FrameType::HelloAck:     return "hello-ack";
      case FrameType::LeaseGrant:   return "lease-grant";
      case FrameType::NoWork:       return "no-work";
      case FrameType::Done:         return "done";
      case FrameType::ResultAck:    return "result-ack";
      case FrameType::Reject:       return "reject";
    }
    return "?";
}

void
appendU64(std::string* payload, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        payload->push_back(
            static_cast<char>((v >> (8 * i)) & 0xff));
}

void
appendString(std::string* payload, const std::string& s)
{
    char len[4];
    putU32(len, static_cast<std::uint32_t>(s.size()));
    payload->append(len, sizeof(len));
    payload->append(s);
}

std::uint64_t
PayloadReader::u64()
{
    if (!ok_ || at_ + 8 > data_.size()) {
        ok_ = false;
        return 0;
    }
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(data_[at_ + i]);
    at_ += 8;
    return v;
}

std::string
PayloadReader::str()
{
    if (!ok_ || at_ + 4 > data_.size()) {
        ok_ = false;
        return "";
    }
    const std::uint32_t len = getU32(data_.data() + at_);
    at_ += 4;
    if (at_ + len > data_.size()) {
        ok_ = false;
        return "";
    }
    std::string s = data_.substr(at_, len);
    at_ += len;
    return s;
}

std::string
encodeFrame(FrameType type, const std::string& payload)
{
    if (payload.size() > kMaxFramePayload)
        panic("frame payload of ", payload.size(),
              " bytes exceeds the protocol cap");
    std::string wire;
    wire.reserve(kHeaderSize + payload.size());
    wire.append(kMagic, sizeof(kMagic));
    char h[8];
    putU16(h, kFrameVersion);
    putU16(h + 2, static_cast<std::uint16_t>(type));
    putU32(h + 4, static_cast<std::uint32_t>(payload.size()));
    wire.append(h, sizeof(h));
    wire.append(payload);
    return wire;
}

bool
sendFrame(int fd, FrameType type, const std::string& payload)
{
    const std::string wire = encodeFrame(type, payload);
    return harness::writeFull(fd, wire.data(), wire.size());
}

int
recvFrame(int fd, Frame* out, std::string* err)
{
    char header[kHeaderSize];
    const ssize_t r = harness::readFull(fd, header, sizeof(header));
    if (r == 0)
        return 0;
    if (r < 0) {
        *err = errno ? errnoMessage(errno)
                     : "connection closed mid-frame";
        return -1;
    }
    std::uint32_t length = 0;
    if (!parseFrameHeader(header, &out->type, &length, err))
        return -1;
    out->payload.resize(length);
    if (length > 0 &&
        harness::readFull(fd, out->payload.data(), length) !=
            static_cast<ssize_t>(length)) {
        *err = errno ? errnoMessage(errno)
                     : "connection closed mid-frame";
        return -1;
    }
    return 1;
}

bool
FrameReader::feed(const char* data, std::size_t n,
                  std::vector<Frame>* out)
{
    if (poisoned_)
        return false;
    buf_.append(data, n);
    for (;;) {
        if (buf_.size() < kHeaderSize)
            return true;
        Frame f;
        std::uint32_t length = 0;
        if (!parseFrameHeader(buf_.data(), &f.type, &length, &error_)) {
            poisoned_ = true;
            return false;
        }
        if (buf_.size() < kHeaderSize + length)
            return true;
        f.payload = buf_.substr(kHeaderSize, length);
        buf_.erase(0, kHeaderSize + length);
        out->push_back(std::move(f));
    }
}

} // namespace svc
} // namespace tb
