/**
 * @file
 * The campaign service wire protocol: length-prefixed, versioned
 * frames over a Unix-domain or TCP socket (docs/ROBUSTNESS.md,
 * "Distributed campaigns").
 *
 * Every frame is a fixed 12-byte header followed by a payload:
 *
 *   offset  size  field
 *        0     4  magic "TBF1"
 *        4     2  protocol version (little-endian, currently 1)
 *        6     2  frame type (FrameType, little-endian)
 *        8     4  payload length in bytes (little-endian)
 *
 * Payload contents are frame-type-specific sequences of little-endian
 * u64s and u32-length-prefixed strings (appendU64/appendString and
 * the PayloadReader below). Campaign point results travel as the
 * existing TBRESULT1 serde / campaign artifact strings, verbatim —
 * the wire adds framing, never re-encodes.
 *
 * The header is versioned and self-delimiting so a mismatched peer
 * (old binary, wrong port, line noise) is detected at the first
 * frame: bad magic or version is a protocol error that closes the
 * connection and lands in the crash ledger, never undefined behaviour
 * further in. Payloads are capped (kMaxFramePayload) so a corrupt
 * length field cannot make a peer allocate unbounded memory.
 */

#ifndef TB_SVC_FRAME_HH_
#define TB_SVC_FRAME_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace tb {
namespace svc {

/** Protocol version this build speaks. */
constexpr std::uint16_t kFrameVersion = 1;

/** Upper bound on one frame's payload (a corrupt header must not
 *  translate into an unbounded allocation). */
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/** Frame types of protocol version 1. */
enum class FrameType : std::uint16_t
{
    // worker -> daemon
    Hello = 1,        ///< u64 count, u64 fingerprint, str name
    LeaseRequest = 2, ///< (empty)
    Heartbeat = 3,    ///< u64 point
    Result = 4,       ///< u64 point, u64 key, u64 checksum, str artifact
    PointError = 5,   ///< u64 point, u64 outcome, str message
    Goodbye = 6,      ///< str reason

    // daemon -> worker
    HelloAck = 32,   ///< u64 workerId, u64 heartbeatMs, u64 leaseMs
    LeaseGrant = 33, ///< u64 point, u64 attempt
    NoWork = 34,     ///< u64 retryAfterMs (all leased / backing off)
    Done = 35,       ///< (empty) campaign complete, worker may exit
    ResultAck = 36,  ///< u64 point
    Reject = 37,     ///< str reason (protocol error; connection closes)
};

/** Human-readable frame-type name (diagnostics, crash ledger). */
const char* frameTypeName(FrameType t);

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Reject;
    std::string payload;
};

/** Append a little-endian u64 to a payload under construction. */
void appendU64(std::string* payload, std::uint64_t v);

/** Append a u32-length-prefixed string to a payload. */
void appendString(std::string* payload, const std::string& s);

/** Sequential reader over a received payload. */
class PayloadReader
{
  public:
    explicit PayloadReader(const std::string& payload)
        : data_(payload)
    {}

    /** False once any read ran past the end (check after reading). */
    bool ok() const { return ok_; }
    /** Whether every payload byte was consumed. */
    bool exhausted() const { return ok_ && at_ == data_.size(); }

    std::uint64_t u64();
    std::string str();

  private:
    const std::string& data_;
    std::size_t at_ = 0;
    bool ok_ = true;
};

/** Wire size of the fixed frame header. */
constexpr std::size_t kFrameHeaderSize = 12;

/**
 * Validate a kFrameHeaderSize-byte header: magic, version, payload
 * cap. True on success with @p type / @p length filled in; false with
 * a diagnostic in @p err. Exposed for transports that reassemble the
 * header from fragments (net_faults.cc) and for the protocol fuzzer.
 */
bool parseFrameHeader(const char* header, FrameType* type,
                      std::uint32_t* length, std::string* err);

/** Serialize a frame (header + payload) to wire bytes. */
std::string encodeFrame(FrameType type, const std::string& payload);

/**
 * Write one frame to @p fd (EINTR-safe, blocking). False on any I/O
 * error — with SIGPIPE ignored, a dead peer surfaces here as EPIPE.
 */
bool sendFrame(int fd, FrameType type, const std::string& payload);

/**
 * Blocking read of exactly one frame. Returns 1 on success, 0 on
 * clean EOF before a header byte, -1 on error (malformed header,
 * truncated frame, I/O failure) with a diagnostic in @p err.
 */
int recvFrame(int fd, Frame* out, std::string* err);

/**
 * Incremental frame decoder for non-blocking connections: the daemon
 * feeds whatever bytes poll() surfaced and collects every complete
 * frame. A malformed header poisons the reader permanently — framing
 * is unrecoverable once desynchronized.
 */
class FrameReader
{
  public:
    /**
     * Consume @p n bytes, appending decoded frames to @p out.
     * Returns false (and sets error()) on a malformed header.
     */
    bool feed(const char* data, std::size_t n,
              std::vector<Frame>* out);

    const std::string& error() const { return error_; }

  private:
    std::string buf_;
    std::string error_;
    bool poisoned_ = false;
};

} // namespace svc
} // namespace tb

#endif // TB_SVC_FRAME_HH_
