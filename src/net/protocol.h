// The wire protocol of the serving front end: length-prefixed frames
// carrying a small parsed query protocol (keywords, k, alpha, semantics,
// deadline, tenant id) and its responses.
//
// Framing: every message is `uint32 payload_len` (little-endian, excluding
// the prefix itself) followed by `payload_len` bytes of payload. A length
// above kMaxFramePayload is a protocol violation -- the receiver cannot
// resynchronize, so it must answer with a clean error and close the
// connection. Multiple frames may be pipelined on one connection;
// responses carry the request's id so they can be matched even though the
// server may batch and reorder internally.
//
// The codec is symmetric with the storage-page codecs (i3/cell_codec.h):
// encoding is explicit little-endian byte writing (no struct casts, no
// padding, endian- and ABI-stable), and decoding goes through a
// bounds-checked cursor that can never over-read -- a damaged or truncated
// payload yields Status::Corruption / InvalidArgument, never undefined
// behavior. tests/test_net_protocol.cc sweeps truncations and every-byte
// corruptions over the codec exactly like test_cell_codec.cc does for
// pages.

#ifndef I3_NET_PROTOCOL_H_
#define I3_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/query.h"

namespace i3 {
namespace net {

/// Protocol version spoken by this tree. A version mismatch is a clean
/// decode error, not a best-effort parse.
inline constexpr uint8_t kProtocolVersion = 1;

/// Frame length prefix size in bytes.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Largest acceptable frame payload. Large enough for kMaxK results with
/// room to spare; small enough that a hostile length prefix cannot balloon
/// a connection buffer.
inline constexpr uint32_t kMaxFramePayload = 64 * 1024;

/// Request validation limits (enforced by the decoder, mirrored by the
/// encoder's own argument checks).
inline constexpr uint32_t kMaxTerms = 256;
inline constexpr uint32_t kMaxK = 1024;
inline constexpr uint32_t kMaxErrorMessage = 512;

/// Trace-section limits: a traced response carries at most this many
/// stage spans / annotations, each with a short name. Keeps the section
/// bounded (~6KB worst case) inside kMaxFramePayload.
inline constexpr uint32_t kMaxTraceSpans = 64;
inline constexpr uint32_t kMaxTraceAnnotations = 32;
inline constexpr uint32_t kMaxTraceName = 48;

/// First two payload bytes of a request / response ("I3" / "3I"): lets a
/// receiver reject garbage immediately and keeps the two directions from
/// being confused for one another.
inline constexpr uint16_t kRequestMagic = 0x3349;   // "I3"
inline constexpr uint16_t kResponseMagic = 0x4933;  // "3I"

enum class MessageType : uint8_t {
  /// Top-k spatial keyword search.
  kSearch = 1,
  /// Liveness probe: answered immediately with an empty OK response.
  kPing = 2,
};

/// \brief How the server disposed of a request.
enum class ResponseOutcome : uint8_t {
  /// Served; results valid.
  kOk = 0,
  /// Load-shed by admission control before reaching the index. The client
  /// should back off and retry; the request was never executed.
  kShed = 1,
  /// A clean failure: malformed request, or the index returned an error.
  kError = 2,
};

const char* ResponseOutcomeName(ResponseOutcome o);

/// \brief One parsed request.
struct Request {
  MessageType type = MessageType::kSearch;
  /// Echoed verbatim in the response (client-side request matching).
  uint64_t request_id = 0;
  /// Admission-control principal; buckets are per tenant id.
  uint32_t tenant = 0;
  uint32_t k = 10;
  Semantics semantics = Semantics::kAnd;
  /// Relative per-request budget in milliseconds; 0 = unbounded. The
  /// server converts it to an absolute QueryControl deadline at admission
  /// time, so queue wait counts against the budget.
  uint32_t deadline_ms = 0;
  double x = 0.0;
  double y = 0.0;
  /// Spatial/textual weighting in [0, 1].
  double alpha = 0.5;
  /// Opt out of the server's whole-query result cache (wire flags bit 0):
  /// the request always reaches the index and its response is not cached.
  bool no_cache = false;
  /// "Trace me" (wire flags bit 1): the server stamps a trace id, records
  /// a span timeline across every serving stage the request touches, and
  /// returns the timeline in the response's trace section. Results are
  /// byte-identical to the untraced request (tracing never changes the
  /// answer, only appends the timeline).
  bool trace = false;
  std::vector<TermId> terms;

  /// \brief The library query this request describes. Deadline/cancel
  /// propagation is the caller's job (the server anchors the deadline at
  /// admission, see above); terms are normalized.
  Query ToQuery() const {
    Query q;
    q.location = {x, y};
    q.terms = terms;
    q.k = k;
    q.semantics = semantics;
    q.Normalize();
    return q;
  }
};

/// \brief One stage of a wire-returned span timeline: accumulated time
/// and call count, mirroring obs::TraceStage.
struct WireTraceSpan {
  std::string name;
  uint64_t total_ns = 0;
  uint32_t calls = 0;
};

/// \brief One integer annotation attached to a wire trace (cache_hit,
/// docs_scored, batch_size, ...).
struct WireTraceAnnotation {
  std::string name;
  uint64_t value = 0;
};

/// \brief The span timeline a traced response carries back: the server's
/// 64-bit trace id, its end-to-end wall time, and the per-stage
/// breakdown (admission, queue wait, cache probes, search, encode).
/// Clients subtract `total_ns` from their own observed latency to
/// attribute the remainder to the network and client stack.
struct WireTrace {
  uint64_t trace_id = 0;
  uint64_t total_ns = 0;
  std::vector<WireTraceSpan> spans;
  std::vector<WireTraceAnnotation> annotations;
};

/// \brief One response.
struct Response {
  ResponseOutcome outcome = ResponseOutcome::kOk;
  uint64_t request_id = 0;
  /// Always false: never encoded (response flags bit 0 is reserved and
  /// rejected on decode). Kept only because the end-to-end benchmark
  /// (e2ebench/) still reads it.
  bool degraded = false;
  /// StatusCode of the failure (outcome == kError only).
  StatusCode code = StatusCode::kOk;
  /// Human-readable failure/shed detail (truncated to kMaxErrorMessage).
  std::string message;
  std::vector<ScoredDoc> results;
  /// Present iff the request set its trace flag (response flags bit 1);
  /// the section rides after the result list so the result encoding is
  /// byte-identical with and without it.
  bool has_trace = false;
  WireTrace trace;
};

/// \brief Appends a length-prefixed request/response frame to `out`.
/// Oversized inputs (too many terms/results, message overflow) are clamped
/// or rejected at the call site by the validation limits above; Encode
/// itself asserts them in debug builds and clamps in release.
void EncodeRequest(const Request& req, std::string* out);
void EncodeResponse(const Response& resp, std::string* out);

/// \brief Decodes one frame *payload* (the bytes after the length prefix).
/// Never reads past `len`. Any violation -- bad magic/version/type, field
/// out of range, short or trailing bytes -- is a clean error Status.
Result<Request> DecodeRequest(const uint8_t* payload, size_t len);
Result<Response> DecodeResponse(const uint8_t* payload, size_t len);

/// \brief Outcome of scanning a connection buffer for the next frame.
enum class FrameStatus {
  /// A whole frame is buffered: payload at [data + 4, data + 4 + len).
  kReady,
  /// The buffer holds a partial header or partial payload; read more.
  kNeedMore,
  /// The length prefix exceeds kMaxFramePayload: protocol violation, the
  /// stream cannot be resynchronized. Respond with an error and close.
  kTooLarge,
};

/// \brief Scans `buf[0, len)` for one frame. On kReady, *payload_len is
/// the payload size (frame total = kFrameHeaderBytes + *payload_len).
FrameStatus NextFrame(const uint8_t* buf, size_t len, uint32_t* payload_len);

/// \brief Order-sensitive checksum over a result list (doc ids and score
/// bits), used by the differential tests and bench_serving to prove wire
/// results byte-identical to direct library calls.
uint64_t ResultChecksum(const std::vector<ScoredDoc>& results);

}  // namespace net
}  // namespace i3

#endif  // I3_NET_PROTOCOL_H_
