#include "net/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace i3 {
namespace net {

namespace {

/// Little-endian appenders (no struct casts; ABI/endian stable).
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked read cursor. Every getter either fills its output and
/// advances, or fails permanently; a failed cursor never reads memory.
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t len) : data_(data), end_(len) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return end_ - pos_; }

  bool GetU8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = data_[pos_++];
    return true;
  }

  bool GetU16(uint16_t* v) {
    if (!Need(2)) return false;
    *v = static_cast<uint16_t>(data_[pos_]) |
         static_cast<uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (!Need(4)) return false;
    uint32_t r = 0;
    for (int i = 3; i >= 0; --i) r = r << 8 | data_[pos_ + i];
    pos_ += 4;
    *v = r;
    return true;
  }

  bool GetU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = static_cast<uint64_t>(hi) << 32 | lo;
    return true;
  }

  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool GetBytes(std::string* out, size_t n) {
    if (!Need(n)) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t pos_ = 0;
  size_t end_;
  bool ok_ = true;
};

Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed frame: ") + what);
}

/// A weight/score/coordinate from the wire must be a real number --
/// NaN/Inf scores would poison top-k ordering downstream.
bool FiniteF64(double v) { return std::isfinite(v); }

}  // namespace

const char* ResponseOutcomeName(ResponseOutcome o) {
  switch (o) {
    case ResponseOutcome::kOk:
      return "ok";
    case ResponseOutcome::kShed:
      return "shed";
    case ResponseOutcome::kError:
      return "error";
  }
  return "unknown";
}

void EncodeRequest(const Request& req, std::string* out) {
  const size_t num_terms =
      std::min<size_t>(req.terms.size(), kMaxTerms);
  std::string payload;
  payload.reserve(48 + num_terms * 4);
  PutU16(&payload, kRequestMagic);
  PutU8(&payload, kProtocolVersion);
  PutU8(&payload, static_cast<uint8_t>(req.type));
  PutU64(&payload, req.request_id);
  PutU32(&payload, req.tenant);
  PutU32(&payload, req.k);
  PutU8(&payload, req.semantics == Semantics::kAnd ? 0 : 1);
  // Flags byte: bit 0 = no_cache (result-cache opt-out), bit 1 = trace
  // ("trace me": the response carries a span timeline). Bits 2..7 are
  // reserved and must be zero.
  PutU8(&payload, static_cast<uint8_t>((req.no_cache ? 1 : 0) |
                                       (req.trace ? 2 : 0)));
  PutU32(&payload, req.deadline_ms);
  PutF64(&payload, req.x);
  PutF64(&payload, req.y);
  PutF64(&payload, req.alpha);
  PutU16(&payload, static_cast<uint16_t>(num_terms));
  for (size_t i = 0; i < num_terms; ++i) PutU32(&payload, req.terms[i]);

  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

namespace {

/// Appends one trace name: length byte + bytes, clamped to kMaxTraceName.
/// Names are never empty on the encode side (an empty name would not
/// decode); callers filter before reaching here.
void PutTraceName(std::string* payload, const std::string& name) {
  const size_t n = std::min<size_t>(name.size(), kMaxTraceName);
  PutU8(payload, static_cast<uint8_t>(n));
  payload->append(name, 0, n);
}

void EncodeTraceSection(const WireTrace& trace, std::string* payload) {
  PutU64(payload, trace.trace_id);
  PutU64(payload, trace.total_ns);
  size_t num_spans = 0;
  for (const WireTraceSpan& s : trace.spans) {
    if (!s.name.empty()) ++num_spans;
    if (num_spans == kMaxTraceSpans) break;
  }
  PutU8(payload, static_cast<uint8_t>(num_spans));
  size_t written = 0;
  for (const WireTraceSpan& s : trace.spans) {
    if (s.name.empty()) continue;
    if (written == num_spans) break;
    ++written;
    PutTraceName(payload, s.name);
    PutU64(payload, s.total_ns);
    PutU32(payload, s.calls);
  }
  size_t num_annotations = 0;
  for (const WireTraceAnnotation& a : trace.annotations) {
    if (!a.name.empty()) ++num_annotations;
    if (num_annotations == kMaxTraceAnnotations) break;
  }
  PutU8(payload, static_cast<uint8_t>(num_annotations));
  written = 0;
  for (const WireTraceAnnotation& a : trace.annotations) {
    if (a.name.empty()) continue;
    if (written == num_annotations) break;
    ++written;
    PutTraceName(payload, a.name);
    PutU64(payload, a.value);
  }
}

}  // namespace

void EncodeResponse(const Response& resp, std::string* out) {
  const size_t num_results =
      std::min<size_t>(resp.results.size(), kMaxK);
  const size_t msg_len =
      std::min<size_t>(resp.message.size(), kMaxErrorMessage);
  std::string payload;
  payload.reserve(20 + msg_len + num_results * 28 +
                  (resp.has_trace ? 256 : 0));
  PutU16(&payload, kResponseMagic);
  PutU8(&payload, kProtocolVersion);
  PutU8(&payload, static_cast<uint8_t>(resp.outcome));
  PutU64(&payload, resp.request_id);
  // Flags byte: bit 1 = trace section present after the result list.
  // Bit 0 and bits 2..7 are reserved and must be zero.
  PutU8(&payload, static_cast<uint8_t>(resp.has_trace ? 2 : 0));
  PutU8(&payload, static_cast<uint8_t>(resp.code));
  PutU16(&payload, static_cast<uint16_t>(msg_len));
  payload.append(resp.message, 0, msg_len);
  PutU16(&payload, static_cast<uint16_t>(num_results));
  for (size_t i = 0; i < num_results; ++i) {
    const ScoredDoc& d = resp.results[i];
    PutU32(&payload, d.doc);
    PutF64(&payload, d.score);
    PutF64(&payload, d.location.x);
    PutF64(&payload, d.location.y);
  }
  if (resp.has_trace) EncodeTraceSection(resp.trace, &payload);

  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

Result<Request> DecodeRequest(const uint8_t* payload, size_t len) {
  if (len > kMaxFramePayload) return Malformed("oversized payload");
  Cursor c(payload, len);
  uint16_t magic = 0;
  uint8_t version = 0, type = 0, semantics = 0, reserved = 0;
  Request req;
  if (!c.GetU16(&magic)) return Malformed("short header");
  if (magic != kRequestMagic) return Malformed("bad request magic");
  if (!c.GetU8(&version)) return Malformed("short header");
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  if (!c.GetU8(&type)) return Malformed("short header");
  if (type != static_cast<uint8_t>(MessageType::kSearch) &&
      type != static_cast<uint8_t>(MessageType::kPing)) {
    return Malformed("unknown message type");
  }
  req.type = static_cast<MessageType>(type);
  uint16_t num_terms = 0;
  if (!c.GetU64(&req.request_id) || !c.GetU32(&req.tenant) ||
      !c.GetU32(&req.k) || !c.GetU8(&semantics) || !c.GetU8(&reserved) ||
      !c.GetU32(&req.deadline_ms) || !c.GetF64(&req.x) || !c.GetF64(&req.y) ||
      !c.GetF64(&req.alpha) || !c.GetU16(&num_terms)) {
    return Malformed("truncated request");
  }
  if (semantics > 1) return Malformed("bad semantics");
  // Flags byte: bit 0 (no_cache) and bit 1 (trace) are the only defined
  // flags; any other bit is damage, not a feature. Rejecting the rest
  // keeps decode(payload) canonical: whatever decodes re-encodes
  // byte-identically (asserted by the protocol fuzz tests).
  if ((reserved & ~uint8_t{3}) != 0) return Malformed("reserved flags set");
  req.no_cache = (reserved & 1) != 0;
  req.trace = (reserved & 2) != 0;
  req.semantics = semantics == 0 ? Semantics::kAnd : Semantics::kOr;
  if (req.type == MessageType::kSearch) {
    if (req.k == 0 || req.k > kMaxK) return Malformed("k out of range");
    if (num_terms == 0 || num_terms > kMaxTerms) {
      return Malformed("term count out of range");
    }
    if (!FiniteF64(req.x) || !FiniteF64(req.y)) {
      return Malformed("non-finite location");
    }
    if (!FiniteF64(req.alpha) || req.alpha < 0.0 || req.alpha > 1.0) {
      return Malformed("alpha out of range");
    }
  } else if (num_terms != 0) {
    return Malformed("ping carries terms");
  }
  req.terms.reserve(num_terms);
  for (uint16_t i = 0; i < num_terms; ++i) {
    uint32_t t = 0;
    if (!c.GetU32(&t)) return Malformed("truncated term list");
    req.terms.push_back(t);
  }
  if (c.remaining() != 0) return Malformed("trailing request bytes");
  return req;
}

Result<Response> DecodeResponse(const uint8_t* payload, size_t len) {
  if (len > kMaxFramePayload) return Malformed("oversized payload");
  Cursor c(payload, len);
  uint16_t magic = 0;
  uint8_t version = 0, outcome = 0, flags = 0, code = 0;
  Response resp;
  if (!c.GetU16(&magic)) return Malformed("short header");
  if (magic != kResponseMagic) return Malformed("bad response magic");
  if (!c.GetU8(&version)) return Malformed("short header");
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  if (!c.GetU8(&outcome)) return Malformed("short header");
  if (outcome > static_cast<uint8_t>(ResponseOutcome::kError)) {
    return Malformed("unknown outcome");
  }
  resp.outcome = static_cast<ResponseOutcome>(outcome);
  uint16_t msg_len = 0;
  if (!c.GetU64(&resp.request_id) || !c.GetU8(&flags) ||
      !c.GetU8(&code) || !c.GetU16(&msg_len)) {
    return Malformed("truncated response");
  }
  // Response flags byte: bit 1 = trace section follows the result list.
  // Any other bit is damage.
  if ((flags & ~uint8_t{2}) != 0) return Malformed("bad response flags");
  resp.has_trace = (flags & 2) != 0;
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Malformed("unknown status code");
  }
  resp.code = static_cast<StatusCode>(code);
  if (msg_len > kMaxErrorMessage) return Malformed("oversized message");
  if (!c.GetBytes(&resp.message, msg_len)) {
    return Malformed("truncated message");
  }
  uint16_t num_results = 0;
  if (!c.GetU16(&num_results)) return Malformed("truncated response");
  if (num_results > kMaxK) return Malformed("result count out of range");
  resp.results.reserve(num_results);
  for (uint16_t i = 0; i < num_results; ++i) {
    ScoredDoc d;
    if (!c.GetU32(&d.doc) || !c.GetF64(&d.score) ||
        !c.GetF64(&d.location.x) || !c.GetF64(&d.location.y)) {
      return Malformed("truncated result list");
    }
    if (!FiniteF64(d.score)) return Malformed("non-finite score");
    resp.results.push_back(d);
  }
  if (resp.has_trace) {
    uint8_t num_spans = 0, num_annotations = 0;
    if (!c.GetU64(&resp.trace.trace_id) || !c.GetU64(&resp.trace.total_ns) ||
        !c.GetU8(&num_spans)) {
      return Malformed("truncated trace section");
    }
    if (num_spans > kMaxTraceSpans) return Malformed("trace span overflow");
    resp.trace.spans.reserve(num_spans);
    for (uint8_t i = 0; i < num_spans; ++i) {
      WireTraceSpan s;
      uint8_t name_len = 0;
      if (!c.GetU8(&name_len)) return Malformed("truncated trace span");
      if (name_len == 0 || name_len > kMaxTraceName) {
        return Malformed("trace span name out of range");
      }
      if (!c.GetBytes(&s.name, name_len) || !c.GetU64(&s.total_ns) ||
          !c.GetU32(&s.calls)) {
        return Malformed("truncated trace span");
      }
      resp.trace.spans.push_back(std::move(s));
    }
    if (!c.GetU8(&num_annotations))
      return Malformed("truncated trace section");
    if (num_annotations > kMaxTraceAnnotations) {
      return Malformed("trace annotation overflow");
    }
    resp.trace.annotations.reserve(num_annotations);
    for (uint8_t i = 0; i < num_annotations; ++i) {
      WireTraceAnnotation a;
      uint8_t name_len = 0;
      if (!c.GetU8(&name_len)) return Malformed("truncated trace annotation");
      if (name_len == 0 || name_len > kMaxTraceName) {
        return Malformed("trace annotation name out of range");
      }
      if (!c.GetBytes(&a.name, name_len) || !c.GetU64(&a.value)) {
        return Malformed("truncated trace annotation");
      }
      resp.trace.annotations.push_back(std::move(a));
    }
  }
  if (c.remaining() != 0) return Malformed("trailing response bytes");
  return resp;
}

FrameStatus NextFrame(const uint8_t* buf, size_t len, uint32_t* payload_len) {
  if (len < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  uint32_t n = 0;
  for (int i = 3; i >= 0; --i) n = n << 8 | buf[i];
  if (n > kMaxFramePayload) return FrameStatus::kTooLarge;
  *payload_len = n;
  if (len - kFrameHeaderBytes < n) return FrameStatus::kNeedMore;
  return FrameStatus::kReady;
}

uint64_t ResultChecksum(const std::vector<ScoredDoc>& results) {
  // FNV-1a over (rank, doc, score bits): order-sensitive, so a reordered
  // or truncated top-k list produces a different checksum.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= v >> (i * 8) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t i = 0; i < results.size(); ++i) {
    uint64_t score_bits;
    std::memcpy(&score_bits, &results[i].score, sizeof(score_bits));
    mix(i);
    mix(results[i].doc);
    mix(score_bits);
  }
  return h;
}

}  // namespace net
}  // namespace i3
