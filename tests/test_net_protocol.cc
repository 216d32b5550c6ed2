// Protocol fuzz / property tests for the serving wire codec
// (net/protocol.h): round-trips, a seeded mutation sweep (truncations,
// every-byte corruptions, hostile length prefixes), and framing-scan
// properties. The invariants under attack: the decoder never crashes,
// never reads past the buffer it was given (exact-size heap allocations
// put ASan red zones right behind every payload), and answers every
// malformed input with a clean error Status.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"

namespace i3 {
namespace net {
namespace {

/// Exact-size heap copy of an encoded payload so any decoder over-read
/// trips ASan instead of sliding into unrelated string capacity.
std::vector<uint8_t> Exact(const std::string& bytes, size_t offset = 0,
                           size_t len = std::string::npos) {
  if (len == std::string::npos) len = bytes.size() - offset;
  return std::vector<uint8_t>(bytes.begin() + offset,
                              bytes.begin() + offset + len);
}

Request MakeSearchRequest() {
  Request req;
  req.type = MessageType::kSearch;
  req.request_id = 0x0123456789abcdefull;
  req.tenant = 7;
  req.k = 25;
  req.semantics = Semantics::kOr;
  req.deadline_ms = 1500;
  req.x = 42.5;
  req.y = -17.25;
  req.alpha = 0.75;
  req.no_cache = true;
  req.trace = true;
  req.terms = {3, 1, 4, 15, 92};
  return req;
}

Response MakeOkResponse() {
  Response resp;
  resp.outcome = ResponseOutcome::kOk;
  resp.request_id = 0xfeedface12345678ull;
  resp.results = {{10, 0.875, {1.0, 2.0}},
                  {42, 0.5, {-3.5, 7.0}},
                  {7, 0.25, {0.0, 0.0}}};
  resp.has_trace = true;
  resp.trace.trace_id = 0x1122334455667788ull;
  resp.trace.total_ns = 987654;
  resp.trace.spans = {{"admission", 1200, 1}, {"search", 950000, 1}};
  resp.trace.annotations = {{"results", 3}, {"batch_size", 4}};
  return resp;
}

Request RandomRequest(Rng* rng) {
  Request req;
  req.type = rng->Chance(0.1) ? MessageType::kPing : MessageType::kSearch;
  req.request_id = static_cast<uint64_t>(rng->UniformInt(0, 1 << 30)) << 32 |
                   static_cast<uint32_t>(rng->UniformInt(0, 1 << 30));
  req.tenant = static_cast<uint32_t>(rng->UniformInt(0, 1000));
  req.deadline_ms = static_cast<uint32_t>(rng->UniformInt(0, 100000));
  req.no_cache = rng->Chance(0.25);
  req.trace = rng->Chance(0.25);
  if (req.type == MessageType::kSearch) {
    req.k = static_cast<uint32_t>(rng->UniformInt(1, kMaxK));
    req.semantics = rng->Chance(0.5) ? Semantics::kAnd : Semantics::kOr;
    req.x = rng->UniformDouble(-1e6, 1e6);
    req.y = rng->UniformDouble(-1e6, 1e6);
    req.alpha = rng->UniformDouble(0.0, 1.0);
    const int n = rng->UniformInt(1, 16);
    for (int i = 0; i < n; ++i) {
      req.terms.push_back(static_cast<TermId>(rng->UniformInt(0, 1 << 20)));
    }
  }
  return req;
}

Response RandomResponse(Rng* rng) {
  Response resp;
  resp.outcome = static_cast<ResponseOutcome>(rng->UniformInt(0, 2));
  resp.request_id = static_cast<uint64_t>(rng->UniformInt(0, 1 << 30));
  if (resp.outcome == ResponseOutcome::kError) {
    resp.code = static_cast<StatusCode>(
        rng->UniformInt(1, static_cast<int>(StatusCode::kDeadlineExceeded)));
    resp.message.assign(static_cast<size_t>(rng->UniformInt(0, 100)), 'e');
  }
  if (resp.outcome == ResponseOutcome::kOk) {
    const int n = rng->UniformInt(0, 32);
    for (int i = 0; i < n; ++i) {
      resp.results.push_back({static_cast<DocId>(rng->UniformInt(0, 1 << 20)),
                              rng->UniformDouble(0.0, 1.0),
                              {rng->UniformDouble(-100, 100),
                               rng->UniformDouble(-100, 100)}});
    }
  }
  if (rng->Chance(0.3)) {
    resp.has_trace = true;
    resp.trace.trace_id =
        static_cast<uint64_t>(rng->UniformInt(1, 1 << 30));
    resp.trace.total_ns =
        static_cast<uint64_t>(rng->UniformInt(0, 1 << 30));
    const int num_spans = rng->UniformInt(0, 6);
    for (int i = 0; i < num_spans; ++i) {
      WireTraceSpan span;
      span.name = "stage" + std::to_string(i);
      span.total_ns = static_cast<uint64_t>(rng->UniformInt(0, 1 << 30));
      span.calls = static_cast<uint32_t>(rng->UniformInt(0, 1 << 20));
      resp.trace.spans.push_back(std::move(span));
    }
    const int num_annotations = rng->UniformInt(0, 4);
    for (int i = 0; i < num_annotations; ++i) {
      resp.trace.annotations.push_back(
          {"note" + std::to_string(i),
           static_cast<uint64_t>(rng->UniformInt(0, 1 << 30))});
    }
  }
  return resp;
}

void ExpectRequestEq(const Request& a, const Request& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.no_cache, b.no_cache);
  EXPECT_EQ(a.trace, b.trace);
  if (a.type == MessageType::kSearch) {
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.semantics, b.semantics);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.alpha, b.alpha);
    ASSERT_EQ(a.terms.size(), b.terms.size());
    for (size_t i = 0; i < a.terms.size(); ++i) {
      EXPECT_EQ(a.terms[i], b.terms[i]);
    }
  }
}

void ExpectResponseEq(const Response& a, const Response& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(ResultChecksum(a.results), ResultChecksum(b.results));
  ASSERT_EQ(a.has_trace, b.has_trace);
  if (a.has_trace) {
    EXPECT_EQ(a.trace.trace_id, b.trace.trace_id);
    EXPECT_EQ(a.trace.total_ns, b.trace.total_ns);
    ASSERT_EQ(a.trace.spans.size(), b.trace.spans.size());
    for (size_t i = 0; i < a.trace.spans.size(); ++i) {
      EXPECT_EQ(a.trace.spans[i].name, b.trace.spans[i].name);
      EXPECT_EQ(a.trace.spans[i].total_ns, b.trace.spans[i].total_ns);
      EXPECT_EQ(a.trace.spans[i].calls, b.trace.spans[i].calls);
    }
    ASSERT_EQ(a.trace.annotations.size(), b.trace.annotations.size());
    for (size_t i = 0; i < a.trace.annotations.size(); ++i) {
      EXPECT_EQ(a.trace.annotations[i].name, b.trace.annotations[i].name);
      EXPECT_EQ(a.trace.annotations[i].value,
                b.trace.annotations[i].value);
    }
  }
}

TEST(NetProtocolTest, RequestRoundTrip) {
  const Request req = MakeSearchRequest();
  std::string frame;
  EncodeRequest(req, &frame);
  uint32_t payload_len = 0;
  ASSERT_EQ(NextFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                      frame.size(), &payload_len),
            FrameStatus::kReady);
  EXPECT_EQ(payload_len + kFrameHeaderBytes, frame.size());
  const auto payload = Exact(frame, kFrameHeaderBytes);
  auto got = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectRequestEq(req, got.ValueOrDie());
}

TEST(NetProtocolTest, PingRoundTrip) {
  Request req;
  req.type = MessageType::kPing;
  req.request_id = 99;
  std::string frame;
  EncodeRequest(req, &frame);
  const auto payload = Exact(frame, kFrameHeaderBytes);
  auto got = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectRequestEq(req, got.ValueOrDie());
}

TEST(NetProtocolTest, ResponseRoundTripAllOutcomes) {
  std::vector<Response> cases;
  cases.push_back(MakeOkResponse());
  Response shed;
  shed.outcome = ResponseOutcome::kShed;
  shed.request_id = 5;
  shed.message = "tenant rate limit exceeded";
  cases.push_back(shed);
  Response err;
  err.outcome = ResponseOutcome::kError;
  err.request_id = 6;
  err.code = StatusCode::kCorruption;
  err.message = "malformed frame: bad request magic";
  cases.push_back(err);
  for (const Response& resp : cases) {
    std::string frame;
    EncodeResponse(resp, &frame);
    const auto payload = Exact(frame, kFrameHeaderBytes);
    auto got = DecodeResponse(payload.data(), payload.size());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectResponseEq(resp, got.ValueOrDie());
  }
}

TEST(NetProtocolTest, RandomRoundTripSweep) {
  Rng rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    const Request req = RandomRequest(&rng);
    std::string frame;
    EncodeRequest(req, &frame);
    auto payload = Exact(frame, kFrameHeaderBytes);
    auto got = DecodeRequest(payload.data(), payload.size());
    ASSERT_TRUE(got.ok()) << "iter " << iter << ": "
                          << got.status().ToString();
    ExpectRequestEq(req, got.ValueOrDie());

    const Response resp = RandomResponse(&rng);
    frame.clear();
    EncodeResponse(resp, &frame);
    payload = Exact(frame, kFrameHeaderBytes);
    auto rgot = DecodeResponse(payload.data(), payload.size());
    ASSERT_TRUE(rgot.ok()) << "iter " << iter << ": "
                           << rgot.status().ToString();
    ExpectResponseEq(resp, rgot.ValueOrDie());
  }
}

// Every strict prefix of a valid payload must decode to a clean error:
// the format is not self-delimiting below its declared length, so a
// truncation can never silently produce a valid message.
TEST(NetProtocolTest, EveryTruncationFailsCleanly) {
  std::string frame;
  EncodeRequest(MakeSearchRequest(), &frame);
  const std::string payload = frame.substr(kFrameHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    const auto buf = Exact(payload, 0, len);
    auto got = DecodeRequest(len == 0 ? nullptr : buf.data(), len);
    EXPECT_FALSE(got.ok()) << "prefix length " << len;
  }
  frame.clear();
  EncodeResponse(MakeOkResponse(), &frame);
  const std::string rpayload = frame.substr(kFrameHeaderBytes);
  for (size_t len = 0; len < rpayload.size(); ++len) {
    const auto buf = Exact(rpayload, 0, len);
    auto got = DecodeResponse(len == 0 ? nullptr : buf.data(), len);
    EXPECT_FALSE(got.ok()) << "prefix length " << len;
  }
}

// Flip every byte of a valid payload under several masks. The decoder
// must never crash or over-read; when the damaged payload still decodes
// (some bytes only carry a value, not structure), re-encoding it must
// round-trip -- i.e. whatever decodes is a fully valid message.
TEST(NetProtocolTest, EveryByteCorruptionIsHandled) {
  std::string frame;
  EncodeRequest(MakeSearchRequest(), &frame);
  const std::string payload = frame.substr(kFrameHeaderBytes);
  const uint8_t masks[] = {0x01, 0x80, 0xff};
  int survived = 0, rejected = 0;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (const uint8_t mask : masks) {
      auto buf = Exact(payload);
      buf[pos] ^= mask;
      auto got = DecodeRequest(buf.data(), buf.size());
      if (!got.ok()) {
        ++rejected;
        continue;
      }
      ++survived;
      std::string reframe;
      EncodeRequest(got.ValueOrDie(), &reframe);
      const auto repayload = Exact(reframe, kFrameHeaderBytes);
      auto again = DecodeRequest(repayload.data(), repayload.size());
      ASSERT_TRUE(again.ok()) << "pos " << pos << " mask " << int{mask};
    }
  }
  // The sweep must exercise both sides: structural bytes (magic, version,
  // counts) reject, free-value bytes (ids, coordinates) survive.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(survived, 0);
  // Magic and version bytes always reject, under every mask.
  for (size_t pos = 0; pos < 3; ++pos) {
    for (const uint8_t mask : masks) {
      auto buf = Exact(payload);
      buf[pos] ^= mask;
      EXPECT_FALSE(DecodeRequest(buf.data(), buf.size()).ok())
          << "header pos " << pos;
    }
  }
}

// Seeded random mutation storm over both codecs: arbitrary byte damage,
// random truncation points, random appended garbage. Decode must always
// return (cleanly) and never trip ASan.
TEST(NetProtocolTest, SeededMutationStorm) {
  Rng rng(0xfeedbeef);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string frame;
    const bool is_request = rng.Chance(0.5);
    if (is_request) {
      EncodeRequest(RandomRequest(&rng), &frame);
    } else {
      EncodeResponse(RandomResponse(&rng), &frame);
    }
    std::string payload = frame.substr(kFrameHeaderBytes);
    const int n_mutations = rng.UniformInt(1, 8);
    for (int m = 0; m < n_mutations; ++m) {
      switch (rng.UniformInt(0, 2)) {
        case 0:  // corrupt a byte
          if (!payload.empty()) {
            payload[static_cast<size_t>(rng.UniformInt(
                0, static_cast<int>(payload.size()) - 1))] ^=
                static_cast<char>(rng.UniformInt(1, 255));
          }
          break;
        case 1:  // truncate
          payload.resize(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int>(payload.size()))));
          break;
        case 2:  // append garbage
          for (int g = rng.UniformInt(1, 16); g > 0; --g) {
            payload.push_back(static_cast<char>(rng.UniformInt(0, 255)));
          }
          break;
      }
    }
    const auto buf = Exact(payload);
    const uint8_t* data = buf.empty() ? nullptr : buf.data();
    if (is_request) {
      auto got = DecodeRequest(data, buf.size());
      if (got.ok()) {
        std::string reframe;
        EncodeRequest(got.ValueOrDie(), &reframe);
        EXPECT_EQ(reframe.substr(kFrameHeaderBytes), payload)
            << "iter " << iter;
      }
    } else {
      auto got = DecodeResponse(data, buf.size());
      if (got.ok()) {
        std::string reframe;
        EncodeResponse(got.ValueOrDie(), &reframe);
        EXPECT_EQ(reframe.substr(kFrameHeaderBytes), payload)
            << "iter " << iter;
      }
    }
  }
}

TEST(NetProtocolTest, FieldRangeViolationsReject) {
  // Patch individual fields in the encoded payload. Offsets follow the
  // wire layout in protocol.cc: magic(2) version(1) type(1) id(8)
  // tenant(4) k(4) semantics(1) reserved(1) deadline(4) x(8) y(8)
  // alpha(8) num_terms(2) terms...
  std::string frame;
  EncodeRequest(MakeSearchRequest(), &frame);
  const std::string payload = frame.substr(kFrameHeaderBytes);
  struct Patch {
    size_t offset;
    std::vector<uint8_t> bytes;
    const char* what;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<uint8_t> nan_bytes(8);
  std::memcpy(nan_bytes.data(), &nan, 8);
  const double big_alpha = 1.5;
  std::vector<uint8_t> alpha_bytes(8);
  std::memcpy(alpha_bytes.data(), &big_alpha, 8);
  const std::vector<Patch> patches = {
      {3, {0x77}, "unknown message type"},
      {16, {0, 0, 0, 0}, "k == 0"},
      {16, {0xff, 0xff, 0, 0}, "k > kMaxK"},
      {20, {2}, "semantics out of range"},
      {21, {4}, "retired flag bit 2 set"},
      {21, {8}, "reserved flag bit 3 set"},
      {21, {0xf8}, "all reserved flag bits set"},
      {26, nan_bytes, "NaN x"},
      {34, nan_bytes, "NaN y"},
      {42, nan_bytes, "NaN alpha"},
      {42, alpha_bytes, "alpha > 1"},
      {50, {0, 0}, "zero terms on a search"},
      {50, {0xff, 0xff}, "term count over kMaxTerms"},
  };
  for (const Patch& p : patches) {
    std::string damaged = payload;
    ASSERT_LE(p.offset + p.bytes.size(), damaged.size()) << p.what;
    std::memcpy(damaged.data() + p.offset, p.bytes.data(), p.bytes.size());
    const auto buf = Exact(damaged);
    EXPECT_FALSE(DecodeRequest(buf.data(), buf.size()).ok()) << p.what;
  }
  // A ping that carries terms is malformed.
  std::string ping_frame;
  Request ping;
  ping.type = MessageType::kPing;
  EncodeRequest(ping, &ping_frame);
  std::string ping_payload = ping_frame.substr(kFrameHeaderBytes);
  ping_payload[50] = 1;  // num_terms = 1
  ping_payload += std::string(4, '\0');
  const auto buf = Exact(ping_payload);
  EXPECT_FALSE(DecodeRequest(buf.data(), buf.size()).ok());

  // The retired wire bits are reserved-must-be-zero: request flags 0x04
  // and response flags 0x01 are malformed.
  std::string flagged = payload;
  flagged[21] = 0x04;
  const auto req_buf = Exact(flagged);
  auto req_got = DecodeRequest(req_buf.data(), req_buf.size());
  ASSERT_FALSE(req_got.ok());
  EXPECT_TRUE(req_got.status().IsCorruption());
  EXPECT_EQ(req_got.status().message(), "malformed frame: reserved flags set");

  // Response layout: magic(2) version(1) outcome(1) id(8) flags(1) ...
  Response untraced = MakeOkResponse();
  untraced.has_trace = false;
  std::string resp_frame;
  EncodeResponse(untraced, &resp_frame);
  std::string resp_payload = resp_frame.substr(kFrameHeaderBytes);
  ASSERT_EQ(resp_payload[12], 0);
  resp_payload[12] = 0x01;
  const auto resp_buf = Exact(resp_payload);
  auto resp_got = DecodeResponse(resp_buf.data(), resp_buf.size());
  ASSERT_FALSE(resp_got.ok());
  EXPECT_TRUE(resp_got.status().IsCorruption());
  EXPECT_EQ(resp_got.status().message(),
            "malformed frame: bad response flags");
}

// The encoder canonicalizes hostile trace input (overlong names clamp,
// empty names drop, span/annotation counts cap) so whatever it emits
// decodes, and whatever decodes re-encodes byte-identically.
TEST(NetProtocolTest, TraceSectionCanonicalizes) {
  Response resp = MakeOkResponse();
  resp.trace.spans.clear();
  resp.trace.annotations.clear();
  resp.trace.spans.push_back({std::string(100, 'n'), 5, 1});
  resp.trace.spans.push_back({"", 7, 2});  // dropped: empty name
  resp.trace.spans.push_back({"search", 9, 3});
  for (int i = 0; i < 40; ++i) {
    resp.trace.annotations.push_back({"a" + std::to_string(i),
                                      static_cast<uint64_t>(i)});
  }
  std::string frame;
  EncodeResponse(resp, &frame);
  const auto payload = Exact(frame, kFrameHeaderBytes);
  auto got = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const Response& d = got.ValueOrDie();
  ASSERT_TRUE(d.has_trace);
  ASSERT_EQ(d.trace.spans.size(), 2u);
  EXPECT_EQ(d.trace.spans[0].name, std::string(kMaxTraceName, 'n'));
  EXPECT_EQ(d.trace.spans[1].name, "search");
  EXPECT_EQ(d.trace.spans[1].calls, 3u);
  EXPECT_EQ(d.trace.annotations.size(), size_t{kMaxTraceAnnotations});
  std::string reframe;
  EncodeResponse(d, &reframe);
  EXPECT_EQ(reframe, frame);
}

TEST(NetProtocolTest, TraceSectionDamageRejects) {
  Response resp;
  resp.outcome = ResponseOutcome::kOk;
  resp.request_id = 1;
  resp.has_trace = true;
  resp.trace.trace_id = 42;
  resp.trace.total_ns = 1000;
  resp.trace.spans.push_back({"s", 10, 1});
  std::string frame;
  EncodeResponse(resp, &frame);
  const std::string payload = frame.substr(kFrameHeaderBytes);
  // Trace tail layout: ... num_spans(1) [len(1) "s"(1) total(8)
  // calls(4)] num_annotations(1) -- offsets measured from the end.
  const size_t num_ann_at = payload.size() - 1;
  const size_t name_len_at = payload.size() - 15;
  const size_t num_spans_at = payload.size() - 16;
  struct Patch {
    size_t offset;
    uint8_t value;
    const char* what;
  };
  const std::vector<Patch> patches = {
      {name_len_at, 0, "zero-length span name"},
      {name_len_at, kMaxTraceName + 1, "over-length span name"},
      {num_spans_at, kMaxTraceSpans + 1, "span count over cap"},
      {num_ann_at, kMaxTraceAnnotations + 1, "annotation count over cap"},
      {num_ann_at, 1, "annotation promised but absent"},
  };
  for (const Patch& p : patches) {
    std::string damaged = payload;
    damaged[p.offset] = static_cast<char>(p.value);
    const auto buf = Exact(damaged);
    EXPECT_FALSE(DecodeResponse(buf.data(), buf.size()).ok()) << p.what;
  }
}

TEST(NetProtocolTest, LimitSizedMessagesRoundTrip) {
  Request req = MakeSearchRequest();
  req.terms.clear();
  for (uint32_t i = 0; i < kMaxTerms; ++i) req.terms.push_back(i);
  std::string frame;
  EncodeRequest(req, &frame);
  auto payload = Exact(frame, kFrameHeaderBytes);
  auto got = DecodeRequest(payload.data(), payload.size());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie().terms.size(), kMaxTerms);

  Response resp;
  resp.request_id = 1;
  for (uint32_t i = 0; i < kMaxK; ++i) {
    resp.results.push_back({i, 1.0 - i * 1e-4, {0.0, 0.0}});
  }
  resp.message.assign(kMaxErrorMessage, 'm');
  frame.clear();
  EncodeResponse(resp, &frame);
  ASSERT_LE(frame.size() - kFrameHeaderBytes, kMaxFramePayload)
      << "kMaxFramePayload cannot hold a limit-sized response";
  payload = Exact(frame, kFrameHeaderBytes);
  auto rgot = DecodeResponse(payload.data(), payload.size());
  ASSERT_TRUE(rgot.ok()) << rgot.status().ToString();
  EXPECT_EQ(rgot.ValueOrDie().results.size(), kMaxK);
}

TEST(NetProtocolTest, NextFrameScansCorrectly) {
  std::string frame;
  EncodeRequest(MakeSearchRequest(), &frame);
  uint32_t payload_len = 0;
  // Every strict prefix of the frame needs more bytes.
  for (size_t len = 0; len < frame.size(); ++len) {
    const auto buf = Exact(frame, 0, len);
    EXPECT_EQ(NextFrame(len == 0 ? nullptr : buf.data(), len, &payload_len),
              FrameStatus::kNeedMore)
        << "prefix " << len;
  }
  // The whole frame (and the frame plus pipelined trailing bytes) is ready.
  auto buf = Exact(frame);
  EXPECT_EQ(NextFrame(buf.data(), buf.size(), &payload_len),
            FrameStatus::kReady);
  EXPECT_EQ(payload_len, frame.size() - kFrameHeaderBytes);

  // Hostile length prefixes: anything above kMaxFramePayload, including
  // ASCII "GET " read as a length, is kTooLarge -- which is what makes
  // HTTP sniffing on the shared port unambiguous.
  const uint32_t hostile[] = {kMaxFramePayload + 1, 0x20544547 /* "GET " */,
                              0x7fffffff, 0xffffffff};
  for (const uint32_t n : hostile) {
    uint8_t hdr[kFrameHeaderBytes];
    for (int i = 0; i < 4; ++i) hdr[i] = static_cast<uint8_t>(n >> i * 8);
    EXPECT_EQ(NextFrame(hdr, sizeof(hdr), &payload_len),
              FrameStatus::kTooLarge)
        << n;
  }
  // Corrupting the length prefix never crashes the scan and never
  // reports more payload than could exist.
  Rng rng(77);
  for (int iter = 0; iter < 256; ++iter) {
    auto damaged = Exact(frame);
    damaged[static_cast<size_t>(rng.UniformInt(0, 3))] ^=
        static_cast<uint8_t>(rng.UniformInt(1, 255));
    const FrameStatus fs =
        NextFrame(damaged.data(), damaged.size(), &payload_len);
    if (fs == FrameStatus::kReady) {
      EXPECT_LE(payload_len + kFrameHeaderBytes, damaged.size());
    }
  }
}

TEST(NetProtocolTest, ResultChecksumIsOrderSensitive) {
  std::vector<ScoredDoc> a = {{1, 0.9, {0, 0}}, {2, 0.8, {0, 0}}};
  std::vector<ScoredDoc> b = {{2, 0.8, {0, 0}}, {1, 0.9, {0, 0}}};
  EXPECT_NE(ResultChecksum(a), ResultChecksum(b));
  EXPECT_EQ(ResultChecksum(a), ResultChecksum(a));
  EXPECT_NE(ResultChecksum(a), ResultChecksum({}));
  std::vector<ScoredDoc> c = a;
  c[1].score += 1e-12;
  EXPECT_NE(ResultChecksum(a), ResultChecksum(c));
}

}  // namespace
}  // namespace net
}  // namespace i3
