// Wire-framing tests (DESIGN.md §8): frame round trips for every message
// type, payload-primitive round trips, and the malformed battery —
// truncated frames, oversized lengths, bad CRCs, garbage, trailing bytes,
// recursion bombs. Everything here is pure serialization; the same error
// paths are exercised over real sockets in net_server_test.cc.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "util/crc32.h"

namespace xtc {
namespace net {
namespace {

std::string PayloadFor(MsgType type) {
  // A representative payload per type; content only needs to survive the
  // frame round trip, not decode as the real request.
  WireWriter w;
  w.U8(static_cast<uint8_t>(type));
  w.Str("payload");
  return w.str();
}

TEST(WireFrameTest, RoundTripEveryMessageType) {
  for (uint8_t t = kMinMsgType; t <= kMaxMsgType; ++t) {
    const std::string payload = PayloadFor(static_cast<MsgType>(t));
    const uint32_t request_id = 1000u + t;
    const std::string frame = EncodeFrame(t, request_id, payload);
    ASSERT_EQ(frame.size(), kHeaderSize + payload.size());

    FrameHeader header;
    ASSERT_TRUE(DecodeHeader(frame, &header).ok()) << int{t};
    EXPECT_EQ(header.type, t);
    EXPECT_EQ(header.request_id, request_id);
    EXPECT_EQ(header.payload_len, payload.size());
    EXPECT_TRUE(
        CheckPayload(header, std::string_view(frame).substr(kHeaderSize))
            .ok());

    // The response frame (type | kResponseBit) must also round-trip.
    const std::string resp = EncodeFrame(t | kResponseBit, request_id, "");
    FrameHeader rh;
    ASSERT_TRUE(DecodeHeader(resp, &rh).ok()) << int{t};
    EXPECT_EQ(rh.type, t | kResponseBit);
  }
}

TEST(WireFrameTest, EmptyAndMaxPayloads) {
  FrameHeader header;
  EXPECT_TRUE(DecodeHeader(EncodeFrame(1, 0, ""), &header).ok());
  EXPECT_EQ(header.payload_len, 0u);

  const std::string big(kMaxPayload, 'x');
  const std::string frame = EncodeFrame(2, 7, big);
  ASSERT_TRUE(DecodeHeader(frame, &header).ok());
  EXPECT_EQ(header.payload_len, kMaxPayload);
  EXPECT_TRUE(
      CheckPayload(header, std::string_view(frame).substr(kHeaderSize)).ok());
}

TEST(WireFrameTest, TruncatedHeaderRejected) {
  const std::string frame = EncodeFrame(1, 1, "abc");
  for (size_t n = 0; n < kHeaderSize; ++n) {
    FrameHeader header;
    EXPECT_FALSE(DecodeHeader(std::string_view(frame).substr(0, n), &header)
                     .ok())
        << n;
  }
}

TEST(WireFrameTest, EveryCorruptedHeaderByteDetected) {
  const std::string good = EncodeFrame(5, 42, "splid-bytes");
  for (size_t i = 0; i < kHeaderSize; ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    FrameHeader header;
    // A flip in bytes [0,16) breaks the header CRC; a flip in the CRC
    // field itself breaks the match too. Either way: reject.
    EXPECT_FALSE(DecodeHeader(bad, &header).ok()) << "byte " << i;
  }
}

// Patches one header field then recomputes the header CRC honestly, so
// the semantic validation under test fires rather than the CRC check.
std::string TamperHeader(std::string frame, size_t offset, const void* value,
                         size_t n) {
  std::memcpy(frame.data() + offset, value, n);
  const uint32_t crc = Crc32(frame.data(), 16);
  std::memcpy(frame.data() + 16, &crc, sizeof(crc));
  return frame;
}

TEST(WireFrameTest, WrongVersionRejected) {
  const uint8_t version = kWireVersion + 1;
  const std::string frame =
      TamperHeader(EncodeFrame(1, 1, ""), 4, &version, 1);
  FrameHeader header;
  EXPECT_FALSE(DecodeHeader(frame, &header).ok());
}

TEST(WireFrameTest, NonzeroReservedRejected) {
  const uint16_t reserved = 1;
  const std::string frame =
      TamperHeader(EncodeFrame(1, 1, ""), 6, &reserved, 2);
  FrameHeader header;
  EXPECT_FALSE(DecodeHeader(frame, &header).ok());
}

TEST(WireFrameTest, InvalidTypeRejected) {
  for (uint8_t type : {uint8_t{0}, uint8_t{kMaxMsgType + 1}, uint8_t{0x7f}}) {
    const std::string frame =
        TamperHeader(EncodeFrame(1, 1, ""), 5, &type, 1);
    FrameHeader header;
    EXPECT_FALSE(DecodeHeader(frame, &header).ok()) << int{type};
  }
}

TEST(WireFrameTest, OversizedLengthRejected) {
  // An honest CRC over a payload_len past the cap: the cap itself must
  // fire, so a hostile length can never drive a 4 GiB allocation.
  const uint32_t len = kMaxPayload + 1;
  const std::string frame =
      TamperHeader(EncodeFrame(1, 1, ""), 0, &len, sizeof(len));
  FrameHeader header;
  EXPECT_FALSE(DecodeHeader(frame, &header).ok());
}

TEST(WireFrameTest, GarbageNeverDecodes) {
  // Deterministic pseudo-garbage: none of these 20-byte strings should
  // ever pass the header CRC (probability ~2^-32 each if they could).
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk(kHeaderSize, '\0');
    for (char& c : junk) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    FrameHeader header;
    EXPECT_FALSE(DecodeHeader(junk, &header).ok());
  }
}

TEST(WireFrameTest, PayloadCorruptionDetected) {
  const std::string payload = "the payload under test";
  const std::string frame = EncodeFrame(3, 9, payload);
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame, &header).ok());

  // Length mismatch (truncated / padded payload).
  EXPECT_FALSE(CheckPayload(header, payload.substr(1)).ok());
  EXPECT_FALSE(CheckPayload(header, payload + "x").ok());

  // Every single-byte corruption is caught by the payload CRC.
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string bad = payload;
    bad[i] = static_cast<char>(bad[i] ^ 1);
    EXPECT_FALSE(CheckPayload(header, bad).ok()) << "byte " << i;
  }
  EXPECT_TRUE(CheckPayload(header, payload).ok());
}

// --- Payload primitives ---------------------------------------------------

TEST(WireCursorTest, PrimitiveRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.Str("");
  w.Str(std::string("emb\0edded", 9));

  WireReader r(w.str());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  std::string s1, s2;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I64(&i64));
  EXPECT_TRUE(r.Str(&s1));
  EXPECT_TRUE(r.Str(&s2));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(s1, "");
  EXPECT_EQ(s2, std::string("emb\0edded", 9));
}

TEST(WireCursorTest, SplidRoundTrip) {
  const Splid original = *Splid::FromDivisions({1, 25, 3, 7});
  WireWriter w;
  w.SplidVal(original);
  WireReader r(w.str());
  Splid decoded;
  ASSERT_TRUE(r.SplidVal(&decoded));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded, original);
}

TEST(WireCursorTest, StickyFailureOnTruncation) {
  WireWriter w;
  w.U32(7);
  w.Str("hello");
  const std::string& full = w.str();

  // Every proper prefix must fail cleanly somewhere and stay failed.
  for (size_t n = 0; n < full.size(); ++n) {
    WireReader r(std::string_view(full).substr(0, n));
    uint32_t v = 0;
    std::string s;
    const bool got_u32 = r.U32(&v);
    const bool got_str = r.Str(&s);
    EXPECT_FALSE(got_u32 && got_str) << n;
    EXPECT_FALSE(r.ok() && r.AtEnd()) << n;
    // Sticky: once failed, further reads fail too.
    if (!r.ok()) {
      uint8_t b = 0;
      EXPECT_FALSE(r.U8(&b)) << n;
    }
  }
}

TEST(WireCursorTest, LyingStringLengthRejected) {
  // A string whose declared length exceeds the remaining bytes must fail
  // without allocating the declared amount.
  WireWriter w;
  w.U32(0xffffffffu);  // length prefix of a string that never follows
  WireReader r(w.str());
  std::string s;
  EXPECT_FALSE(r.Str(&s));
  EXPECT_FALSE(r.ok());
}

TEST(WireCursorTest, TrailingGarbageDetectedByAtEnd) {
  WireWriter w;
  w.U8(1);
  w.U8(99);  // trailing byte the decoder does not expect
  WireReader r(w.str());
  uint8_t v = 0;
  EXPECT_TRUE(r.U8(&v));
  EXPECT_FALSE(r.AtEnd());
}

TEST(WireCursorTest, SpecRoundTripAndDepthBomb) {
  // Round trip a small nested spec.
  SubtreeSpec child;
  child.name = "chapter";
  child.attributes = {{"id", "c1"}};
  SubtreeSpec root;
  root.name = "book";
  root.text = "content";
  root.children.push_back(child);

  WireWriter w;
  w.Spec(root);
  WireReader r(w.str());
  SubtreeSpec decoded;
  ASSERT_TRUE(r.Spec(&decoded));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.name, "book");
  ASSERT_EQ(decoded.children.size(), 1u);
  EXPECT_EQ(decoded.children[0].name, "chapter");

  // A spec nested past kMaxSpecDepth must be rejected, not recursed into.
  SubtreeSpec bomb;
  bomb.name = "n";
  for (int i = 0; i < kMaxSpecDepth + 2; ++i) {
    SubtreeSpec outer;
    outer.name = "n";
    outer.children.push_back(bomb);
    bomb = outer;
  }
  WireWriter wb;
  wb.Spec(bomb);
  WireReader rb(wb.str());
  SubtreeSpec out;
  EXPECT_FALSE(rb.Spec(&out));
}

// --- Composite encodings --------------------------------------------------

TEST(WireCompositeTest, NodeRoundTrip) {
  WireNode original;
  original.splid = Splid::FromDivisions({1, 3, 5})->Encode();
  original.kind = 2;
  original.name = "author";
  WireWriter w;
  PutNode(&w, original);
  WireReader r(w.str());
  WireNode decoded;
  ASSERT_TRUE(GetNode(&r, &decoded));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.splid, original.splid);
  EXPECT_EQ(decoded.kind, original.kind);
  EXPECT_EQ(decoded.name, original.name);
}

TEST(WireCompositeTest, StatusRoundTripAllCodes) {
  const Status cases[] = {Status::OK(),
                          Status::Deadlock("message text"),
                          Status::LockTimeout("message text"),
                          Status::TxAborted("message text"),
                          Status::NotFound("message text"),
                          Status::InvalidArgument("message text"),
                          Status::Internal("message text"),
                          Status::NotSupported("message text"),
                          Status::ResourceExhausted("message text"),
                          Status::IoError("message text"),
                          Status::DataLoss("message text"),
                          Status::WouldBlock("message text"),
                          Status::Cancelled("message text"),
                          Status::Unknown("message text")};
  for (const Status& original : cases) {
    WireWriter w;
    PutStatus(&w, original);
    WireReader r(w.str());
    Status decoded;
    ASSERT_TRUE(GetStatus(&r, &decoded))
        << static_cast<int>(original.code());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded.code(), original.code());
    if (!original.ok()) EXPECT_EQ(decoded.message(), "message text");
  }
}

TEST(WireCompositeTest, UnknownStatusCodeRejected) {
  WireWriter w;
  w.U32(9999);
  w.Str("whatever");
  WireReader r(w.str());
  Status decoded;
  EXPECT_FALSE(GetStatus(&r, &decoded));
}

TEST(WireCompositeTest, StatsRoundTrip) {
  const MetricSet original = {
      {"tx.TAqueryBook.committed", "count", 104},
      {"tx.TAqueryBook.p99_ms", "ms", 9.125},
      {"net.server.active_sessions", "count", 72},
      {"", "", -0.5},  // empty strings and negative values survive too
  };
  WireWriter w;
  PutMetrics(&w, original);
  WireReader r(w.str());
  MetricSet decoded;
  ASSERT_TRUE(GetMetrics(&r, &decoded));
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].name, original[i].name);
    EXPECT_EQ(decoded[i].unit, original[i].unit);
    EXPECT_EQ(decoded[i].value, original[i].value);
  }
}

TEST(WireCompositeTest, StatsLyingRowCountRejected) {
  // A count promising more entries than the remaining payload can hold
  // (each is at least 16 bytes) must fail before any allocation.
  WireWriter huge;
  huge.U32(0xfffffff0u);
  WireReader r(huge.str());
  MetricSet decoded;
  EXPECT_FALSE(GetMetrics(&r, &decoded));

  // Off by one: two entries promised, one present.
  WireWriter w;
  w.U32(2);
  w.Str("a");
  w.Str("count");
  w.U64(0);
  WireReader short_reader(w.str());
  EXPECT_FALSE(GetMetrics(&short_reader, &decoded));
}

}  // namespace
}  // namespace net
}  // namespace xtc
