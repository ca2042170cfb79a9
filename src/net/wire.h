// Length-prefixed binary wire protocol of the socket front-end
// (DESIGN.md §8). Every message is one frame:
//
//   offset  size  field
//        0     4  payload_len   (u32 LE; payload bytes after the header)
//        4     1  version       (kWireVersion)
//        5     1  type          (MsgType; responses set kResponseBit)
//        6     2  reserved      (must be 0)
//        8     4  request_id    (echoed verbatim in the response)
//       12     4  payload_crc   (CRC-32 of the payload bytes)
//       16     4  header_crc    (CRC-32 of header bytes [0,16))
//
// The header CRC makes desynchronization detectable immediately: a
// receiver that reads 20 bytes whose trailing CRC does not match is not
// looking at a frame boundary and must drop the connection — there is no
// way to resynchronize a corrupted length-prefixed stream. The payload
// CRC catches corruption within a well-framed message. payload_len is
// capped (kMaxPayload) so a malicious or garbage length cannot drive
// allocation.
//
// Payload primitives (all little-endian): u8/u16/u32/u64 raw; strings and
// SPLIDs as u32 length + bytes; optional values as u8 present-flag +
// value; vectors as u32 count + elements. Responses always begin with
// u32 status_code + string message; result fields follow only on OK.
//
// Everything here is pure serialization — no sockets, no threads — so
// the frame battery in tests/net_wire_test.cc can drive every decode
// path without a server.

#ifndef XTC_NET_WIRE_H_
#define XTC_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "node/document.h"
#include "node/node.h"
#include "splid/splid.h"
#include "tamix/metrics.h"
#include "util/status.h"

namespace xtc {
namespace net {

inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kHeaderSize = 20;
inline constexpr uint32_t kMaxPayload = 1u << 20;  // 1 MiB
/// Set on the type byte of every response frame.
inline constexpr uint8_t kResponseBit = 0x80;
/// SubtreeSpec recursion bound for decode (the workload nests 1 level;
/// 16 stops a hostile payload from exhausting the stack).
inline constexpr int kMaxSpecDepth = 16;

// Session continuity (DESIGN.md §8): the kHello response carries a
// server-issued session token (u64 id + u64 secret) and the lease
// duration in ms. A client that reconnects sends kResume {u64 id,
// u64 secret} right after its new Hello; on success the server binds the
// old session's state — open transaction and recorded request outcomes —
// to the new connection (response: u8 tx_open). kNotFound means the
// lease expired (or the token is unknown) and the old state is gone.
enum class MsgType : uint8_t {
  kHello = 1,
  kBegin = 2,
  kCommit = 3,
  kAbort = 4,
  kGetElementById = 5,
  kGetAttributes = 6,
  kGetFirstChild = 7,
  kGetLastChild = 8,
  kGetNextSibling = 9,
  kGetChildNodes = 10,
  kGetTextContent = 11,
  kDeclareUpdateIntent = 12,
  kUpdateText = 13,
  kSetAttribute = 14,
  kAppendSubtree = 15,
  kDeleteSubtree = 16,
  kRename = 17,
  kStats = 18,
  kWorkloadInfo = 19,
  kResume = 20,
};
/// Smallest/largest valid request type (validation on receive).
inline constexpr uint8_t kMinMsgType = 1;
inline constexpr uint8_t kMaxMsgType = 20;

struct FrameHeader {
  uint32_t payload_len = 0;
  uint8_t version = kWireVersion;
  uint8_t type = 0;  // MsgType, possibly | kResponseBit
  uint32_t request_id = 0;
  uint32_t payload_crc = 0;
};

/// Serializes header + payload into one contiguous frame.
std::string EncodeFrame(uint8_t type, uint32_t request_id,
                        std::string_view payload);

/// Validates the 20 header bytes (header CRC, version, reserved, type
/// range, payload cap). On success fills *out; the caller then reads
/// payload_len payload bytes and checks them with CheckPayload.
Status DecodeHeader(std::string_view bytes, FrameHeader* out);
Status CheckPayload(const FrameHeader& header, std::string_view payload);

// --- Payload cursor ------------------------------------------------------

/// Append-only payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s);
  void SplidVal(const Splid& s) { Str(s.Encode()); }
  void Spec(const SubtreeSpec& spec);

  std::string& str() { return out_; }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked payload reader. Every getter returns false once the
/// cursor has failed; callers check ok() (or the last getter) at the end
/// instead of after every field.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I64(int64_t* v);
  bool Str(std::string* v);
  bool SplidVal(Splid* v);
  bool Spec(SubtreeSpec* v) { return SpecBounded(v, 0); }

  bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage check).
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  /// Cursor position (bytes consumed so far).
  size_t pos() const { return pos_; }
  /// Bytes left after the cursor (bounds a declared element count).
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool SpecBounded(SubtreeSpec* v, int depth);
  bool Take(size_t n, std::string_view* out);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Shared composite encodings ------------------------------------------

/// One node as shipped to clients: label + kind + resolved name.
struct WireNode {
  std::string splid;  // encoded SPLID bytes
  uint8_t kind = 0;   // NodeKind
  std::string name;
};

void PutNode(WireWriter* w, const WireNode& n);
bool GetNode(WireReader* r, WireNode* n);

/// Response preamble: status code + message. DecodeStatus returns the
/// decoded status (which may be OK); decode failures surface as a
/// distinct kDataLoss so callers can tell "server said deadlock" from
/// "response bytes are broken".
void PutStatus(WireWriter* w, const Status& st);
bool GetStatus(WireReader* r, Status* st);

/// kStats response body: u32 count, then per metric Str name, Str unit
/// and the value as u64 IEEE-754 bits. The decoder rejects a count the
/// remaining payload cannot hold (each entry is at least 16 bytes).
void PutMetrics(WireWriter* w, const MetricSet& metrics);
bool GetMetrics(WireReader* r, MetricSet* metrics);

}  // namespace net
}  // namespace xtc

#endif  // XTC_NET_WIRE_H_
