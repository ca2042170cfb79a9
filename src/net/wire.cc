#include "net/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "util/crc32.h"

namespace xtc {
namespace net {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

std::string EncodeFrame(uint8_t type, uint32_t request_id,
                        std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderSize + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.push_back(static_cast<char>(kWireVersion));
  frame.push_back(static_cast<char>(type));
  frame.push_back('\0');  // reserved
  frame.push_back('\0');
  PutU32(&frame, request_id);
  PutU32(&frame, Crc32(payload));
  PutU32(&frame, Crc32(frame.data(), 16));
  frame.append(payload);
  return frame;
}

Status DecodeHeader(std::string_view bytes, FrameHeader* out) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("short frame header");
  }
  const uint32_t header_crc = ReadU32(bytes.data() + 16);
  if (Crc32(bytes.data(), 16) != header_crc) {
    return Status::DataLoss("frame header CRC mismatch");
  }
  out->payload_len = ReadU32(bytes.data());
  out->version = static_cast<uint8_t>(bytes[4]);
  out->type = static_cast<uint8_t>(bytes[5]);
  const uint16_t reserved = static_cast<uint16_t>(
      static_cast<uint8_t>(bytes[6]) | (static_cast<uint8_t>(bytes[7]) << 8));
  out->request_id = ReadU32(bytes.data() + 8);
  out->payload_crc = ReadU32(bytes.data() + 12);
  if (out->version != kWireVersion) {
    return Status::NotSupported("unsupported wire version");
  }
  if (reserved != 0) {
    return Status::InvalidArgument("nonzero reserved header field");
  }
  const uint8_t base_type = out->type & ~kResponseBit;
  if (base_type < kMinMsgType || base_type > kMaxMsgType) {
    return Status::InvalidArgument("unknown message type");
  }
  if (out->payload_len > kMaxPayload) {
    return Status::InvalidArgument("declared payload exceeds cap");
  }
  return Status::OK();
}

Status CheckPayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_len) {
    return Status::InvalidArgument("payload length mismatch");
  }
  if (Crc32(payload) != header.payload_crc) {
    return Status::DataLoss("frame payload CRC mismatch");
  }
  return Status::OK();
}

void WireWriter::U32(uint32_t v) { PutU32(&out_, v); }

void WireWriter::U64(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_.append(buf, 8);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::Spec(const SubtreeSpec& spec) {
  Str(spec.name);
  U32(static_cast<uint32_t>(spec.attributes.size()));
  for (const auto& [k, v] : spec.attributes) {
    Str(k);
    Str(v);
  }
  Str(spec.text);
  U32(static_cast<uint32_t>(spec.children.size()));
  for (const SubtreeSpec& child : spec.children) Spec(child);
}

bool WireReader::Take(size_t n, std::string_view* out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) {
  std::string_view b;
  if (!Take(1, &b)) return false;
  *v = static_cast<uint8_t>(b[0]);
  return true;
}

bool WireReader::U32(uint32_t* v) {
  std::string_view b;
  if (!Take(4, &b)) return false;
  std::memcpy(v, b.data(), 4);
  return true;
}

bool WireReader::U64(uint64_t* v) {
  std::string_view b;
  if (!Take(8, &b)) return false;
  std::memcpy(v, b.data(), 8);
  return true;
}

bool WireReader::I64(int64_t* v) {
  uint64_t u;
  if (!U64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool WireReader::Str(std::string* v) {
  uint32_t len;
  if (!U32(&len)) return false;
  // A declared length beyond the remaining payload is malformed, and a
  // single string can never exceed the frame cap — reject before any
  // allocation sized by attacker-controlled bytes.
  if (len > kMaxPayload) {
    ok_ = false;
    return false;
  }
  std::string_view b;
  if (!Take(len, &b)) return false;
  v->assign(b);
  return true;
}

bool WireReader::SplidVal(Splid* v) {
  std::string bytes;
  if (!Str(&bytes)) return false;
  std::optional<Splid> decoded = Splid::Decode(bytes);
  if (!decoded.has_value()) {
    ok_ = false;
    return false;
  }
  *v = *decoded;
  return true;
}

bool WireReader::SpecBounded(SubtreeSpec* v, int depth) {
  if (depth > kMaxSpecDepth) {
    ok_ = false;
    return false;
  }
  if (!Str(&v->name)) return false;
  uint32_t nattrs;
  if (!U32(&nattrs)) return false;
  // Each attribute costs >= 8 payload bytes; a count that cannot fit in
  // the remaining payload is garbage.
  if (nattrs > kMaxPayload / 8) {
    ok_ = false;
    return false;
  }
  v->attributes.clear();
  for (uint32_t i = 0; i < nattrs; ++i) {
    std::string key, value;
    if (!Str(&key) || !Str(&value)) return false;
    v->attributes.emplace_back(std::move(key), std::move(value));
  }
  if (!Str(&v->text)) return false;
  uint32_t nchildren;
  if (!U32(&nchildren)) return false;
  if (nchildren > kMaxPayload / 8) {
    ok_ = false;
    return false;
  }
  v->children.clear();
  for (uint32_t i = 0; i < nchildren; ++i) {
    SubtreeSpec child;
    if (!SpecBounded(&child, depth + 1)) return false;
    v->children.push_back(std::move(child));
  }
  return true;
}

void PutNode(WireWriter* w, const WireNode& n) {
  w->Str(n.splid);
  w->U8(n.kind);
  w->Str(n.name);
}

bool GetNode(WireReader* r, WireNode* n) {
  return r->Str(&n->splid) && r->U8(&n->kind) && r->Str(&n->name);
}

void PutStatus(WireWriter* w, const Status& st) {
  w->U32(static_cast<uint32_t>(st.code()));
  w->Str(st.message());
}

bool GetStatus(WireReader* r, Status* st) {
  uint32_t code;
  std::string message;
  if (!r->U32(&code) || !r->Str(&message)) return false;
  // An unknown status code is malformed.
  if (code > static_cast<uint32_t>(StatusCode::kUnknown)) return false;
  *st = Status::FromCode(static_cast<StatusCode>(code), message);
  return true;
}

void PutMetrics(WireWriter* w, const MetricSet& metrics) {
  w->U32(static_cast<uint32_t>(metrics.size()));
  for (const Metric& m : metrics) {
    w->Str(m.name);
    w->Str(m.unit);
    w->U64(std::bit_cast<uint64_t>(m.value));
  }
}

bool GetMetrics(WireReader* r, MetricSet* metrics) {
  constexpr size_t kMinEntryBytes = 4 + 4 + 8;  // two empty strings + value
  uint32_t n;
  if (!r->U32(&n) || n > r->remaining() / kMinEntryBytes) return false;
  metrics->clear();
  metrics->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Metric m;
    uint64_t bits;
    if (!r->Str(&m.name) || !r->Str(&m.unit) || !r->U64(&bits)) return false;
    m.value = std::bit_cast<double>(bits);
    metrics->push_back(std::move(m));
  }
  return true;
}

}  // namespace net
}  // namespace xtc
