#include "replica/wire.h"

#include <utility>

#include "persist/wire.h"

namespace qmatch::replica {

using persist::Decoder;
using persist::Encoder;

std::string EncodeSchemaRecPayload(const SchemaRec& rec) {
  Encoder enc;
  enc.PutString(rec.name);
  enc.PutString(rec.xsd_text);
  return enc.Take();
}

bool DecodeSchemaRecPayload(std::string_view payload, SchemaRec* out) {
  Decoder dec(payload);
  return dec.GetString(&out->name) && dec.GetString(&out->xsd_text) &&
         dec.remaining() == 0;
}

std::string EncodeSubscribeReq(const SubscribeReq& req) {
  Encoder enc;
  enc.PutU64(req.from_seq);
  enc.PutU64(req.epoch);
  return enc.Take();
}

bool DecodeSubscribeReq(std::string_view payload, SubscribeReq* out) {
  Decoder dec(payload);
  return dec.GetU64(&out->from_seq) && dec.GetU64(&out->epoch) &&
         dec.remaining() == 0;
}

std::string EncodeRecordsMsg(const RecordsMsg& msg) {
  Encoder enc;
  enc.PutU64(msg.head_seq);
  enc.PutU64(msg.epoch);
  enc.PutU32(static_cast<uint32_t>(msg.records.size()));
  for (const LogRecord& rec : msg.records) {
    enc.PutU64(rec.seq);
    enc.PutU32(rec.type);
    enc.PutString(rec.payload);
  }
  return enc.Take();
}

bool DecodeRecordsMsg(std::string_view payload, RecordsMsg* out) {
  Decoder dec(payload);
  uint32_t count = 0;
  if (!dec.GetU64(&out->head_seq) || !dec.GetU64(&out->epoch) ||
      !dec.GetU32(&count)) {
    return false;
  }
  // Each record costs at least seq + type + an empty payload's length
  // field — a hostile count cannot buy a giant reserve.
  if (static_cast<size_t>(count) * (8 + 4 + 4) > dec.remaining()) return false;
  out->records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LogRecord rec;
    std::string body;
    if (!dec.GetU64(&rec.seq) || !dec.GetU32(&rec.type) ||
        !dec.GetString(&body)) {
      return false;
    }
    rec.payload = std::move(body);
    out->records.push_back(std::move(rec));
  }
  return dec.remaining() == 0;
}

std::string EncodeSnapshotMsg(const SnapshotMsg& msg) {
  Encoder enc;
  enc.PutU64(msg.next_seq);
  enc.PutU64(msg.epoch);
  enc.PutU32(static_cast<uint32_t>(msg.schemas.size()));
  for (const SchemaRec& rec : msg.schemas) {
    enc.PutString(rec.name);
    enc.PutString(rec.xsd_text);
  }
  enc.PutU32(static_cast<uint32_t>(msg.cache_payloads.size()));
  for (const std::string& payload : msg.cache_payloads) {
    enc.PutString(payload);
  }
  return enc.Take();
}

bool DecodeSnapshotMsg(std::string_view payload, SnapshotMsg* out) {
  Decoder dec(payload);
  uint32_t count = 0;
  if (!dec.GetU64(&out->next_seq) || !dec.GetU64(&out->epoch) ||
      !dec.GetU32(&count)) {
    return false;
  }
  if (static_cast<size_t>(count) * (4 + 4) > dec.remaining()) return false;
  out->schemas.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SchemaRec rec;
    if (!dec.GetString(&rec.name) || !dec.GetString(&rec.xsd_text)) {
      return false;
    }
    out->schemas.push_back(std::move(rec));
  }
  if (!dec.GetU32(&count)) return false;
  if (static_cast<size_t>(count) * 4 > dec.remaining()) return false;
  out->cache_payloads.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string body;
    if (!dec.GetString(&body)) return false;
    out->cache_payloads.push_back(std::move(body));
  }
  return dec.remaining() == 0;
}

}  // namespace qmatch::replica
