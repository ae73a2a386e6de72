#include "persist/wire.h"

#include <bit>

#include "persist/crc32.h"

namespace qmatch::persist {

void Encoder::PutU32(uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) {
    bytes_.push_back(static_cast<char>((value >> (byte * 8)) & 0xffu));
  }
}

void Encoder::PutU64(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    bytes_.push_back(static_cast<char>((value >> (byte * 8)) & 0xffu));
  }
}

void Encoder::PutDouble(double value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void Encoder::PutString(std::string_view value) {
  PutU32(static_cast<uint32_t>(value.size()));
  bytes_.append(value);
}

bool Decoder::GetU32(uint32_t* out) {
  if (remaining() < 4) return false;
  uint32_t value = 0;
  for (int byte = 0; byte < 4; ++byte) {
    value |= static_cast<uint32_t>(
                 static_cast<unsigned char>(bytes_[pos_ + static_cast<size_t>(
                                                              byte)]))
             << (byte * 8);
  }
  pos_ += 4;
  *out = value;
  return true;
}

bool Decoder::GetU64(uint64_t* out) {
  if (remaining() < 8) return false;
  uint64_t value = 0;
  for (int byte = 0; byte < 8; ++byte) {
    value |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes_[pos_ + static_cast<size_t>(
                                                              byte)]))
             << (byte * 8);
  }
  pos_ += 8;
  *out = value;
  return true;
}

bool Decoder::GetDouble(double* out) {
  uint64_t bits = 0;
  if (!GetU64(&bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

bool Decoder::GetString(std::string* out) {
  uint32_t size = 0;
  if (!GetU32(&size)) return false;
  if (remaining() < size) return false;
  out->assign(bytes_.substr(pos_, size));
  pos_ += size;
  return true;
}

bool Decoder::GetBytes(size_t size, std::string_view* out) {
  if (remaining() < size) return false;
  *out = bytes_.substr(pos_, size);
  pos_ += size;
  return true;
}

std::string EncodeFrame(uint32_t type, std::string_view payload) {
  Encoder enc;
  enc.PutU32(type);
  enc.PutU32(static_cast<uint32_t>(payload.size()));
  std::string bytes = enc.Take();
  bytes.append(payload);
  Encoder trailer;
  trailer.PutU32(Crc32(bytes));
  bytes.append(trailer.bytes());
  return bytes;
}

std::string_view FrameDecodeResultName(FrameDecodeResult result) {
  switch (result) {
    case FrameDecodeResult::kNeedMore:
      return "need-more";
    case FrameDecodeResult::kFrame:
      return "frame";
    case FrameDecodeResult::kBadLength:
      return "bad-length";
    case FrameDecodeResult::kBadCrc:
      return "bad-crc";
  }
  return "unknown";
}

FrameDecodeResult ParseFrame(std::string_view buffer, uint32_t max_payload,
                             FrameView* out, size_t* consumed) {
  *consumed = 0;
  Decoder dec(buffer);
  uint32_t type = 0;
  uint32_t length = 0;
  if (!dec.GetU32(&type) || !dec.GetU32(&length)) {
    return FrameDecodeResult::kNeedMore;
  }
  // The hostile-length pre-check: reject before any buffer is asked to
  // hold `length` bytes.
  if (length > max_payload) return FrameDecodeResult::kBadLength;
  std::string_view payload;
  uint32_t crc = 0;
  if (!dec.GetBytes(length, &payload) || !dec.GetU32(&crc)) {
    return FrameDecodeResult::kNeedMore;
  }
  if (crc != Crc32(buffer.substr(0, 8 + payload.size()))) {
    return FrameDecodeResult::kBadCrc;
  }
  out->type = type;
  out->payload = payload;
  *consumed = dec.position();
  return FrameDecodeResult::kFrame;
}

}  // namespace qmatch::persist
