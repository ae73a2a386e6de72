#ifndef QMATCH_PERSIST_WIRE_H_
#define QMATCH_PERSIST_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace qmatch::persist {

/// Little-endian binary encoder for the on-disk snapshot/journal payloads.
/// Fixed-width integers and length-prefixed strings only — no varints, no
/// padding — so every field has exactly one byte representation and the
/// record CRCs are stable across platforms (we target little-endian;
/// the encoding is explicit-shift so big-endian hosts would still agree).
class Encoder {
 public:
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  /// Doubles are stored as their IEEE-754 bit pattern, so a recovered QoM
  /// is bit-identical to the computed one — the warm-start acceptance
  /// criterion, not an approximation.
  void PutDouble(double value);
  /// u32 byte length + raw bytes (no terminator).
  void PutString(std::string_view value);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked reader over untrusted bytes. Every accessor returns
/// false instead of reading past the end — the fuzz contract: hostile
/// lengths and truncations can never over-read. A Decoder never allocates
/// from a length field without the bytes actually being present.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  bool GetU32(uint32_t* out);
  bool GetU64(uint64_t* out);
  bool GetDouble(double* out);
  bool GetString(std::string* out);
  /// Reads `size` raw bytes as a view into the underlying buffer.
  bool GetBytes(size_t size, std::string_view* out);

  size_t remaining() const { return bytes_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field-list codec. Every wire and disk message declares its layout once,
// next to its struct, as a field list found by argument-dependent lookup:
//
//   template <class IO>
//   void Fields(IO& io, MatchPairReq& m) {
//     io(m.source, m.target, m.deadline_ms);
//   }
//
// Encode, bounds-checked Decode (trailing bytes rejected) and each vector's
// count-before-reserve bound all derive from that list. Field bytes:
//
//   uint32_t / uint64_t   u32 / u64
//   double                its IEEE-754 bit pattern as u64
//   uint8_t               a flag: u32 on the wire, decoded to 0 or 1
//   std::string           u32 length + raw bytes
//   std::vector<E>        u32 count + the elements
//   a struct              its own Fields, inline, no framing
//
// The visitors are resolved at compile time, so a field list compiles to
// the Put*/Get* sequence a hand-written pair would. A list may branch on a
// field it has already visited (decode fills fields in order); a vector
// element's list must not branch.
// ---------------------------------------------------------------------------

template <class T>
inline constexpr bool kIsVector = false;
template <class E>
inline constexpr bool kIsVector<std::vector<E>> = true;

class FieldEncoder {
 public:
  template <class... Ts>
  void operator()(const Ts&... fields) {
    (Put(fields), ...);
  }
  std::string Take() { return enc_.Take(); }

 private:
  template <class T>
  void Put(const T& field) {
    if constexpr (std::is_same_v<T, uint32_t> || std::is_same_v<T, uint8_t>) {
      enc_.PutU32(field);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      enc_.PutU64(field);
    } else if constexpr (std::is_same_v<T, double>) {
      enc_.PutDouble(field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      enc_.PutString(field);
    } else if constexpr (kIsVector<T>) {
      enc_.PutU32(static_cast<uint32_t>(field.size()));
      for (const auto& element : field) Put(element);
    } else {
      // A field list takes its message mutably so one list serves decode
      // too; the encoder only reads through it.
      Fields(*this, const_cast<T&>(field));
    }
  }

  Encoder enc_;
};

template <class T>
std::string Encode(const T& message) {
  FieldEncoder enc;
  enc(message);
  return enc.Take();
}

/// The fewest bytes a T encodes to: a default T has empty strings and
/// vectors, and every other field is fixed-width.
template <class T>
size_t MinEncodedSize() {
  static const size_t bytes = Encode(T{}).size();
  return bytes;
}

/// Stops at the first field that does not fit: later fields are left
/// untouched and done() reports the failure.
class FieldDecoder {
 public:
  explicit FieldDecoder(std::string_view bytes) : dec_(bytes) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (Get(fields), ...);
  }
  /// True when every field decoded and no byte is left over.
  bool done() const { return ok_ && dec_.remaining() == 0; }

 private:
  template <class T>
  void Get(T& field) {
    if (!ok_) return;
    if constexpr (std::is_same_v<T, uint8_t>) {
      uint32_t flag = 0;
      ok_ = dec_.GetU32(&flag);
      field = static_cast<uint8_t>(flag != 0);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      ok_ = dec_.GetU32(&field);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      ok_ = dec_.GetU64(&field);
    } else if constexpr (std::is_same_v<T, double>) {
      ok_ = dec_.GetDouble(&field);
    } else if constexpr (std::is_same_v<T, std::string>) {
      ok_ = dec_.GetString(&field);
    } else if constexpr (kIsVector<T>) {
      uint32_t count = 0;
      // Count before reserve: a count the remaining bytes cannot hold even
      // at the elements' minimum size is hostile, and is rejected before
      // the vector allocates anything.
      ok_ = dec_.GetU32(&count) &&
            static_cast<uint64_t>(count) *
                    MinEncodedSize<typename T::value_type>() <=
                dec_.remaining();
      if (!ok_) return;
      field.clear();
      field.reserve(count);
      for (uint32_t i = 0; i < count && ok_; ++i) Get(field.emplace_back());
    } else {
      Fields(*this, field);
    }
  }

  Decoder dec_;
  bool ok_ = true;
};

/// False for truncated, over-long or hostile bytes; `out` may then hold a
/// partly decoded message.
template <class T>
bool Decode(std::string_view bytes, T* out) {
  FieldDecoder dec(bytes);
  dec(*out);
  return dec.done();
}

// ---------------------------------------------------------------------------
// Record framing, shared by journal/snapshot records and qmatchd frames:
//
//   [4]  u32 type
//   [4]  u32 payload length (checked against the caller's cap BEFORE any
//        allocation)
//   [n]  payload
//   [4]  CRC32 of type + length + payload
// ---------------------------------------------------------------------------

std::string EncodeFrame(uint32_t type, std::string_view payload);

/// Outcome of one incremental parse step over a buffer of frames.
enum class FrameDecodeResult {
  /// The buffer holds a prefix of a valid frame; read more bytes.
  kNeedMore,
  /// One whole frame was parsed; *consumed bytes are done.
  kFrame,
  /// The length field exceeds the cap — hostile framing, detected before
  /// any allocation. The stream cannot be resynchronised.
  kBadLength,
  /// The frame was complete but its CRC32 did not match — corruption or a
  /// non-protocol peer. The stream cannot be trusted past this point.
  kBadCrc,
};

std::string_view FrameDecodeResultName(FrameDecodeResult result);

struct FrameView {
  uint32_t type = 0;
  std::string_view payload;  ///< points into the parsed buffer
};

/// Parses the first frame of `buffer`, whose payload may be at most
/// `max_payload` bytes. On kFrame, `*out` views the frame and `*consumed`
/// holds its size; on every other result `*consumed` is 0.
FrameDecodeResult ParseFrame(std::string_view buffer, uint32_t max_payload,
                             FrameView* out, size_t* consumed);

}  // namespace qmatch::persist

#endif  // QMATCH_PERSIST_WIRE_H_
