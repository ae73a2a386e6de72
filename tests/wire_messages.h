// The typed list of every wire and disk message, and the codec checks the
// golden, property and fuzz tests share over it: a seeded random value
// built by walking each message's own Fields list, and the
// decode -> encode fixed point every accepted payload must reach.

#ifndef QMATCH_TESTS_WIRE_MESSAGES_H_
#define QMATCH_TESTS_WIRE_MESSAGES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/random.h"
#include "net/frame.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "replica/wire.h"

namespace qmatch::test {

template <class... Ts>
struct TypeList {
  using Gtest = ::testing::Types<Ts...>;
  /// Calls f.template operator()<T>() for every listed type, in order.
  template <class F>
  static void ForEach(F&& f) {
    (f.template operator()<Ts>(), ...);
  }
};

/// Every message that has a payload: the 11 qmatchd payloads, the 4
/// replication messages and the journal's cache record.
using WireMessages =
    TypeList<net::SubmitSchemaReq, net::MatchPairReq, net::MatchCorpusReq,
             net::ResponseHead, net::SubmitSchemaResp, net::MatchPairResp,
             net::MatchCorpusResp, net::StatsResp, net::MetricsResp,
             net::HealthResp, net::RoleResp, replica::SchemaRec,
             replica::SubscribeReq, replica::RecordsMsg, replica::SnapshotMsg,
             persist::CacheEntryRec>;

/// Fills a message field by field through its Fields list, so a branch in
/// the list (SubmitSchemaResp's OK-only body) leaves the skipped fields at
/// their defaults, exactly as a decode would. Empty strings, empty
/// vectors, zero and extreme integers are all drawn often.
class RandomFiller {
 public:
  explicit RandomFiller(Random& rng) : rng_(rng) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (Fill(fields), ...);
  }

 private:
  template <class T>
  void Fill(T& field) {
    if constexpr (std::is_same_v<T, uint8_t>) {
      field = static_cast<uint8_t>(rng_.Uniform(2));
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      field = static_cast<uint32_t>(Integer());
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      field = Integer();
    } else if constexpr (std::is_same_v<T, double>) {
      const double kValues[] = {0.0, -0.0, 5e-324, 1.7976931348623157e308,
                                rng_.NextDouble()};
      field = kValues[rng_.Uniform(5)];
    } else if constexpr (std::is_same_v<T, std::string>) {
      field.resize(static_cast<size_t>(rng_.Uniform(3) == 0
                                           ? 0
                                           : rng_.UniformRange(1, 24)));
      for (char& c : field) c = static_cast<char>(rng_.Uniform(256));
    } else if constexpr (persist::kIsVector<T>) {
      const uint64_t count = rng_.Uniform(3) == 0 ? 0 : 1 + rng_.Uniform(3);
      for (uint64_t i = 0; i < count; ++i) Fill(field.emplace_back());
    } else {
      Fields(*this, field);
    }
  }

  uint64_t Integer() {
    switch (rng_.Uniform(4)) {
      case 0:
        return 0;
      case 1:
        return rng_.Uniform(16);
      case 2:
        return ~uint64_t{0};
      default:
        return rng_.Next();
    }
  }

  Random& rng_;
};

template <class T>
T RandomMessage(Random& rng) {
  T message{};
  RandomFiller filler(rng);
  filler(message);
  return message;
}

/// Anything a decoder accepts must re-encode to a byte-stable fixed point
/// (decode(encode(decode(x))) == decode(x)): no half-read fields.
template <class T>
void ExpectFixedPoint(std::string_view accepted, const std::string& trace) {
  T first;
  ASSERT_TRUE(persist::Decode(accepted, &first)) << trace;
  const std::string once = persist::Encode(first);
  T second;
  ASSERT_TRUE(persist::Decode(once, &second))
      << trace << ": re-encoding of an accepted payload was rejected";
  EXPECT_EQ(persist::Encode(second), once)
      << trace << ": accepted payload has no encode/decode fixed point";
}

/// Feeds `bytes` to the decoder of every listed message (cross-type feeding
/// included): the only legal outcomes are a rejection or an accepted,
/// fixed-point message.
inline void ExpectEveryDecoderRejectsOrFixes(std::string_view bytes,
                                             const std::string& trace) {
  WireMessages::ForEach([&]<class T>() {
    T message;
    if (persist::Decode(bytes, &message)) ExpectFixedPoint<T>(bytes, trace);
  });
}

}  // namespace qmatch::test

#endif  // QMATCH_TESTS_WIRE_MESSAGES_H_
