// Fuzz-style robustness test for the persist snapshot/journal loader
// (ISSUE 5 satellite): seeded mutations — truncations, bit flips, bogus
// length fields, byte noise, splices — over valid store bytes. The
// contract is absolute: whatever bytes come in, DecodeSnapshot and
// DecodeJournal return a typed Status (OK or kDataLoss), never crash,
// never over-read, never allocate from a hostile length field. The
// sanitizer builds (scripts/ci.sh asan / fuzz mode) run this same binary,
// which is where an over-read would surface.
//
// QMATCH_FUZZ_SEED overrides the base seed so a logged failure replays
// exactly, mirroring xml_fuzz_test.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "persist/crc32.h"
#include "persist/snapshot.h"
#include "persist/wire.h"
#include "wire_goldens.h"
#include "wire_messages.h"

namespace qmatch::persist {
namespace {

constexpr uint64_t kConfig = 0xAB5EED42ULL;

uint64_t BaseSeed() {
  const char* env = std::getenv("QMATCH_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x5EEDDA7AULL;
}

/// A realistic store image: several cache entries with correspondence
/// lists, so every decoder path is reachable from a mutation.
StoreState SampleState() {
  StoreState state;
  for (uint64_t i = 0; i < 4; ++i) {
    CacheEntryRec rec;
    rec.source_fp = 0x1000 + i;
    rec.target_fp = 0x2000 + i;
    rec.config_hash = kConfig;
    rec.algorithm = "hybrid";
    rec.schema_qom = 0.5 + static_cast<double>(i) * 0.09;
    for (uint64_t c = 0; c < 3 + i; ++c) {
      rec.correspondences.push_back(CorrespondenceRec{
          "/PO/Item/Line" + std::to_string(c),
          "/Order/Entry/Row" + std::to_string(c),
          0.25 * static_cast<double>(c % 4)});
    }
    state.cache_entries.push_back(std::move(rec));
  }
  return state;
}

/// Decodes `bytes` both as a snapshot and as a journal. The assertions are
/// implicit — a crash or sanitizer report fails the binary; explicitly we
/// require every non-OK outcome to be the typed kDataLoss, nothing else.
void Digest(const std::string& bytes) {
  {
    StoreState state;
    LoadStats stats;
    Status status = DecodeSnapshot(bytes, kConfig, &state, &stats);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status;
    }
  }
  {
    StoreState state;
    LoadStats stats;
    Status status = DecodeJournal(bytes, kConfig, &state, &stats);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kDataLoss) << status;
    }
  }
}

// --- mutation strategies -------------------------------------------------

std::string FlipBits(const std::string& base, Random& rng) {
  std::string out = base;
  const size_t flips = 1 + static_cast<size_t>(rng.Uniform(8));
  for (size_t f = 0; f < flips && !out.empty(); ++f) {
    const size_t pos = static_cast<size_t>(rng.Uniform(out.size()));
    out[pos] = static_cast<char>(
        static_cast<unsigned char>(out[pos]) ^ (1u << rng.Uniform(8)));
  }
  return out;
}

std::string Truncate(const std::string& base, Random& rng) {
  if (base.empty()) return base;
  return base.substr(0, static_cast<size_t>(rng.Uniform(base.size())));
}

/// Overwrites a 4-byte aligned-ish window with an extreme length value —
/// the classic hostile-length attack on length-prefixed formats. Targets
/// include UINT32_MAX, kMaxPayloadBytes±1, and huge string lengths inside
/// payloads.
std::string BogusLength(const std::string& base, Random& rng) {
  if (base.size() < 4) return base;
  std::string out = base;
  const uint32_t extremes[] = {0xFFFFFFFFu, 0x7FFFFFFFu, kMaxPayloadBytes,
                               kMaxPayloadBytes + 1, kMaxPayloadBytes - 1,
                               0x10000u, 0u};
  const uint32_t value = extremes[rng.Uniform(7)];
  const size_t pos = static_cast<size_t>(rng.Uniform(out.size() - 3));
  out[pos] = static_cast<char>(value & 0xffu);
  out[pos + 1] = static_cast<char>((value >> 8) & 0xffu);
  out[pos + 2] = static_cast<char>((value >> 16) & 0xffu);
  out[pos + 3] = static_cast<char>((value >> 24) & 0xffu);
  return out;
}

std::string ByteNoise(const std::string& base, Random& rng) {
  std::string out = base;
  const size_t edits = 1 + static_cast<size_t>(rng.Uniform(16));
  for (size_t e = 0; e < edits && !out.empty(); ++e) {
    const size_t pos = static_cast<size_t>(rng.Uniform(out.size()));
    out[pos] = static_cast<char>(rng.Uniform(256));
  }
  return out;
}

/// Duplicates a random chunk into a random position — misaligns the record
/// stream so later frames are parsed from mid-record garbage.
std::string Splice(const std::string& base, Random& rng) {
  if (base.size() < 8) return base;
  std::string out = base;
  const size_t from = static_cast<size_t>(rng.Uniform(base.size() - 4));
  const size_t len =
      1 + static_cast<size_t>(rng.Uniform(std::min<size_t>(64, base.size() - from)));
  const std::string chunk = base.substr(from, len);
  out.insert(static_cast<size_t>(rng.Uniform(out.size())), chunk);
  return out;
}

TEST(PersistFuzzTest, PristineBytesDecodeCleanly) {
  // The fuzz bases carry a record of the retired type 2 as older builds
  // wrote it, so mutations also reach the skip-unknown-type path.
  const std::string snapshot =
      EncodeSnapshot(SampleState(), kConfig) +
      test::HexToBytes(test::kRetiredCorpusRecordHex);
  StoreState state;
  LoadStats stats;
  ASSERT_TRUE(DecodeSnapshot(snapshot, kConfig, &state, &stats).ok());
  EXPECT_EQ(state.cache_entries.size(), 4u);
  EXPECT_EQ(stats.dropped_records, 1u);
}

TEST(PersistFuzzTest, MutatedStoreBytesNeverCrashTheLoader) {
  struct Strategy {
    const char* name;
    std::string (*mutate)(const std::string&, Random&);
    size_t iterations;
  };
  const Strategy kStrategies[] = {
      {"bitflip", FlipBits, 300},
      {"truncate", Truncate, 300},
      {"boguslen", BogusLength, 300},
      {"noise", ByteNoise, 300},
      {"splice", Splice, 200},
  };
  const uint64_t base_seed = BaseSeed();
  std::printf("[fuzz] base seed %llu (override with QMATCH_FUZZ_SEED)\n",
              static_cast<unsigned long long>(base_seed));
  const StoreState sample = SampleState();
  const std::string retired = test::HexToBytes(test::kRetiredCorpusRecordHex);
  const std::string kBases[] = {
      EncodeSnapshot(sample, kConfig) + retired,
      EncodeJournalHeader(kConfig) +
          test::FramedCacheRecord(sample.cache_entries[0]) + retired,
  };
  uint64_t base_index = 0;
  for (const std::string& base : kBases) {
    uint64_t strategy_index = 0;
    for (const Strategy& strategy : kStrategies) {
      Random rng(base_seed + base_index * 977 + strategy_index * 13);
      for (size_t iteration = 0; iteration < strategy.iterations;
           ++iteration) {
        SCOPED_TRACE(std::string(strategy.name) + "/#" +
                     std::to_string(iteration) + " base=" +
                     std::to_string(base_index) +
                     " seed=" + std::to_string(base_seed));
        Digest(strategy.mutate(base, rng));
        if (::testing::Test::HasFailure()) {
          FAIL() << "persist fuzz failure; replay with QMATCH_FUZZ_SEED="
                 << base_seed;
        }
      }
      ++strategy_index;
    }
    ++base_index;
  }
}

TEST(PersistFuzzTest, DegenerateInputs) {
  Digest("");
  Digest("Q");
  Digest("QMSNAP01");
  Digest("QMJRNL01");
  Digest(std::string(24, '\0'));
  Digest(std::string("QMSNAP01") + std::string(16, '\0'));
  Digest(std::string(1 << 16, '\xff'));
  // A valid header followed by garbage frames.
  Digest(EncodeJournalHeader(kConfig) + std::string(64, '\x41'));
}

TEST(PersistFuzzTest, HostileCorrespondenceCountCannotForceAllocation) {
  // Hand-craft a cache record whose payload claims 2^31 correspondences
  // with only a handful of payload bytes behind the claim, with a VALID
  // record CRC — the decoder must reject on the count pre-check, not
  // reserve gigabytes.
  Encoder payload;
  payload.PutU64(1);
  payload.PutU64(2);
  payload.PutU64(kConfig);
  payload.PutString("hybrid");
  payload.PutDouble(0.5);
  payload.PutU32(0x80000000u);  // correspondence count
  std::string body = payload.Take();
  Encoder frame;
  frame.PutU32(1);  // RecordType::kCacheEntry
  frame.PutU32(static_cast<uint32_t>(body.size()));
  std::string record = frame.Take() + body;
  Encoder crc;
  crc.PutU32(Crc32(record));
  record += crc.bytes();
  const std::string bytes = EncodeJournalHeader(kConfig) + record;
  StoreState state;
  LoadStats stats;
  Status status = DecodeJournal(bytes, kConfig, &state, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(state.cache_entries.empty());
}

TEST(PersistFuzzTest, AcceptedPayloadMutantsAreFixedPoints) {
  // The record payload itself, under the same mutations: every message
  // decoder rejects a mutant or accepts one that re-encodes to a fixed
  // point.
  const std::string base = Encode(SampleState().cache_entries[3]);
  std::string (*const kMutations[])(const std::string&, Random&) = {
      FlipBits, Truncate, BogusLength, ByteNoise, Splice};
  const uint64_t base_seed = BaseSeed();
  uint64_t index = 0;
  for (const auto mutate : kMutations) {
    Random rng(base_seed + 7919 + index);
    for (int iteration = 0; iteration < 150; ++iteration) {
      test::ExpectEveryDecoderRejectsOrFixes(
          mutate(base, rng), "mutation " + std::to_string(index) + "/#" +
                                 std::to_string(iteration) + " seed=" +
                                 std::to_string(base_seed));
    }
    ++index;
  }
}

}  // namespace
}  // namespace qmatch::persist
