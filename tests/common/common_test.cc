// Unit tests for the common substrate: Status/Result, string helpers, RNG statistical
// sanity, byte IO round-trips, hashing stability, and the coverage map and its wire
// blobs.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/byteio.h"
#include "src/common/coverage_map.h"
#include "src/common/coverage_serial.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/vclock.h"
#include "tests/fleet/decoder_harness.h"

namespace eof {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(OkStatus().ok());
  EXPECT_EQ(OkStatus().ToString(), "OK");
  Status timeout = TimeoutError("gdb continue did not ack");
  EXPECT_FALSE(timeout.ok());
  EXPECT_EQ(timeout.code(), ErrorCode::kTimeout);
  EXPECT_EQ(timeout.ToString(), "TIMEOUT: gdb continue did not ack");
}

TEST(StatusTest, ResultValueAndError) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad = NotFoundError("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNotFound);
}

TEST(StatusTest, Macros) {
  auto fails = []() -> Status { return InvalidArgumentError("boom"); };
  auto wrapper = [&]() -> Status {
    RETURN_IF_ERROR(fails());
    return InternalError("unreachable");
  };
  EXPECT_EQ(wrapper().code(), ErrorCode::kInvalidArgument);

  auto produce = []() -> Result<int> { return 7; };
  auto assign = [&]() -> Result<int> {
    ASSIGN_OR_RETURN(int value, produce());
    return value * 2;
  };
  EXPECT_EQ(assign().value(), 14);
}

TEST(StringsTest, FormatSplitStrip) {
  EXPECT_EQ(StrFormat("%s-%d", "x", 5), "x-5");
  EXPECT_EQ(StrSplit("a,b,,c", ',').size(), 3u);
  EXPECT_EQ(StrSplit("a,b,,c", ',', /*keep_empty=*/true).size(), 4u);
  EXPECT_EQ(StripWhitespace("  hi \t"), "hi");
  EXPECT_TRUE(StartsWith("transfer-encoding", "transfer"));
  EXPECT_TRUE(EndsWith("panic_handler", "handler"));
  EXPECT_TRUE(Contains("Guru Meditation Error", "Meditation"));
  EXPECT_EQ(StrJoin({"a", "b"}, "::"), "a::b");
}

TEST(StringsTest, BytesToHex) {
  uint8_t data[] = {0xde, 0xad, 0x01};
  EXPECT_EQ(BytesToHex(data, 3), "dead01");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(99);
  std::map<uint64_t, int> histogram;
  for (int i = 0; i < 10000; ++i) {
    uint64_t value = rng.Below(10);
    ASSERT_LT(value, 10u);
    ++histogram[value];
  }
  for (const auto& [value, count] : histogram) {
    EXPECT_GT(count, 700) << "bucket " << value;  // ~1000 expected
    EXPECT_LT(count, 1300) << "bucket " << value;
  }
}

TEST(RngTest, BiasedSizeFavorsSmall) {
  Rng rng(3);
  int small = 0;
  for (int i = 0; i < 4000; ++i) {
    if (rng.BiasedSize(1000) < 100) {
      ++small;
    }
  }
  EXPECT_GT(small, 800);  // well above the uniform 10% (= 400)
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(5);
  int picks[3] = {0, 0, 0};
  for (int i = 0; i < 9000; ++i) {
    ++picks[rng.WeightedIndex({1, 1, 7})];
  }
  EXPECT_GT(picks[2], picks[0] * 3);
  EXPECT_GT(picks[2], picks[1] * 3);
}

TEST(ByteIoTest, RoundTrip) {
  ByteWriter writer;
  writer.PutU8(0xab);
  writer.PutU16(0x1234);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0102030405060708ULL);
  writer.PutLengthPrefixed(std::string("hello"));

  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU8(), 0xab);
  EXPECT_EQ(reader.GetU16(), 0x1234);
  EXPECT_EQ(reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.GetU64(), 0x0102030405060708ULL);
  std::vector<uint8_t> blob = reader.GetLengthPrefixed();
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "hello");
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIoTest, OverrunSetsFailureFlag) {
  std::vector<uint8_t> two = {1, 2};
  ByteReader reader(two);
  EXPECT_EQ(reader.GetU32(), 0u);
  EXPECT_TRUE(reader.failed());
}

TEST(ByteIoTest, ZeroByteReadFromEmptyReader) {
  std::vector<uint8_t> empty;
  ByteReader reader(empty);  // data() of an empty vector may be null
  uint8_t out = 0x5a;
  reader.GetBytes(&out, 0);
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(out, 0x5a);
  EXPECT_EQ(reader.remaining(), 0u);
  ByteReader null_reader(nullptr, 0);
  null_reader.GetBytes(nullptr, 0);
  EXPECT_FALSE(null_reader.failed());
}

TEST(ByteIoTest, LengthPrefixOverrunRejected) {
  ByteWriter writer;
  writer.PutU32(1000);  // claims 1000 bytes, provides none
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.GetLengthPrefixed().empty());
  EXPECT_TRUE(reader.failed());
}

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(Fnv1a("freertos/queue"), Fnv1a("freertos/queue"));
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
  constexpr uint64_t kCompileTime = Fnv1a("compile-time");
  EXPECT_EQ(kCompileTime, Fnv1a("compile-time"));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// Flash and RAM checksums: every byte counts wherever the window starts, windows of
// different lengths differ even when their bytes are all zero, and a window fed to
// ChecksumStream in pieces checksums the same wherever the pieces break.
TEST(HashTest, ChecksumBytesSeesEveryByteAtAnyAlignment) {
  Rng rng(5);
  std::vector<uint8_t> data(97);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  const std::vector<uint8_t> zeros(data.size(), 0);
  EXPECT_EQ(ChecksumBytes(nullptr, 0), ChecksumBytes(data.data(), 0));
  std::set<uint64_t> by_length;
  for (size_t size = 0; size <= data.size(); ++size) {
    const uint64_t want = ChecksumBytes(data.data(), size);
    for (size_t shift = 1; shift < 8; ++shift) {
      std::vector<uint8_t> moved(shift + size);
      std::copy(data.begin(), data.begin() + size, moved.begin() + shift);
      EXPECT_EQ(ChecksumBytes(moved.data() + shift, size), want) << size << "+" << shift;
    }
    for (size_t cut = 0; cut <= size; ++cut) {
      const size_t second = cut + rng.Below(size - cut + 1);
      ChecksumStream stream;
      stream.Update(data.data(), cut);
      stream.Update(data.data() + cut, second - cut);
      stream.Update(data.data() + second, size - second);
      EXPECT_EQ(stream.Finish(), want) << size << "/" << cut << "/" << second;
    }
    for (size_t at = 0; at < size; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> flipped(data.begin(), data.begin() + size);
        flipped[at] ^= static_cast<uint8_t>(1u << bit);
        EXPECT_NE(ChecksumBytes(flipped.data(), size), want) << size << "@" << at;
      }
    }
    by_length.insert(ChecksumBytes(zeros.data(), size));
  }
  EXPECT_EQ(by_length.size(), data.size() + 1);
}

TEST(CoverageMapTest, AddMergeCount) {
  CoverageMap map;
  EXPECT_TRUE(map.Add(1));
  EXPECT_FALSE(map.Add(1));
  EXPECT_EQ(map.AddBatch({1, 2, 3, 3}), 2u);
  EXPECT_EQ(map.Count(), 3u);

  CoverageMap other;
  other.AddBatch({3, 4});
  EXPECT_EQ(map.Merge(other), 1u);
  EXPECT_EQ(map.Count(), 4u);
}

TEST(CoverageMapTest, ExactCountAgainstReferenceSet) {
  // The bitmap fast path may alias (two edge IDs sharing a low-16-bit slot); the
  // exact table behind it must still report set-accurate membership and counts.
  CoverageMap map;
  std::set<uint64_t> reference;
  Rng rng(0x5eed);
  for (int i = 0; i < 5000; ++i) {
    // A narrow range forces heavy bitmap aliasing and table growth past the
    // initial slot count.
    uint64_t id = rng.Below(1 << 20) * 0x10001ULL;
    EXPECT_EQ(map.Add(id), reference.insert(id).second);
  }
  EXPECT_EQ(map.Count(), reference.size());
  for (uint64_t id : reference) {
    EXPECT_TRUE(map.Contains(id));
  }
  // IDs one off every stored value: aliasing must not fabricate membership.
  for (uint64_t id : reference) {
    if (reference.count(id + 1) == 0) {
      EXPECT_FALSE(map.Contains(id + 1));
    }
  }
}

TEST(CoverageMapTest, IdZeroIsAFirstClassEdge) {
  // Edge ID 0 collides with the open-addressed table's empty-slot marker and needs
  // its dedicated flag: it must count once and survive merge/clear like any other.
  CoverageMap map;
  EXPECT_FALSE(map.Contains(0));
  EXPECT_TRUE(map.Add(0));
  EXPECT_FALSE(map.Add(0));
  EXPECT_TRUE(map.Contains(0));
  EXPECT_EQ(map.Count(), 1u);

  CoverageMap other;
  other.AddBatch({0, 1});
  EXPECT_EQ(map.Merge(other), 1u);
  EXPECT_EQ(map.Count(), 2u);

  map.Clear();
  EXPECT_FALSE(map.Contains(0));
  EXPECT_EQ(map.Count(), 0u);
  EXPECT_TRUE(map.Add(0));
}

TEST(CoverageMapTest, AddBatchFilteredKeepsOrderAndFirstSighting) {
  CoverageMap map;
  map.AddBatch({10, 20});
  std::vector<uint64_t> fresh;
  EXPECT_EQ(map.AddBatchFiltered({30, 10, 40, 30, 20, 50}, &fresh), 3u);
  // Fresh edges come back in drain order, duplicates and already-known IDs removed.
  EXPECT_EQ(fresh, (std::vector<uint64_t>{30, 40, 50}));
  EXPECT_EQ(map.Count(), 5u);
}

TEST(CoverageMapTest, AddBatchAttributedCreditsFirstSightingCall) {
  CoverageMap map;
  map.AddBatch({10});
  std::vector<CovHit> fresh;
  // Edge 30 appears twice with different call indices: attribution must credit the
  // FIRST sighting (call 2), the later one is a duplicate.
  std::vector<CovHit> hits = {{30, 2}, {10, 0}, {40, 5}, {30, 9}, {50, 1}};
  EXPECT_EQ(map.AddBatchAttributed(hits, &fresh), 3u);
  ASSERT_EQ(fresh.size(), 3u);
  EXPECT_EQ(fresh[0], (CovHit{30, 2}));
  EXPECT_EQ(fresh[1], (CovHit{40, 5}));
  EXPECT_EQ(fresh[2], (CovHit{50, 1}));
  EXPECT_EQ(map.Count(), 4u);
  // Null fresh_out is the count-only mode the baselines use.
  EXPECT_EQ(map.AddBatchAttributed({{50, 0}, {60, 0}}, nullptr), 1u);
}

TEST(CoverageMapTest, ForEachVisitsEveryEdgeOnce) {
  CoverageMap map;
  std::vector<uint64_t> ids = {0, 1, 0x10001, 0x20002, 77};
  map.AddBatch(ids);
  std::set<uint64_t> seen;
  map.ForEach([&](uint64_t id) { EXPECT_TRUE(seen.insert(id).second); });
  EXPECT_EQ(seen, std::set<uint64_t>(ids.begin(), ids.end()));
}

TEST(CoverageSerialTest, FullSnapshotRoundTrips) {
  CoverageMap map;
  map.AddBatch({7, 0, 0xdeadbeef, 42, 0xffffffffffffffffULL, 42});
  std::vector<uint8_t> blob = SerializeCoverage(map);
  auto decoded = DecodeCoverage(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, CoverageWireKind::kFull);
  EXPECT_EQ(decoded->ids,
            (std::vector<uint64_t>{0, 7, 42, 0xdeadbeef, 0xffffffffffffffffULL}));

  CoverageMap restored;
  auto merged = MergeSerializedCoverage(blob, &restored);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value(), 5u);
  EXPECT_EQ(restored.Count(), map.Count());
  // Idempotent: replaying the same blob adds nothing.
  EXPECT_EQ(MergeSerializedCoverage(blob, &restored).value(), 0u);
}

TEST(CoverageSerialTest, DiffRoundTripsAndDedups) {
  std::vector<uint8_t> blob =
      SerializeCoverageIds({9, 3, 9, 3, 1000000}, CoverageWireKind::kDiff);
  auto decoded = DecodeCoverage(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, CoverageWireKind::kDiff);
  EXPECT_EQ(decoded->ids, (std::vector<uint64_t>{3, 9, 1000000}));
}

TEST(CoverageSerialTest, EmptyMapRoundTrips) {
  CoverageMap map;
  auto decoded = DecodeCoverage(SerializeCoverage(map));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ids.empty());
}

TEST(CoverageSerialTest, EncodingIsCanonical) {
  // Two maps with the same edge set serialize to identical bytes regardless of
  // insertion order — the property the orchestrator's dedup relies on.
  CoverageMap a;
  CoverageMap b;
  a.AddBatch({5, 1, 900, 77});
  b.AddBatch({900, 77, 5, 1});
  EXPECT_EQ(SerializeCoverage(a), SerializeCoverage(b));
}

TEST(CoverageSerialTest, MergeIsCommutative) {
  std::vector<uint8_t> left = SerializeCoverageIds({1, 2, 3}, CoverageWireKind::kDiff);
  std::vector<uint8_t> right =
      SerializeCoverageIds({3, 4, 100}, CoverageWireKind::kDiff);
  CoverageMap lr;
  CoverageMap rl;
  ASSERT_TRUE(MergeSerializedCoverage(left, &lr).ok());
  ASSERT_TRUE(MergeSerializedCoverage(right, &lr).ok());
  ASSERT_TRUE(MergeSerializedCoverage(right, &rl).ok());
  ASSERT_TRUE(MergeSerializedCoverage(left, &rl).ok());
  EXPECT_EQ(SerializeCoverage(lr), SerializeCoverage(rl));
  EXPECT_EQ(lr.Count(), 5u);
}

// The orchestrator decodes coverage blobs straight from worker Syncs.
TEST(CoverageSerialTest, DecoderSurvivesMutatedInput) {
  auto round_trip = [](const std::vector<uint8_t>& blob) -> Result<std::vector<uint8_t>> {
    ASSIGN_OR_RETURN(DecodedCoverage decoded, DecodeCoverage(blob));
    return SerializeCoverageIds(std::move(decoded.ids), decoded.kind);
  };
  ExpectDecoderSurvivesHavoc(
      SerializeCoverageIds({0, 3, 9, 0x10001, 1000000, 0xffffffffffffffffULL},
                           CoverageWireKind::kDiff),
      round_trip, 20261112);
}

TEST(CoverageSerialTest, RejectsCorruptBlobs) {
  CoverageMap map;
  map.AddBatch({10, 20, 30});
  std::vector<uint8_t> blob = SerializeCoverage(map);

  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeCoverage(bad_magic).ok());

  std::vector<uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(DecodeCoverage(truncated).ok());

  EXPECT_FALSE(DecodeCoverage({}).ok());

  // A failed merge must not half-apply: the target map stays unchanged.
  CoverageMap target;
  target.Add(1);
  EXPECT_FALSE(MergeSerializedCoverage(truncated, &target).ok());
  EXPECT_EQ(target.Count(), 1u);
}

TEST(VClockTest, AdvanceAndUnits) {
  VirtualClock clock;
  clock.Advance(2 * kVirtualHour + kVirtualMinute);
  EXPECT_EQ(clock.Now(), 121 * kVirtualMinute);
}

}  // namespace
}  // namespace eof
