// Tests for the mutable index: delta segments (JMDS round trips, torn-tail
// recovery, pinned-prefix serving reads), manifest generations and the
// CURRENT pointer (atomic flips, loud failure on damage), manifest v4
// version compatibility (hand-encoded v2/v3 buffers, oldest-sufficient
// serialization, future-version rejection), and the full ingest lifecycle:
// append + publish served bit-identically to a from-scratch rebuild (whole
// and paged bases), compaction producing byte-identical base files, shard
// servers and routers picking up new epochs over reload — including over
// RPC and under concurrent query traffic (the TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/router.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/search.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/ingest/coordinator.h"
#include "src/ingest/delta_segment.h"
#include "src/ingest/generation.h"
#include "src/sketch/serialize.h"
#include "src/table/table.h"

namespace joinmi {
namespace {

std::shared_ptr<Table> MakeTwoColumnTable(const std::string& key_name,
                                          std::vector<std::string> keys,
                                          const std::string& value_name,
                                          std::vector<int64_t> values) {
  return *Table::FromColumns(
      {{key_name, Column::MakeString(std::move(keys))},
       {value_name, Column::MakeInt64(std::move(values))}});
}

/// Base table whose target is a function of the key, plus eight candidate
/// tables of graded relevance (twins included, so tie-breaks matter) —
/// enough candidates that a base/appended split spreads across shards.
struct Universe {
  std::shared_ptr<Table> base;
  TableRepository repository;
};

Universe MakeUniverse() {
  Universe universe;
  Rng rng(7171);
  const size_t num_keys = 160;
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
    targets.push_back(static_cast<int64_t>(i % 7));
  }
  universe.base = MakeTwoColumnTable("K", keys, "Y", targets);

  auto add = [&](const std::string& name, std::vector<int64_t> values) {
    universe.repository
        .AddTable(name, MakeTwoColumnTable("K", keys, "V", std::move(values)))
        .Abort();
  };
  std::vector<int64_t> values;
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(i % 7));
  }
  add("exact", values);
  add("exact_twin", values);
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>((i % 7) / 3));
  }
  add("coarse", values);
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>((i % 7) / 2));
  }
  add("coarse_twin", values);
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(i % 3));
  }
  add("mod3", values);
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(i % 2));
  }
  add("mod2", values);
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(7)));
  }
  add("noise", values);
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(7)));
  }
  add("noise_twin", values);
  return universe;
}

JoinMIConfig MakeIndexConfig() {
  JoinMIConfig config;
  config.sketch_capacity = 128;
  config.min_join_size = 16;
  return config;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/joinmi_ingest_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectBitIdentical(const TopKSearchResult& expected,
                        const TopKSearchResult& actual) {
  EXPECT_EQ(expected.num_candidates, actual.num_candidates);
  EXPECT_EQ(expected.num_evaluated, actual.num_evaluated);
  EXPECT_EQ(expected.num_skipped, actual.num_skipped);
  EXPECT_EQ(expected.num_errors, actual.num_errors);
  ASSERT_EQ(expected.hits.size(), actual.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(expected.hits[i].candidate.ToString(),
              actual.hits[i].candidate.ToString()) << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
    EXPECT_EQ(expected.hits[i].estimate.estimator,
              actual.hits[i].estimate.estimator) << i;
  }
}

/// Non-asserting bit-identity check, for threads racing a reload where a
/// result may legitimately match either the old or the new epoch.
bool Matches(const TopKSearchResult& expected,
             const TopKSearchResult& actual) {
  if (expected.num_candidates != actual.num_candidates ||
      expected.hits.size() != actual.hits.size()) {
    return false;
  }
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    if (expected.hits[i].candidate.ToString() !=
            actual.hits[i].candidate.ToString() ||
        expected.hits[i].estimate.mi != actual.hits[i].estimate.mi) {
      return false;
    }
  }
  return true;
}

void ExpectSameShardHits(const ShardSearchResult& expected,
                         const ShardSearchResult& actual) {
  EXPECT_EQ(expected.num_evaluated, actual.num_evaluated);
  EXPECT_EQ(expected.num_skipped, actual.num_skipped);
  EXPECT_EQ(expected.num_errors, actual.num_errors);
  ASSERT_EQ(expected.hits.size(), actual.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(expected.hits[i].global_index, actual.hits[i].global_index)
        << i;
    EXPECT_EQ(expected.hits[i].ref.ToString(), actual.hits[i].ref.ToString())
        << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
  }
}

std::vector<ingest::DeltaRecord> MakeDeltaRecords(uint64_t first_global,
                                                  size_t count) {
  std::vector<ingest::DeltaRecord> records;
  for (size_t i = 0; i < count; ++i) {
    ingest::DeltaRecord record;
    record.global_index = first_global + i;
    record.payload = "payload-" + std::to_string(first_global + i) +
                     std::string(20 + i * 7, 'x');
    records.push_back(std::move(record));
  }
  return records;
}

void AppendGarbage(const std::string& path, const std::string& garbage) {
  std::ofstream file(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(file.good());
  file.write(garbage.data(),
             static_cast<std::streamsize>(garbage.size()));
  ASSERT_TRUE(file.good());
}

// ---------------------------------------------------------- delta segments

TEST(DeltaSegmentTest, RoundTripsAcrossBatchesAndPinsPrefixes) {
  const std::string dir = ScratchDir("delta_roundtrip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shard_00000.jmds";
  const JoinMIConfig config = MakeIndexConfig();

  auto writer = ingest::DeltaSegmentWriter::Open(path, config, /*shard=*/3);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ((*writer)->committed_records(), 0u);
  ASSERT_TRUE((*writer)->Append(MakeDeltaRecords(10, 2)).ok());
  const uint64_t batch1_bytes = (*writer)->committed_bytes();
  const uint64_t batch1_checksum = (*writer)->committed_checksum();
  ASSERT_TRUE((*writer)->Append(MakeDeltaRecords(12, 3)).ok());
  EXPECT_EQ((*writer)->committed_records(), 5u);
  EXPECT_GT((*writer)->committed_bytes(), batch1_bytes);
  const uint64_t final_bytes = (*writer)->committed_bytes();
  const uint64_t final_checksum = (*writer)->committed_checksum();
  writer->reset();

  auto contents = ingest::ReadDeltaSegmentFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->shard, 3u);
  EXPECT_TRUE(contents->config == config);
  EXPECT_EQ(contents->discarded_tail_bytes, 0u);
  EXPECT_EQ(contents->committed_bytes, final_bytes);
  EXPECT_EQ(contents->committed_checksum, final_checksum);
  ASSERT_EQ(contents->records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(contents->records[i].global_index, 10u + i) << i;
  }
  EXPECT_EQ(contents->records[4].payload,
            MakeDeltaRecords(12, 3)[2].payload);

  // A manifest that pinned the first batch reads exactly the first batch,
  // even though the file has grown since — publish-then-append safety.
  auto prefix =
      ingest::ReadDeltaSegmentPrefix(path, batch1_bytes, batch1_checksum);
  ASSERT_TRUE(prefix.ok()) << prefix.status();
  EXPECT_EQ(prefix->records.size(), 2u);
  EXPECT_EQ(prefix->records[1].global_index, 11u);
  std::filesystem::remove_all(dir);
}

TEST(DeltaSegmentTest, TornTailIsDiscardedAndRecovered) {
  const std::string dir = ScratchDir("delta_torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shard_00000.jmds";
  const JoinMIConfig config = MakeIndexConfig();

  {
    auto writer = ingest::DeltaSegmentWriter::Open(path, config, 0);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(MakeDeltaRecords(0, 2)).ok());
  }
  // A crash mid-append leaves uncommitted bytes past the last commit.
  const std::string garbage = "\x01torn-record-bytes-without-a-commit";
  AppendGarbage(path, garbage);

  auto contents = ingest::ReadDeltaSegmentFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->discarded_tail_bytes, garbage.size());

  // Re-opening the writer truncates the tail and appends cleanly after it.
  auto writer = ingest::DeltaSegmentWriter::Open(path, config, 0);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ((*writer)->recovered_tail_bytes(), garbage.size());
  EXPECT_EQ((*writer)->committed_records(), 2u);
  ASSERT_TRUE((*writer)->Append(MakeDeltaRecords(2, 1)).ok());
  writer->reset();

  auto clean = ingest::ReadDeltaSegmentFile(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->records.size(), 3u);
  EXPECT_EQ(clean->discarded_tail_bytes, 0u);
  std::filesystem::remove_all(dir);
}

TEST(DeltaSegmentTest, PinnedPrefixFailsLoudlyOnDamage) {
  const std::string dir = ScratchDir("delta_damage");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shard_00000.jmds";

  auto writer =
      ingest::DeltaSegmentWriter::Open(path, MakeIndexConfig(), 0);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(MakeDeltaRecords(0, 3)).ok());
  const uint64_t bytes = (*writer)->committed_bytes();
  const uint64_t checksum = (*writer)->committed_checksum();
  writer->reset();

  // Wrong pin: the serving path must refuse, not shrug.
  EXPECT_FALSE(ingest::ReadDeltaSegmentPrefix(path, bytes, checksum ^ 1).ok());
  EXPECT_FALSE(ingest::ReadDeltaSegmentPrefix(path, bytes + 1, checksum).ok());

  // Damage inside the committed prefix: flip one payload byte.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const std::streamoff offset = static_cast<std::streamoff>(bytes) - 30;
    file.seekg(offset);
    char byte = 0;
    file.get(byte);
    file.seekp(offset);
    file.put(static_cast<char>(byte ^ 0x40));
    ASSERT_TRUE(file.good());
  }
  EXPECT_FALSE(ingest::ReadDeltaSegmentPrefix(path, bytes, checksum).ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- generations + CURRENT pointer

TEST(GenerationTest, CurrentPointerFlipsAtomicallyAndResolves) {
  const std::string dir = ScratchDir("generation");
  std::filesystem::create_directories(dir);

  EXPECT_EQ(ingest::GenerationManifestName(0), "manifest.jmim");
  EXPECT_EQ(ingest::GenerationManifestName(42), "manifest-g000042.jmim");

  // No CURRENT yet: a directory reference falls back to manifest.jmim.
  ASSERT_TRUE(
      ingest::WriteFileDurable(dir + "/manifest.jmim", "generation-zero")
          .ok());
  auto resolved = ingest::ResolveManifestPath(dir);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, dir + "/manifest.jmim");

  // Publish generation 1; every reference form resolves to it.
  ASSERT_TRUE(ingest::WriteFileDurable(dir + "/manifest-g000001.jmim",
                                       "generation-one")
                  .ok());
  // Leftover tmp from a torn earlier flip must not break the publish.
  ASSERT_TRUE(wire::WriteFileBytes("stale torn tmp",
                                   dir + "/CURRENT.tmp")
                  .ok());
  ASSERT_TRUE(ingest::PublishCurrent(dir, "manifest-g000001.jmim").ok());
  resolved = ingest::ResolveManifestPath(dir);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, dir + "/manifest-g000001.jmim");
  resolved = ingest::ResolveManifestPath(dir + "/CURRENT");
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, dir + "/manifest-g000001.jmim");
  resolved = ingest::ResolveManifestPath(dir + "/manifest.jmim");
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, dir + "/manifest.jmim");

  // Damage to the published manifest fails resolution loudly — CURRENT
  // must always name a complete, checksum-valid generation.
  AppendGarbage(dir + "/manifest-g000001.jmim", "!");
  EXPECT_FALSE(ingest::ResolveManifestPath(dir).ok());

  // CURRENT naming a missing file fails too.
  ASSERT_TRUE(ingest::WriteFileDurable(dir + "/manifest-g000002.jmim", "two")
                  .ok());
  ASSERT_TRUE(ingest::PublishCurrent(dir, "manifest-g000002.jmim").ok());
  std::filesystem::remove(dir + "/manifest-g000002.jmim");
  EXPECT_FALSE(ingest::ResolveManifestPath(dir).ok());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------- manifest version compat

// Hand-encodes a legacy manifest buffer: two shards, four candidates,
// interleaved global indices. `version` must be 2 or 3 (v3 appends the
// per-shard format byte the way old writers did).
std::string EncodeLegacyManifest(uint32_t version) {
  std::string data;
  wire::AppendRaw(&data, "JMIM", 4);
  wire::AppendPod<uint32_t>(&data, version);
  wire::AppendPod<uint8_t>(&data, 0);  // policy: round robin
  wire::AppendPod<uint8_t>(&data, 0);  // has_config = 0
  wire::AppendPod<uint64_t>(&data, 2);  // shard_count
  wire::AppendPod<uint64_t>(&data, 4);  // total_candidates
  for (size_t shard = 0; shard < 2; ++shard) {
    wire::AppendLengthPrefixed(
        &data, "shard_0000" + std::to_string(shard) + ".jmix");
    wire::AppendPod<uint64_t>(&data, 2);  // candidate_count
    wire::AppendPod<uint64_t>(&data, 0x1111u * (shard + 1));  // checksum
    if (version >= 3) {
      wire::AppendPod<uint8_t>(&data, shard == 1 ? 1 : 0);  // format
    }
    wire::AppendPod<uint64_t>(&data, shard);      // global indices
    wire::AppendPod<uint64_t>(&data, shard + 2);
  }
  return data;
}

TEST(ManifestCompatTest, HandEncodedV2LoadsUnderTheV4Reader) {
  auto manifest = DeserializeManifest(EncodeLegacyManifest(2));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->epoch, 0u);  // pre-epoch manifests imply epoch 0
  EXPECT_FALSE(manifest->config.has_value());
  EXPECT_EQ(manifest->total_candidates, 4u);
  ASSERT_EQ(manifest->shards.size(), 2u);
  for (const ShardManifestEntry& entry : manifest->shards) {
    EXPECT_EQ(entry.format, ShardFileFormat::kWholeFile);
    EXPECT_FALSE(entry.has_delta());
    EXPECT_TRUE(entry.delta_path.empty());
  }
}

TEST(ManifestCompatTest, HandEncodedV3LoadsUnderTheV4Reader) {
  auto manifest = DeserializeManifest(EncodeLegacyManifest(3));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->epoch, 0u);
  ASSERT_EQ(manifest->shards.size(), 2u);
  EXPECT_EQ(manifest->shards[0].format, ShardFileFormat::kWholeFile);
  EXPECT_EQ(manifest->shards[1].format, ShardFileFormat::kPaged);
  EXPECT_FALSE(manifest->shards[0].has_delta());
  EXPECT_FALSE(manifest->shards[1].has_delta());
}

ShardManifest MakeCompatManifest() {
  ShardManifest manifest;
  manifest.policy = ShardPartitionPolicy::kRoundRobin;
  manifest.config = MakeIndexConfig();
  manifest.total_candidates = 4;
  for (size_t shard = 0; shard < 2; ++shard) {
    ShardManifestEntry entry;
    entry.path = "shard_0000" + std::to_string(shard) + ".jmix";
    entry.candidate_count = 2;
    entry.checksum = 0x2222u * (shard + 1);
    entry.global_indices = {shard, shard + 2};
    manifest.shards.push_back(std::move(entry));
  }
  return manifest;
}

TEST(ManifestCompatTest, DefaultEpochManifestsKeepTheOldestVersion) {
  // Epoch 0, whole-file, no deltas: serializes as v2, byte-identical to
  // what pre-ingest builds wrote — repartitioning must not gratuitously
  // break an older reader.
  const std::string v2_bytes = SerializeManifest(MakeCompatManifest());
  uint32_t version = 0;
  std::memcpy(&version, v2_bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2u);

  // A nonzero epoch forces v4 and round-trips byte-exactly.
  ShardManifest epoch_manifest = MakeCompatManifest();
  epoch_manifest.epoch = 7;
  const std::string v4_bytes = SerializeManifest(epoch_manifest);
  std::memcpy(&version, v4_bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 4u);
  auto reread = DeserializeManifest(v4_bytes);
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_EQ(reread->epoch, 7u);
  EXPECT_EQ(SerializeManifest(*reread), v4_bytes);

  // So does a manifest carrying delta references.
  ShardManifest delta_manifest = MakeCompatManifest();
  delta_manifest.epoch = 1;
  delta_manifest.total_candidates = 5;
  delta_manifest.shards[1].candidate_count = 3;
  delta_manifest.shards[1].global_indices = {1, 3, 4};
  delta_manifest.shards[1].delta_path = "shard_00001.jmds";
  delta_manifest.shards[1].delta_records = 1;
  delta_manifest.shards[1].delta_bytes = 321;
  delta_manifest.shards[1].delta_checksum = 0xfeed;
  const std::string delta_bytes = SerializeManifest(delta_manifest);
  auto delta_reread = DeserializeManifest(delta_bytes);
  ASSERT_TRUE(delta_reread.ok()) << delta_reread.status();
  ASSERT_TRUE(delta_reread->shards[1].has_delta());
  EXPECT_EQ(delta_reread->shards[1].delta_bytes, 321u);
  EXPECT_EQ(delta_reread->shards[1].base_candidate_count(), 2u);
  EXPECT_EQ(SerializeManifest(*delta_reread), delta_bytes);
}

TEST(ManifestCompatTest, UnknownFutureVersionFailsClearly) {
  std::string bytes = SerializeManifest(MakeCompatManifest());
  const uint32_t future = 9;
  std::memcpy(&bytes[4], &future, sizeof(future));
  auto manifest = DeserializeManifest(bytes);
  ASSERT_FALSE(manifest.ok());
  EXPECT_NE(manifest.status().message().find("v1-v4"), std::string::npos)
      << manifest.status();
}

// ------------------------------------------------------- ingest lifecycle

class IngestTest : public testing::Test {
 protected:
  void SetUp() override {
    universe_ = MakeUniverse();
    full_index_ = std::make_unique<SketchIndex>(MakeIndexConfig());
    ASSERT_TRUE(full_index_->IndexRepository(universe_.repository).ok());
    ASSERT_EQ(full_index_->size(), 8u);
    dir_ = ScratchDir(
        testing::UnitTest::GetInstance()->current_test_info()->name());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The first `count` candidates as their own index — the "state of the
  /// world when the base shards were built".
  SketchIndex PrefixIndex(size_t count) {
    SketchIndex index(full_index_->config());
    for (size_t i = 0; i < count; ++i) {
      const IndexedCandidate& candidate = full_index_->candidates()[i];
      index.AddSketch(candidate.ref, candidate.sketch()).Abort();
    }
    return index;
  }

  /// Candidates [from, size) in enumeration order — what gets appended.
  std::vector<CandidateRecord> TailRecords(size_t from) {
    std::vector<CandidateRecord> records;
    for (size_t i = from; i < full_index_->size(); ++i) {
      const IndexedCandidate& candidate = full_index_->candidates()[i];
      records.push_back(CandidateRecord{candidate.ref, candidate.sketch()});
    }
    return records;
  }

  std::string BuildDeployment(size_t base_count, size_t num_shards,
                              ShardPartitionPolicy policy,
                              const ShardBuildOptions& options,
                              const std::string& name) {
    const SketchIndex base = PrefixIndex(base_count);
    auto manifest_path =
        BuildShards(base, num_shards, policy, dir_ + "/" + name, options);
    EXPECT_TRUE(manifest_path.ok()) << manifest_path.status();
    return dir_ + "/" + name;
  }

  Result<TopKSearchResult> Search(const Searchable& target, size_t k,
                                  size_t num_threads) {
    return TopKJoinMISearch(*universe_.base, {"K", "Y"}, target, k,
                            num_threads);
  }

  Universe universe_;
  std::unique_ptr<SketchIndex> full_index_;
  std::string dir_;
};

TEST_F(IngestTest, AppendPublishServesBitIdenticalToFromScratchRebuild) {
  struct Layout {
    ShardPartitionPolicy policy;
    ShardBuildOptions options;
    const char* name;
  };
  ShardBuildOptions paged;
  paged.format = ShardFileFormat::kPaged;
  paged.page_size = 256;
  const std::vector<Layout> layouts = {
      {ShardPartitionPolicy::kRoundRobin, ShardBuildOptions{}, "whole"},
      {ShardPartitionPolicy::kHashByDataset, paged, "paged"},
  };
  const size_t base_count = 5;
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    const std::string deployment = BuildDeployment(
        base_count, 3, layout.policy, layout.options, layout.name);
    // The from-scratch rebuild of the final candidate set — the oracle
    // every post-swap ranking must match byte for byte.
    auto rebuilt_path =
        BuildShards(*full_index_, 3, layout.policy,
                    dir_ + "/" + layout.name + "_rebuilt", layout.options);
    ASSERT_TRUE(rebuilt_path.ok()) << rebuilt_path.status();
    auto rebuilt = ShardedSketchIndex::Load(*rebuilt_path);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

    auto coordinator = ingest::IngestCoordinator::Open(deployment);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status();
    EXPECT_EQ((*coordinator)->epoch(), 0u);
    EXPECT_EQ((*coordinator)->published_candidates(), base_count);
    EXPECT_EQ((*coordinator)->pending_candidates(), 0u);
    ASSERT_TRUE((*coordinator)->Append(TailRecords(base_count)).ok());
    EXPECT_EQ((*coordinator)->pending_candidates(), 8u - base_count);

    // Durable but not visible: the deployment still serves the base set.
    auto pre_swap_path = ingest::ResolveManifestPath(deployment);
    ASSERT_TRUE(pre_swap_path.ok()) << pre_swap_path.status();
    auto pre_swap = ShardedSketchIndex::Load(*pre_swap_path);
    ASSERT_TRUE(pre_swap.ok()) << pre_swap.status();
    EXPECT_EQ(pre_swap->size(), base_count);
    const SketchIndex base = PrefixIndex(base_count);
    for (size_t k : {1u, 3u, 8u}) {
      auto expected = Search(base, k, 1);
      ASSERT_TRUE(expected.ok()) << expected.status();
      auto actual = Search(*pre_swap, k, 1);
      ASSERT_TRUE(actual.ok()) << actual.status();
      ExpectBitIdentical(*expected, *actual);
    }

    // A coordinator re-opened after a crash re-adopts the committed
    // records instead of losing or double-counting them.
    coordinator->reset();
    coordinator = ingest::IngestCoordinator::Open(deployment);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status();
    EXPECT_EQ((*coordinator)->pending_candidates(), 8u - base_count);

    auto epoch = (*coordinator)->Publish();
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    EXPECT_EQ(*epoch, 1u);
    EXPECT_EQ((*coordinator)->pending_candidates(), 0u);

    auto post_swap_path = ingest::ResolveManifestPath(deployment);
    ASSERT_TRUE(post_swap_path.ok()) << post_swap_path.status();
    EXPECT_NE(*post_swap_path, *pre_swap_path);
    auto post_swap = ShardedSketchIndex::Load(*post_swap_path);
    ASSERT_TRUE(post_swap.ok()) << post_swap.status();
    EXPECT_EQ(post_swap->size(), 8u);
    EXPECT_EQ(post_swap->manifest().epoch, 1u);
    for (size_t k : {1u, 3u, 8u}) {
      for (size_t threads : {1u, 2u}) {
        auto expected = Search(*full_index_, k, threads);
        ASSERT_TRUE(expected.ok()) << expected.status();
        auto overlay = Search(*post_swap, k, threads);
        ASSERT_TRUE(overlay.ok()) << overlay.status();
        ExpectBitIdentical(*expected, *overlay);
        auto from_scratch = Search(*rebuilt, k, threads);
        ASSERT_TRUE(from_scratch.ok()) << from_scratch.status();
        ExpectBitIdentical(*from_scratch, *overlay);
      }
    }

    // Garbage appended past the manifest-pinned prefix (a torn later
    // append) never disturbs serving: loads read exactly the pinned bytes.
    for (const ShardManifestEntry& entry : post_swap->manifest().shards) {
      if (entry.has_delta()) {
        AppendGarbage(deployment + "/" + entry.delta_path, "torn-tail!");
      }
    }
    auto after_tear = ShardedSketchIndex::Load(*post_swap_path);
    ASSERT_TRUE(after_tear.ok()) << after_tear.status();
    auto expected = Search(*full_index_, 3, 1);
    auto served = Search(*after_tear, 3, 1);
    ASSERT_TRUE(expected.ok() && served.ok());
    ExpectBitIdentical(*expected, *served);
  }
}

TEST_F(IngestTest, CompactionFoldsDeltasIntoByteIdenticalBases) {
  const size_t base_count = 5;
  const std::string deployment =
      BuildDeployment(base_count, 2, ShardPartitionPolicy::kRoundRobin,
                      ShardBuildOptions{}, "compact");
  auto coordinator = ingest::IngestCoordinator::Open(deployment);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  ASSERT_TRUE((*coordinator)->Append(TailRecords(base_count)).ok());
  auto published = (*coordinator)->Publish();
  ASSERT_TRUE(published.ok()) << published.status();

  auto compacted_epoch = (*coordinator)->Compact();
  ASSERT_TRUE(compacted_epoch.ok()) << compacted_epoch.status();
  EXPECT_EQ(*compacted_epoch, 2u);

  auto manifest_path = ingest::ResolveManifestPath(deployment);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  EXPECT_EQ(manifest->epoch, 2u);

  // The oracle: a from-scratch build of the full candidate set. Shard
  // file names differ (compacted bases are generation-stamped) but the
  // bytes must be identical — manifest checksums prove it.
  auto rebuilt_path = BuildShards(*full_index_, 2,
                                  ShardPartitionPolicy::kRoundRobin,
                                  dir_ + "/compact_rebuilt");
  ASSERT_TRUE(rebuilt_path.ok()) << rebuilt_path.status();
  auto rebuilt_manifest = ReadManifestFile(*rebuilt_path);
  ASSERT_TRUE(rebuilt_manifest.ok()) << rebuilt_manifest.status();
  ASSERT_EQ(manifest->shards.size(), rebuilt_manifest->shards.size());
  for (size_t shard = 0; shard < manifest->shards.size(); ++shard) {
    const ShardManifestEntry& compacted = manifest->shards[shard];
    const ShardManifestEntry& scratch = rebuilt_manifest->shards[shard];
    EXPECT_FALSE(compacted.has_delta()) << shard;
    EXPECT_TRUE(compacted.delta_path.empty()) << shard;
    EXPECT_EQ(compacted.candidate_count, scratch.candidate_count) << shard;
    EXPECT_EQ(compacted.checksum, scratch.checksum) << shard;
    EXPECT_EQ(compacted.global_indices, scratch.global_indices) << shard;
    // Byte-level receipt on top of the checksum match.
    auto compacted_bytes =
        wire::ReadFileBytes(deployment + "/" + compacted.path);
    auto scratch_bytes = wire::ReadFileBytes(
        std::filesystem::path(*rebuilt_path).parent_path().string() + "/" +
        scratch.path);
    ASSERT_TRUE(compacted_bytes.ok() && scratch_bytes.ok());
    EXPECT_EQ(*compacted_bytes, *scratch_bytes) << shard;
  }

  // Rankings after compaction stay bit-identical to the rebuild.
  auto compacted_index = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(compacted_index.ok()) << compacted_index.status();
  auto expected = Search(*full_index_, 8, 1);
  auto actual = Search(*compacted_index, 8, 1);
  ASSERT_TRUE(expected.ok() && actual.ok());
  ExpectBitIdentical(*expected, *actual);

  // The pre-compaction generation still loads — old readers are never
  // invalidated by a publish.
  auto old_generation = ShardedSketchIndex::Load(
      deployment + "/" + ingest::GenerationManifestName(1));
  ASSERT_TRUE(old_generation.ok()) << old_generation.status();
  EXPECT_EQ(old_generation->manifest().epoch, 1u);
}

TEST_F(IngestTest, TornManifestSwapNeverCorruptsServing) {
  const std::string deployment =
      BuildDeployment(5, 2, ShardPartitionPolicy::kRoundRobin,
                      ShardBuildOptions{}, "torn");
  auto coordinator = ingest::IngestCoordinator::Open(deployment);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  ASSERT_TRUE((*coordinator)->Append(TailRecords(5)).ok());
  auto epoch = (*coordinator)->Publish();
  ASSERT_TRUE(epoch.ok()) << epoch.status();

  // A half-written next generation that never flipped CURRENT is inert:
  // resolution still lands on the published generation.
  ASSERT_TRUE(wire::WriteFileBytes("JMIMtrunc",
                                   deployment + "/manifest-g000002.jmim")
                  .ok());
  ASSERT_TRUE(
      wire::WriteFileBytes("garbage", deployment + "/CURRENT.tmp").ok());
  auto resolved = ingest::ResolveManifestPath(deployment);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved,
            deployment + "/" + ingest::GenerationManifestName(1));
  auto serving = ShardedSketchIndex::Load(*resolved);
  ASSERT_TRUE(serving.ok()) << serving.status();
  EXPECT_EQ(serving->size(), 8u);

  // Even if CURRENT itself were flipped to the truncated generation (its
  // checksum intact, so resolution succeeds), loading fails loudly with a
  // parse error instead of serving wrong data.
  ASSERT_TRUE(
      ingest::PublishCurrent(deployment, "manifest-g000002.jmim").ok());
  resolved = ingest::ResolveManifestPath(deployment);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_FALSE(ShardedSketchIndex::Load(*resolved).ok());

  // Flip back: the intact generation serves again, bit-identically.
  ASSERT_TRUE(
      ingest::PublishCurrent(deployment, "manifest-g000001.jmim").ok());
  auto restored =
      ShardedSketchIndex::Load(*ingest::ResolveManifestPath(deployment));
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto expected = Search(*full_index_, 3, 1);
  auto actual = Search(*restored, 3, 1);
  ASSERT_TRUE(expected.ok() && actual.ok());
  ExpectBitIdentical(*expected, *actual);
}

// ------------------------------------------------- serving-tier reloads

TEST_F(IngestTest, ShardServerReloadPicksUpNewEpochOverRpc) {
  const size_t base_count = 5;
  const std::string deployment =
      BuildDeployment(base_count, 1, ShardPartitionPolicy::kRoundRobin,
                      ShardBuildOptions{}, "server");
  auto server = ShardServer::Create(deployment, 0);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->Start().ok());
  EXPECT_EQ((*server)->epoch(), 0u);
  EXPECT_EQ((*server)->num_candidates(), base_count);

  const JoinMIConfig config = (*server)->config();
  ServingOptions serving;
  serving.pool_size = 1;  // the handshaked connection survives reload
  auto client =
      ReplicaShardClient::Create({{"127.0.0.1", (*server)->port()}}, config,
                                 base_count, serving);
  ASSERT_TRUE(client.ok()) << client.status();

  auto query = JoinMIQuery::Create(*universe_.base, "K", "Y", config);
  ASSERT_TRUE(query.ok()) << query.status();

  // Pre-swap: the server answers from the base generation.
  auto base_local =
      ShardedSketchIndex::Load(*ingest::ResolveManifestPath(deployment));
  ASSERT_TRUE(base_local.ok()) << base_local.status();
  auto expected_old = base_local->Search(*query, 5, 1);
  ASSERT_TRUE(expected_old.ok()) << expected_old.status();
  auto remote_old = (*client)->Search(*query, 5, 1);
  ASSERT_TRUE(remote_old.ok()) << remote_old.status();
  ExpectSameShardHits(*expected_old, *remote_old);

  // Publish a new generation while the server keeps running, with a
  // search thread racing the reload — every answer must be bit-identical
  // to one of the two generations, never a blend.
  auto coordinator = ingest::IngestCoordinator::Open(deployment);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  ASSERT_TRUE((*coordinator)->Append(TailRecords(base_count)).ok());
  auto epoch = (*coordinator)->Publish();
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ((*server)->epoch(), 0u);  // durable != visible until reload

  auto new_local =
      ShardedSketchIndex::Load(*ingest::ResolveManifestPath(deployment));
  ASSERT_TRUE(new_local.ok()) << new_local.status();
  auto expected_new = new_local->Search(*query, 5, 1);
  ASSERT_TRUE(expected_new.ok()) << expected_new.status();

  std::atomic<bool> mismatch{false};
  std::thread searcher([&] {
    for (int i = 0; i < 20 && !mismatch.load(); ++i) {
      auto result = (*client)->Search(*query, 5, 1);
      if (!result.ok()) {
        mismatch.store(true);
        break;
      }
      const bool old_match =
          result->hits.size() == expected_old->hits.size() &&
          result->num_candidates == expected_old->num_candidates;
      const bool new_match =
          result->hits.size() == expected_new->hits.size() &&
          result->num_candidates == expected_new->num_candidates;
      if (!old_match && !new_match) mismatch.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto reload = (*client)->replica(0).Reload();
  searcher.join();
  EXPECT_FALSE(mismatch.load());
  ASSERT_TRUE(reload.ok()) << reload.status();
  EXPECT_EQ(reload->epoch, 1u);
  EXPECT_EQ(reload->num_candidates, 8u);
  EXPECT_EQ((*server)->epoch(), 1u);
  EXPECT_EQ((*server)->reloads_served(), 1u);
  EXPECT_EQ((*server)->num_candidates(), 8u);
  EXPECT_NE((*server)->StatsJson().find("server.epoch"), std::string::npos);

  // Post-reload answers over the existing connection are bit-identical to
  // the new generation (and thus to a from-scratch rebuild — the local
  // load above reads the same delta-overlay path the rebuild oracle
  // checks in AppendPublishServesBitIdenticalToFromScratchRebuild).
  auto remote_new = (*client)->Search(*query, 5, 1);
  ASSERT_TRUE(remote_new.ok()) << remote_new.status();
  ExpectSameShardHits(*expected_new, *remote_new);
  (*server)->Stop();
}

TEST_F(IngestTest, RouterReloadServesNewEpochAndInvalidatesCache) {
  const size_t base_count = 5;
  const std::string deployment =
      BuildDeployment(base_count, 2, ShardPartitionPolicy::kRoundRobin,
                      ShardBuildOptions{}, "router");
  RouterOptions options;
  options.manifest_path = deployment;  // directory ref: follows CURRENT
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  EXPECT_EQ((*router)->epoch(), 0u);
  EXPECT_EQ((*router)->size(), base_count);

  const SketchIndex base = PrefixIndex(base_count);
  auto expected_old = Search(base, 3, 1);
  ASSERT_TRUE(expected_old.ok()) << expected_old.status();
  auto first = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectBitIdentical(*expected_old, *first);
  auto cached = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ((*router)->cache_stats().hits, 1u);

  auto coordinator = ingest::IngestCoordinator::Open(deployment);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  ASSERT_TRUE((*coordinator)->Append(TailRecords(base_count)).ok());
  ASSERT_TRUE((*coordinator)->Publish().ok());

  // Not yet reloaded: the router still serves (and caches) the old epoch.
  EXPECT_EQ((*router)->epoch(), 0u);
  ASSERT_TRUE((*router)->Reload().ok());
  EXPECT_EQ((*router)->epoch(), 1u);
  EXPECT_EQ((*router)->size(), 8u);
  EXPECT_EQ((*router)->metrics().CounterValue("router.reload.count"), 1u);
  EXPECT_EQ((*router)->metrics().CounterValue("router.manifest.epoch"), 1u);
  EXPECT_EQ((*router)->cache_stats().entries, 0u);  // cache invalidated

  auto expected_new = Search(*full_index_, 3, 1);
  ASSERT_TRUE(expected_new.ok()) << expected_new.status();
  auto reloaded = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ExpectBitIdentical(*expected_new, *reloaded);
  EXPECT_EQ((*router)->cache_stats().hits, 1u);  // miss, not a stale hit

  const std::string json = (*router)->StatsJson();
  EXPECT_NE(json.find("router.manifest.epoch"), std::string::npos);
  EXPECT_NE(json.find("router.reload.count"), std::string::npos);
  // One counter per event: the old duplicate name is gone.
  EXPECT_EQ(json.find("\"router.reloads\""), std::string::npos);
}

TEST_F(IngestTest, RouterStatsKeepPagedPoolCountersThroughADeltaOverlay) {
  // Once a publish pins a delta, each paged shard is served through a
  // DeltaShardClient; the stats snapshot must still reach its pool.
  ShardBuildOptions paged;
  paged.format = ShardFileFormat::kPaged;
  paged.page_size = 256;
  const size_t base_count = 5;
  const std::string deployment = BuildDeployment(
      base_count, 2, ShardPartitionPolicy::kRoundRobin, paged, "paged_stats");
  RouterOptions options;
  options.manifest_path = deployment;
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();
  ASSERT_TRUE((*router)->Search(*universe_.base, {"K", "Y"}, 3).ok());

  auto coordinator = ingest::IngestCoordinator::Open(deployment);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  ASSERT_TRUE((*coordinator)->Append(TailRecords(base_count)).ok());
  ASSERT_TRUE((*coordinator)->Publish().ok());
  ASSERT_TRUE((*router)->Reload().ok());
  ASSERT_TRUE((*router)->Search(*universe_.base, {"K", "Y"}, 3).ok());

  // The first snapshot is taken only now, so every pool.* gauge below
  // must come from the overlay-wrapped shards.
  const std::string json = (*router)->StatsJson();
  for (const char* name : {"hits", "misses", "evictions"}) {
    for (size_t shard = 0; shard < 2; ++shard) {
      const std::string key = "\"shard." + std::to_string(shard) + ".pool." +
                              name + "\"";
      EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
    }
  }
  EXPECT_GT((*router)->metrics().CounterValue("shard.0.pool.misses"), 0u);
}

TEST_F(IngestTest, RouterReloadUnderConcurrentQueriesStaysBitIdentical) {
  const size_t base_count = 5;
  const std::string deployment =
      BuildDeployment(base_count, 2, ShardPartitionPolicy::kRoundRobin,
                      ShardBuildOptions{}, "race");
  RouterOptions options;
  options.manifest_path = deployment;
  auto router = Router::Open(options);
  ASSERT_TRUE(router.ok()) << router.status();

  const SketchIndex base = PrefixIndex(base_count);
  auto expected_old = Search(base, 3, 1);
  auto expected_new = Search(*full_index_, 3, 1);
  ASSERT_TRUE(expected_old.ok() && expected_new.ok());

  // Searchers race the append/publish/reload below. Every answer — cache
  // hit or recomputation, before, during, or after the swap — must be
  // bit-identical to exactly one epoch's expected ranking.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> searchers;
  for (int thread = 0; thread < 2; ++thread) {
    searchers.emplace_back([&] {
      for (int i = 0; i < 25 && !mismatch.load(); ++i) {
        auto result = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
        if (!result.ok() || (!Matches(*expected_old, *result) &&
                             !Matches(*expected_new, *result))) {
          mismatch.store(true);
        }
      }
    });
  }
  auto coordinator = ingest::IngestCoordinator::Open(deployment);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status();
  ASSERT_TRUE((*coordinator)->Append(TailRecords(base_count)).ok());
  ASSERT_TRUE((*coordinator)->Publish().ok());
  ASSERT_TRUE((*router)->Reload().ok());
  for (std::thread& searcher : searchers) searcher.join();
  EXPECT_FALSE(mismatch.load());

  auto final_result = (*router)->Search(*universe_.base, {"K", "Y"}, 3);
  ASSERT_TRUE(final_result.ok()) << final_result.status();
  ExpectBitIdentical(*expected_new, *final_result);
  EXPECT_EQ((*router)->epoch(), 1u);
}

}  // namespace
}  // namespace joinmi
