// Tests for the candidate-scoring hot path: the probe contract (unsorted,
// duplicated or train-side candidates fail with a structured error instead
// of a silently wrong join — at the kernel, at SketchIndex::AddSketch, and
// when a JMIX or JMPS payload carries one), the kernel's outcome for edge
// cases, and bit-identity of the batched SketchIndex::EvaluateAll against
// the per-candidate JoinMIQuery::Estimate path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/paged_shard_index.h"
#include "src/discovery/sketch_index.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"
#include "src/storage/paged_shard_file.h"
#include "src/table/table.h"

namespace joinmi {
namespace {

// ------------------------------------------- prepared-join probe contract

Sketch MakeCandidateSketch(std::vector<std::pair<uint64_t, int64_t>> entries,
                           uint32_t seed = 0) {
  Sketch sketch;
  sketch.side = SketchSide::kCandidate;
  sketch.capacity = entries.size();
  sketch.hash_seed = seed;
  for (const auto& [key, value] : entries) {
    SketchEntry entry;
    entry.key_hash = key;
    entry.value = Value(value);
    sketch.entries.push_back(std::move(entry));
  }
  return sketch;
}

Sketch MakeTrainSketch(std::vector<std::pair<uint64_t, int64_t>> entries,
                       uint32_t seed = 0) {
  Sketch sketch = MakeCandidateSketch(std::move(entries), seed);
  sketch.side = SketchSide::kTrain;
  return sketch;
}

TEST(ProbeContractTest, UnsortedCandidateEntriesFailStructurally) {
  auto prepared =
      PreparedTrainSketch::Create(MakeTrainSketch({{1, 1}, {2, 2}, {3, 3}}));
  ASSERT_TRUE(prepared.ok());
  // Keys present in the train sketch but out of order: previously this
  // produced a join whose outcome silently depended on probe order; now it
  // is a structured contract violation.
  Sketch unsorted = MakeCandidateSketch({{3, 30}, {1, 10}});
  auto joined = prepared->Join(unsorted);
  ASSERT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().IsInvalidArgument());
  EXPECT_NE(joined.status().message().find("not sorted"), std::string::npos)
      << joined.status().ToString();
}

TEST(ProbeContractTest, DuplicateCandidateKeysStillRejected) {
  auto prepared =
      PreparedTrainSketch::Create(MakeTrainSketch({{1, 1}, {2, 2}}));
  ASSERT_TRUE(prepared.ok());
  Sketch duplicated = MakeCandidateSketch({{2, 20}, {2, 21}});
  auto joined = prepared->Join(duplicated);
  ASSERT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().IsInvalidArgument());
  EXPECT_NE(joined.status().message().find("duplicate"), std::string::npos);
}

TEST(ProbeContractTest, SortedCandidateStillJoinsIdenticallyToJoinSketches) {
  Sketch train = MakeTrainSketch({{1, 5}, {1, 6}, {4, 7}, {9, 8}});
  Sketch candidate = MakeCandidateSketch({{1, 100}, {9, 900}, {12, 1200}});
  auto prepared = PreparedTrainSketch::Create(train);
  ASSERT_TRUE(prepared.ok());
  auto reference = JoinSketches(train, candidate);
  ASSERT_TRUE(reference.ok());
  auto fast = prepared->Join(candidate);
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(fast->join_size, reference->join_size);
  ASSERT_EQ(fast->matched_keys, reference->matched_keys);
  ASSERT_EQ(fast->sample.x.size(), reference->sample.x.size());
  for (size_t i = 0; i < fast->sample.size(); ++i) {
    EXPECT_EQ(fast->sample.x[i], reference->sample.x[i]) << i;
    EXPECT_EQ(fast->sample.y[i], reference->sample.y[i]) << i;
  }
}

TEST(ProbeContractTest, KernelSkipsAnEmptyCandidate) {
  auto prepared =
      PreparedTrainSketch::Create(MakeTrainSketch({{1, 1}, {2, 2}}));
  ASSERT_TRUE(prepared.ok());
  const Sketch empty = MakeCandidateSketch({});
  PairedSample scratch;
  const CandidateScore score =
      prepared->Score(empty, MIEstimatorKind::kMLE, {}, 1, &scratch);
  EXPECT_EQ(score.kind, CandidateScore::Kind::kSkipped);
  EXPECT_EQ(score.result.join_size, 0u);
  auto joined = prepared->Join(empty);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->join_size, 0u);
  EXPECT_EQ(joined->matched_keys, 0u);
}

TEST(ProbeContractTest, KernelRejectsSeedAndSideMismatches) {
  auto prepared =
      PreparedTrainSketch::Create(MakeTrainSketch({{5, 9}}, /*seed=*/3));
  ASSERT_TRUE(prepared.ok());
  PairedSample scratch;
  const Sketch other_seed = MakeCandidateSketch({{5, 1}}, /*seed=*/4);
  CandidateScore score =
      prepared->Score(other_seed, MIEstimatorKind::kMLE, {}, 1, &scratch);
  EXPECT_EQ(score.kind, CandidateScore::Kind::kError);
  EXPECT_TRUE(score.error.IsInvalidArgument());
  EXPECT_TRUE(prepared->Join(other_seed).status().IsInvalidArgument());
  const Sketch wrong_side = MakeTrainSketch({{5, 1}}, /*seed=*/3);
  score = prepared->Score(wrong_side, MIEstimatorKind::kMLE, {}, 1, &scratch);
  EXPECT_EQ(score.kind, CandidateScore::Kind::kError);
  const Sketch same_seed = MakeCandidateSketch({{5, 1}}, /*seed=*/3);
  auto joined = prepared->Join(same_seed);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->join_size, 1u);
}

TEST(ProbeContractTest, AddSketchRejectsContractViolations) {
  SketchIndex index{JoinMIConfig{}};
  ASSERT_TRUE(
      index.AddSketch({"ok", "K", "V"}, MakeCandidateSketch({{1, 10}, {2, 20}}))
          .ok());
  Status duplicated =
      index.AddSketch({"dup", "K", "V"}, MakeCandidateSketch({{5, 1}, {5, 2}}));
  EXPECT_TRUE(duplicated.IsInvalidArgument());
  EXPECT_NE(duplicated.message().find("duplicate"), std::string::npos);
  // Reversed entries: before the contract was checked here, the batched
  // merge skipped such a candidate while the paged path scored it.
  Status reversed = index.AddSketch(
      {"reversed", "K", "V"}, MakeCandidateSketch({{9, 1}, {4, 2}, {2, 3}}));
  EXPECT_TRUE(reversed.IsInvalidArgument());
  EXPECT_NE(reversed.message().find("not sorted"), std::string::npos);
  EXPECT_NE(reversed.message().find("reversed"), std::string::npos);
  EXPECT_TRUE(index.AddSketch({"train", "K", "V"}, MakeTrainSketch({{1, 10}}))
                  .IsInvalidArgument());
  EXPECT_EQ(index.size(), 1u);
}

// A real candidate sketch and the same sketch with its entries reversed,
// for the byte paths that must refuse it.
struct ReversedCandidate {
  JoinMIConfig config;
  std::shared_ptr<Table> base;
  Sketch sorted;
  Sketch reversed;
};

ReversedCandidate MakeReversedCandidate() {
  ReversedCandidate out;
  out.config.sketch_capacity = 64;
  out.config.estimator = MIEstimatorKind::kMLE;
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (size_t i = 0; i < 100; ++i) {
    keys.push_back("k" + std::to_string(i));
    values.push_back(static_cast<int64_t>(i % 5));
  }
  out.base = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                  {"Y", Column::MakeInt64(values)}});
  auto query = *JoinMIQuery::Create(*out.base, "K", "Y", out.config);
  out.sorted = *query.SketchCandidate(*out.base, "K", "Y");
  out.reversed = out.sorted;
  std::reverse(out.reversed.entries.begin(), out.reversed.entries.end());
  return out;
}

TEST(UnsortedCandidateTest, IndexBlobCarryingOneFailsToLoadNamingIt) {
  ReversedCandidate c = MakeReversedCandidate();
  SketchIndex index(c.config);
  ASSERT_TRUE(index.AddSketch({"good", "K", "Y"}, c.sorted).ok());
  ASSERT_TRUE(index.AddSketch({"bad", "K", "Y"}, c.sorted).ok());
  // Swap the second candidate's sketch bytes for the reversed sketch's —
  // same length, so the blob stays well-formed.
  std::string blob = SerializeIndex(index);
  const std::string sorted_bytes = SerializeSketch(c.sorted);
  const std::string reversed_bytes = SerializeSketch(c.reversed);
  ASSERT_EQ(sorted_bytes.size(), reversed_bytes.size());
  const size_t at = blob.rfind(sorted_bytes);
  ASSERT_NE(at, std::string::npos);
  blob.replace(at, sorted_bytes.size(), reversed_bytes);
  auto loaded = DeserializeIndex(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("candidate 1 of 2"),
            std::string::npos)
      << loaded.status();
  EXPECT_NE(loaded.status().message().find("bad"), std::string::npos)
      << loaded.status();
}

TEST(UnsortedCandidateTest, PagedRecordCarryingOneCountsAsAnError) {
  ReversedCandidate c = MakeReversedCandidate();
  auto bytes = storage::BuildPagedShardBytes(
      c.config,
      {EncodeCandidateRecord({"good", "K", "Y"}, c.sorted),
       EncodeCandidateRecord({"bad", "K", "Y"}, c.reversed)},
      256);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const std::string path = ::testing::TempDir() + "/reversed_candidate.jmps";
  ASSERT_TRUE(wire::WriteFileBytes(*bytes, path).ok());
  auto client = PagedShardClient::Open(path, {0, 1});
  ASSERT_TRUE(client.ok()) << client.status();
  auto query = *JoinMIQuery::Create(*c.base, "K", "Y", c.config);
  auto result = (*client)->Search(query, 10, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->num_evaluated, 1u);
  EXPECT_EQ(result->num_errors, 1u);
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].global_index, 0u);
  std::filesystem::remove(path);
}

// ------------------------------------- batched EvaluateAll bit-identity

std::shared_ptr<Table> MakeTwoColumnTable(const std::string& key_name,
                                          std::vector<std::string> keys,
                                          const std::string& value_name,
                                          std::vector<int64_t> values) {
  return *Table::FromColumns(
      {{key_name, Column::MakeString(std::move(keys))},
       {value_name, Column::MakeInt64(std::move(values))}});
}

TEST(BatchedEvaluateAllTest, MatchesPerCandidatePreparedPathBitExactly) {
  Rng rng(5150);
  const size_t num_keys = 200;
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("k" + std::to_string(i));
    targets.push_back(static_cast<int64_t>(i % 9));
  }
  auto base = MakeTwoColumnTable("K", keys, "Y", targets);

  JoinMIConfig config;
  config.sketch_capacity = 128;
  config.min_join_size = 16;
  SketchIndex index(config);
  TableRepository repository;
  for (size_t t = 0; t < 12; ++t) {
    // Graded relevance plus partial key overlap so the index mixes real
    // hits, noise, and below-cutoff candidates.
    std::vector<std::string> cand_keys;
    std::vector<int64_t> cand_values;
    const size_t start = t * 10;
    for (size_t i = start; i < num_keys; ++i) {
      cand_keys.push_back("k" + std::to_string(i));
      cand_values.push_back(t % 3 == 0
                                ? static_cast<int64_t>(i % 9)
                                : static_cast<int64_t>(rng.NextBounded(9)));
    }
    repository
        .AddTable("t" + std::to_string(t),
                  MakeTwoColumnTable("K", std::move(cand_keys), "V",
                                     std::move(cand_values)))
        .Abort();
  }
  ASSERT_TRUE(index.IndexRepository(repository).ok());
  ASSERT_EQ(index.size(), 12u);

  auto query = *JoinMIQuery::Create(*base, "K", "Y", config);
  for (size_t num_threads : {1u, 2u, 4u}) {
    auto evaluation = index.EvaluateAll(query, num_threads);
    ASSERT_TRUE(evaluation.ok());
    ASSERT_EQ(evaluation->estimates.size(), index.size());
    size_t evaluated = 0;
    size_t skipped = 0;
    for (size_t c = 0; c < index.size(); ++c) {
      // Ground truth: the per-candidate entry point on the stored sketch.
      // Estimates must agree bit-for-bit, not approximately.
      auto reference = query.Estimate(index.candidates()[c].sketch());
      if (reference.ok()) {
        ++evaluated;
        ASSERT_TRUE(evaluation->estimates[c].has_value()) << c;
        EXPECT_EQ(evaluation->estimates[c]->mi, reference->mi) << c;
        EXPECT_EQ(evaluation->estimates[c]->sample_size,
                  reference->sample_size)
            << c;
        EXPECT_EQ(evaluation->estimates[c]->estimator, reference->estimator)
            << c;
        EXPECT_TRUE(evaluation->estimates[c]->sketched) << c;
      } else {
        ASSERT_TRUE(reference.status().IsOutOfRange()) << c;
        ++skipped;
        EXPECT_FALSE(evaluation->estimates[c].has_value()) << c;
      }
    }
    EXPECT_EQ(evaluation->num_evaluated, evaluated);
    EXPECT_EQ(evaluation->num_skipped, skipped);
    EXPECT_EQ(evaluation->num_errors, 0u);
  }
}

}  // namespace
}  // namespace joinmi
