// Unit tests for src/sketch: KMV heap, key hashing, the five sketch
// builders (size bounds, coordination, sampling properties), and the sketch
// join — including the paper's Section IV-B pathological example.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/common/random.h"
#include "src/common/thread_pool.h"
#include "src/join/left_join.h"
#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"
#include "src/sketch/serialize.h"
#include "src/sketch/sketch_join.h"

namespace joinmi {
namespace {

// ----------------------------------------------------------------- KMV ----

TEST(KmvHeapTest, KeepsMinimumRanks) {
  KmvHeap heap(3, 6);
  for (double rank : {0.9, 0.1, 0.5, 0.7, 0.3, 0.2}) {
    heap.Offer(SketchEntry{static_cast<uint64_t>(rank * 100), rank, Value()});
  }
  const auto entries = heap.TakeSorted();
  ASSERT_EQ(entries.size(), 3u);
  std::vector<double> ranks;
  for (const auto& e : entries) ranks.push_back(e.rank);
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(KmvHeapTest, WouldAdmitMatchesOfferBehavior) {
  KmvHeap heap(2, 2);
  heap.Offer(SketchEntry{1, 0.5, Value()});
  EXPECT_TRUE(heap.WouldAdmit(0.9));  // not yet full
  heap.Offer(SketchEntry{2, 0.8, Value()});
  EXPECT_TRUE(heap.WouldAdmit(0.7));
  EXPECT_FALSE(heap.WouldAdmit(0.8));  // equal rank not admitted
  EXPECT_FALSE(heap.WouldAdmit(0.9));
}

TEST(KmvHeapTest, ZeroCapacityAndUnderfill) {
  KmvHeap zero(0, 1);
  EXPECT_FALSE(zero.WouldAdmit(0.0));
  zero.Offer(SketchEntry{1, 0.1, Value()});
  EXPECT_EQ(zero.TakeSorted().size(), 0u);

  KmvHeap big(100, 1);
  big.Offer(SketchEntry{1, 0.1, Value()});
  EXPECT_EQ(big.TakeSorted().size(), 1u);
}

// ------------------------------------------------------------- KeyHash ----

TEST(KeyHashTest, DeterministicAndSeedSeparated) {
  EXPECT_EQ(HashKey(Value("k1"), 0), HashKey(Value("k1"), 0));
  EXPECT_NE(HashKey(Value("k1"), 0), HashKey(Value("k1"), 1));
  EXPECT_NE(HashKey(Value("k1"), 0), HashKey(Value("k2"), 0));
  EXPECT_EQ(HashKey(Value(int64_t{5}), 0), HashKey(Value(int64_t{5}), 0));
}

TEST(KeyHashTest, TypedHashEqualsValueHash) {
  // HashKeyAt reads cells through the typed accessors; it must agree with
  // HashKey over the cell's Value for every type, null cells included.
  const std::string long_string(40, 'z');
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::shared_ptr<Column>> columns = {
      Column::MakeString({"", "a", long_string, "", "k7"},
                         {true, true, true, false, true}),
      Column::MakeInt64({std::numeric_limits<int64_t>::min(),
                         (int64_t{1} << 53) + 1, 0, -1,
                         std::numeric_limits<int64_t>::max(), 3},
                        {true, true, true, true, true, false}),
      Column::MakeDouble({-0.0, 0.0, std::nan(""), inf, -inf, 3.0, 1.5},
                         {true, true, true, true, true, true, false}),
      // No constructor yields a kNull-typed column with rows: FromValues
      // types an all-null column as kString.
      *Column::FromValues({Value::Null(), Value::Null()}),
  };
  for (const auto& col : columns) {
    for (uint32_t seed : {0u, 7u}) {
      for (size_t row = 0; row < col->size(); ++row) {
        EXPECT_EQ(HashKeyAt(*col, row, seed), HashKey(col->GetValue(row), seed))
            << DataTypeToString(col->type()) << " row " << row << " seed "
            << seed;
      }
    }
  }
  EXPECT_EQ(HashKeyAt(*columns[2], 0, 0), HashKeyAt(*columns[2], 1, 0))
      << "-0.0 and +0.0 are one key";
}

TEST(KeyHashTest, TupleHashSeparatesOccurrences) {
  const uint64_t h = HashKey(Value("k"), 0);
  EXPECT_NE(TupleUnitHash(h, 1), TupleUnitHash(h, 2));
  EXPECT_NE(TupleUnitHash(h, 1), KeyUnitHash(h));
  EXPECT_EQ(TupleUnitHash(h, 3), TupleUnitHash(h, 3));
}

// ------------------------------------------------------ Builder helpers ---

/// Builds a train table with the given keys/targets.
std::shared_ptr<Table> MakeTrain(std::vector<std::string> keys,
                                 std::vector<int64_t> targets) {
  return *Table::FromColumns(
      {{"K", Column::MakeString(std::move(keys))},
       {"Y", Column::MakeInt64(std::move(targets))}});
}

SketchOptions Options(size_t n, uint64_t sampling_seed = 99) {
  SketchOptions options;
  options.capacity = n;
  options.sampling_seed = sampling_seed;
  return options;
}

Result<Sketch> BuildTrain(SketchMethod method, const Table& table, size_t n) {
  auto builder = MakeSketchBuilder(method, Options(n));
  return builder->SketchTrain(*(*table.GetColumn("K")),
                              *(*table.GetColumn("Y")));
}

constexpr SketchMethod kAllMethods[] = {
    SketchMethod::kTupsk, SketchMethod::kLv2sk, SketchMethod::kPrisk,
    SketchMethod::kIndsk, SketchMethod::kCsk};

// ------------------------------------------------------ Generic builder ---

class SketchMethodTest : public testing::TestWithParam<SketchMethod> {};

TEST_P(SketchMethodTest, NamesRoundTrip) {
  auto parsed = SketchMethodFromString(SketchMethodToString(GetParam()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, GetParam());
}

TEST_P(SketchMethodTest, TrainSketchRespectsSizeBound) {
  // 1000 rows over 200 distinct keys; capacity 64.
  Rng rng(5);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("key" + std::to_string(rng.NextBounded(200)));
    targets.push_back(static_cast<int64_t>(rng.NextBounded(50)));
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = BuildTrain(GetParam(), *table, 64);
  ASSERT_TRUE(sketch.ok());
  // LV2SK/PRISK are bounded by 2n; the others by n.
  const size_t bound = (GetParam() == SketchMethod::kLv2sk ||
                        GetParam() == SketchMethod::kPrisk)
                           ? 128
                           : 64;
  EXPECT_LE(sketch->size(), bound);
  EXPECT_GT(sketch->size(), 0u);
  EXPECT_EQ(sketch->capacity, 64u);
  EXPECT_EQ(sketch->source_rows, 1000u);
  EXPECT_EQ(sketch->source_distinct_keys, table->column(0)->CountDistinct());
}

TEST_P(SketchMethodTest, SmallTableFitsEntirely) {
  // With capacity >= rows, coordinated sketches must keep every usable row
  // (CSK keeps one per key; INDSK keeps all).
  auto table = MakeTrain({"a", "b", "c"}, {1, 2, 3});
  auto sketch = BuildTrain(GetParam(), *table, 100);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->size(), 3u);
}

TEST_P(SketchMethodTest, DeterministicAcrossRebuilds) {
  Rng rng(17);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("k" + std::to_string(rng.NextBounded(80)));
    targets.push_back(static_cast<int64_t>(i));
  }
  auto table = MakeTrain(keys, targets);
  auto a = BuildTrain(GetParam(), *table, 32);
  auto b = BuildTrain(GetParam(), *table, 32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->entries[i].key_hash, b->entries[i].key_hash);
    EXPECT_EQ(a->entries[i].value, b->entries[i].value);
  }
}

TEST_P(SketchMethodTest, SkipsNullKeysAndValues) {
  auto keys = Column::MakeString({"a", "b", "c", "d"},
                                 {true, false, true, true});
  auto values = Column::MakeInt64({1, 2, 3, 4}, {true, true, false, true});
  auto builder = MakeSketchBuilder(GetParam(), Options(10));
  auto sketch = builder->SketchTrain(*keys, *values);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->source_rows, 2u);  // only rows 0 and 3 fully valid
  EXPECT_LE(sketch->size(), 2u);
}

TEST_P(SketchMethodTest, CandidateSketchAggregatesPerKey) {
  // Keys b and c repeat; AVG must be applied before sampling.
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString({"a", "b", "b", "b", "c", "c", "c"})},
       {"Z", Column::MakeInt64({1, 2, 2, 5, 0, 3, 3})}});
  auto builder = MakeSketchBuilder(GetParam(), Options(10));
  auto sketch = builder->SketchCandidate(*(*cand->GetColumn("K")),
                                         *(*cand->GetColumn("Z")),
                                         AggKind::kAvg);
  ASSERT_TRUE(sketch.ok());
  // Unique keys after aggregation.
  std::unordered_set<uint64_t> key_hashes;
  for (const auto& e : sketch->entries) key_hashes.insert(e.key_hash);
  EXPECT_EQ(key_hashes.size(), sketch->size());
  if (GetParam() != SketchMethod::kCsk) {
    // AVG values are {a->1, b->3, c->2}.
    std::unordered_map<uint64_t, double> expected = {
        {HashKey(Value("a"), 0), 1.0},
        {HashKey(Value("b"), 0), 3.0},
        {HashKey(Value("c"), 0), 2.0}};
    ASSERT_EQ(sketch->size(), 3u);
    for (const auto& e : sketch->entries) {
      EXPECT_EQ(*e.value.AsDouble(), expected.at(e.key_hash));
    }
  } else {
    // CSK keeps the first value per key: {a->1, b->2, c->0}.
    std::unordered_map<uint64_t, int64_t> expected = {
        {HashKey(Value("a"), 0), 1},
        {HashKey(Value("b"), 0), 2},
        {HashKey(Value("c"), 0), 0}};
    for (const auto& e : sketch->entries) {
      EXPECT_EQ(e.value.int64(), expected.at(e.key_hash));
    }
  }
}

TEST_P(SketchMethodTest, HugeCapacityKeepsEveryUsableRow) {
  // The capacity can arrive in untrusted config bytes; no builder may
  // reserve storage for it before reading a row.
  auto builder = MakeSketchBuilder(GetParam(), Options(size_t{1} << 40));
  auto keys = Column::MakeString({"a", "b", "a", "c", "b"},
                                 {true, true, true, false, true});
  auto values = Column::MakeInt64({1, 2, 3, 4, 5},
                                  {true, true, true, true, false});
  // Usable rows: (a, 1), (b, 2), (a, 3) over two distinct keys.
  auto train = builder->SketchTrain(*keys, *values);
  ASSERT_TRUE(train.ok()) << train.status();
  EXPECT_EQ(train->source_rows, 3u);
  EXPECT_EQ(train->source_distinct_keys, 2u);
  // CSK keeps one row per key; every other method keeps every row.
  EXPECT_EQ(train->size(), GetParam() == SketchMethod::kCsk ? 2u : 3u);
  for (AggKind agg : {AggKind::kFirst, AggKind::kAvg}) {
    auto cand = builder->SketchCandidate(*keys, *values, agg);
    ASSERT_TRUE(cand.ok()) << cand.status();
    EXPECT_EQ(cand->source_rows, 3u);
    EXPECT_EQ(cand->size(), 2u);
  }
}

TEST_P(SketchMethodTest, ZeroCapacityRejected) {
  auto table = MakeTrain({"a"}, {1});
  auto builder = MakeSketchBuilder(GetParam(), Options(0));
  EXPECT_FALSE(builder
                   ->SketchTrain(*(*table->GetColumn("K")),
                                 *(*table->GetColumn("Y")))
                   .ok());
}

TEST_P(SketchMethodTest, MismatchedColumnsRejected) {
  auto keys = Column::MakeString({"a", "b"});
  auto values = Column::MakeInt64({1});
  auto builder = MakeSketchBuilder(GetParam(), Options(4));
  EXPECT_FALSE(builder->SketchTrain(*keys, *values).ok());
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SketchMethodTest,
                         testing::ValuesIn(kAllMethods),
                         [](const testing::TestParamInfo<SketchMethod>& info) {
                           return SketchMethodToString(info.param);
                         });

// --------------------------------------------------------------- TUPSK ----

TEST(TupskTest, RepeatedKeysRepresentedProportionally) {
  // Key "hot" fills 80% of rows; in a TUPSK sketch its share of entries
  // should be ~80% because rows are sampled uniformly.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(i % 5 == 0 ? "cold" + std::to_string(i) : "hot");
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kTupsk, *table, 512);
  const uint64_t hot_hash = HashKey(Value("hot"), 0);
  size_t hot = 0;
  for (const auto& e : sketch.entries) {
    if (e.key_hash == hot_hash) ++hot;
  }
  const double share = static_cast<double>(hot) / sketch.size();
  EXPECT_NEAR(share, 0.8, 0.08);
}

TEST(TupskTest, UniformRowInclusion) {
  // Every row (not key) should appear in the sketch with probability n/N.
  // Build many sketches varying the hash seed and count inclusions of a
  // high-frequency key row vs a unique key row.
  std::vector<std::string> keys = {"dup", "dup", "dup", "dup"};
  std::vector<int64_t> targets = {0, 1, 2, 3};
  for (int i = 0; i < 60; ++i) {
    keys.push_back("solo" + std::to_string(i));
    targets.push_back(100 + i);
  }
  auto table = MakeTrain(keys, targets);
  size_t dup_row_hits = 0, solo_row_hits = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchOptions options = Options(16);
    options.hash_seed = static_cast<uint32_t>(trial + 1);
    auto builder = MakeSketchBuilder(SketchMethod::kTupsk, options);
    auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                        *(*table->GetColumn("Y")));
    for (const auto& e : sketch.entries) {
      if (e.value == Value(int64_t{1})) ++dup_row_hits;     // 2nd dup row
      if (e.value == Value(int64_t{105})) ++solo_row_hits;  // a solo row
    }
  }
  // Both rows should be included at the same rate n/N = 16/64 = 0.25.
  const double dup_rate = static_cast<double>(dup_row_hits) / kTrials;
  const double solo_rate = static_cast<double>(solo_row_hits) / kTrials;
  EXPECT_NEAR(dup_rate, 0.25, 0.07);
  EXPECT_NEAR(solo_rate, 0.25, 0.07);
}

TEST(TupskTest, PaperPathologicalExampleKeepsTargetEntropy) {
  // Section IV-B: K = [a,b,c,d,e,f,f,...,f], Y = [0,0,0,0,0,1,2,...,95].
  // LV2SK's level-1 key sampling can select only the five zero rows,
  // collapsing the target entropy; TUPSK samples rows uniformly so the f
  // rows (95% of the table) dominate every sketch.
  std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  std::vector<int64_t> targets = {0, 0, 0, 0, 0};
  for (int i = 1; i <= 95; ++i) {
    keys.push_back("f");
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kTupsk, *table, 5);
  EXPECT_EQ(sketch.size(), 5u);
  const uint64_t f_hash = HashKey(Value("f"), 0);
  size_t f_rows = 0;
  for (const auto& e : sketch.entries) {
    if (e.key_hash == f_hash) ++f_rows;
  }
  // E[f rows] = 5 * 0.95 = 4.75; anything >= 3 keeps entropy healthy. With
  // the fixed seed this is deterministic; assert the qualitative property.
  EXPECT_GE(f_rows, 3u);
}

// --------------------------------------------------------------- LV2SK ----

TEST(Lv2skTest, PerKeyCapMatchesFormula) {
  // One key with 60% of rows, n = 10: n_k = floor(10 * 0.6) = 6 samples;
  // rare keys get max(1, floor(10 * small)) = 1.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 60; ++i) {
    keys.push_back("heavy");
    targets.push_back(i);
  }
  for (int i = 0; i < 40; ++i) {
    keys.push_back("light" + std::to_string(i));
    targets.push_back(1000 + i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kLv2sk, *table, 10);
  const uint64_t heavy_hash = HashKey(Value("heavy"), 0);
  std::unordered_map<uint64_t, size_t> per_key;
  for (const auto& e : sketch.entries) ++per_key[e.key_hash];
  // Heavy key, if selected at level 1, carries exactly 6 entries.
  if (per_key.count(heavy_hash) > 0) {
    EXPECT_EQ(per_key[heavy_hash], 6u);
  }
  for (const auto& [hash, count] : per_key) {
    if (hash != heavy_hash) {
      EXPECT_EQ(count, 1u);
    }
  }
}

TEST(Lv2skTest, UniqueKeysBehaveLikeKmv) {
  // With unique keys, level 2 always keeps exactly 1 row per key, so the
  // sketch is exactly the n minimum-rank keys.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 300; ++i) {
    keys.push_back("u" + std::to_string(i));
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  auto sketch = *BuildTrain(SketchMethod::kLv2sk, *table, 50);
  EXPECT_EQ(sketch.size(), 50u);
  std::unordered_set<uint64_t> distinct;
  for (const auto& e : sketch.entries) distinct.insert(e.key_hash);
  EXPECT_EQ(distinct.size(), 50u);
}

TEST(Lv2skTest, PathologicalExampleUnderrepresentsHeavyKey) {
  // Counterpart of TupskTest.PaperPathologicalExample: with keys a-e and f,
  // level 1 picks 5 of 6 distinct keys regardless of frequency, so the
  // probability that f is excluded is 1/6 -- and when it is included its
  // rows are capped at ~n*0.95. Verify the first-level frequency blindness:
  // across seeds, f is absent from ~1/6 of sketches.
  std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  std::vector<int64_t> targets = {0, 0, 0, 0, 0};
  for (int i = 1; i <= 95; ++i) {
    keys.push_back("f");
    targets.push_back(i);
  }
  auto table = MakeTrain(keys, targets);
  int absent = 0;
  constexpr int kTrials = 600;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchOptions options = Options(5);
    options.hash_seed = static_cast<uint32_t>(trial + 1);
    auto builder = MakeSketchBuilder(SketchMethod::kLv2sk, options);
    auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                        *(*table->GetColumn("Y")));
    const uint64_t f_hash = HashKey(Value("f"), trial + 1);
    bool has_f = false;
    for (const auto& e : sketch.entries) {
      if (e.key_hash == f_hash) has_f = true;
    }
    if (!has_f) ++absent;
  }
  EXPECT_NEAR(static_cast<double>(absent) / kTrials, 1.0 / 6.0, 0.05);
}

// --------------------------------------------------------------- PRISK ----

TEST(PriskTest, PrioritizesFrequentKeys) {
  // With weights = frequencies, the heavy key should almost always be
  // selected at level 1, unlike LV2SK's frequency-blind selection.
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (int i = 0; i < 95; ++i) {
    keys.push_back("heavy");
    targets.push_back(i);
  }
  for (int i = 0; i < 20; ++i) {
    keys.push_back("rare" + std::to_string(i));
    targets.push_back(1000 + i);
  }
  auto table = MakeTrain(keys, targets);
  int heavy_present = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    SketchOptions options = Options(5);
    options.hash_seed = static_cast<uint32_t>(trial + 1);
    auto builder = MakeSketchBuilder(SketchMethod::kPrisk, options);
    auto sketch = *builder->SketchTrain(*(*table->GetColumn("K")),
                                        *(*table->GetColumn("Y")));
    const uint64_t heavy_hash = HashKey(Value("heavy"), trial + 1);
    for (const auto& e : sketch.entries) {
      if (e.key_hash == heavy_hash) {
        ++heavy_present;
        break;
      }
    }
  }
  // Priority rank u/95 vs u/1: heavy key wins level-1 almost surely.
  EXPECT_GT(static_cast<double>(heavy_present) / kTrials, 0.95);
}

// ----------------------------------------------------------------- CSK ----

TEST(CskTest, FirstValuePerKeyOnTrainSide) {
  auto table = MakeTrain({"a", "a", "a", "b"}, {7, 8, 9, 1});
  auto sketch = *BuildTrain(SketchMethod::kCsk, *table, 10);
  ASSERT_EQ(sketch.size(), 2u);  // one entry per distinct key
  for (const auto& e : sketch.entries) {
    if (e.key_hash == HashKey(Value("a"), 0)) {
      EXPECT_EQ(e.value, Value(int64_t{7}));  // first seen
    }
  }
}

// --------------------------------------------------------------- INDSK ----

TEST(IndskTest, IndependentSamplingYieldsSmallOverlap) {
  // Two tables sharing 400 unique keys; INDSK sketches of size 64 overlap
  // on ~64*64/400 = ~10 keys, while TUPSK overlaps on ~64.
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("k" + std::to_string(i));
    values.push_back(i);
  }
  auto train = MakeTrain(keys, values);
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"Z", Column::MakeInt64(values)}});

  auto make_join_size = [&](SketchMethod method) {
    SketchOptions train_options = Options(64, /*sampling_seed=*/111);
    SketchOptions cand_options = Options(64, /*sampling_seed=*/222);
    auto train_builder = MakeSketchBuilder(method, train_options);
    auto cand_builder = MakeSketchBuilder(method, cand_options);
    auto s_train = *train_builder->SketchTrain(*(*train->GetColumn("K")),
                                               *(*train->GetColumn("Y")));
    auto s_cand = *cand_builder->SketchCandidate(*(*cand->GetColumn("K")),
                                                 *(*cand->GetColumn("Z")),
                                                 AggKind::kFirst);
    return JoinSketches(s_train, s_cand)->join_size;
  };
  const size_t ind_join = make_join_size(SketchMethod::kIndsk);
  const size_t tup_join = make_join_size(SketchMethod::kTupsk);
  EXPECT_EQ(tup_join, 64u);   // coordinated: every sampled key matches
  EXPECT_LT(ind_join, 30u);   // independent: quadratically fewer
}

// ---------------------------------------------------------- Sketch join ---

TEST(SketchJoinTest, RecoversExactPairsOfFullJoin) {
  // The sketch-join sample must be a subset of the true join pairs.
  Rng rng(23);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  std::vector<std::string> cand_keys;
  std::vector<int64_t> cand_values;
  for (int i = 0; i < 300; ++i) {
    const int k = static_cast<int>(rng.NextBounded(60));
    keys.push_back("k" + std::to_string(k));
    targets.push_back(k * 10 + static_cast<int>(rng.NextBounded(3)));
  }
  for (int k = 0; k < 60; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(k * 7);
  }
  auto train = MakeTrain(keys, targets);
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});

  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(64));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 64u);

  // Ground truth: the full join pairs target k*10+j with feature k*7.
  for (size_t i = 0; i < joined.sample.size(); ++i) {
    const int64_t y = joined.sample.y[i].int64();
    const int64_t x = joined.sample.x[i].int64();
    EXPECT_EQ(x, (y / 10) * 7) << "pair " << i;
  }
}

TEST(SketchJoinTest, TrainMultiplicityPreserved) {
  // Repeated train keys must produce repeated feature values in the sample.
  auto train = MakeTrain({"a", "a", "a", "b"}, {1, 2, 3, 4});
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString({"a", "b"})},
       {"Z", Column::MakeInt64({100, 200})}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 4u);
  EXPECT_EQ(joined.matched_keys, 2u);
  size_t feature_100 = 0;
  for (const Value& x : joined.sample.x) {
    if (x == Value(int64_t{100})) ++feature_100;
  }
  EXPECT_EQ(feature_100, 3u);  // one per repeated "a" row
}

TEST(SketchJoinTest, RejectsTrainSketchOnRightSide) {
  auto train = MakeTrain({"a", "a"}, {1, 2});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  EXPECT_FALSE(JoinSketches(s_train, s_train).ok());
}

TEST(SketchJoinTest, DisjointKeysGiveEmptyJoin) {
  auto train = MakeTrain({"a", "b"}, {1, 2});
  auto cand = *Table::FromColumns({{"K", Column::MakeString({"x", "y"})},
                                   {"Z", Column::MakeInt64({3, 4})}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 0u);
  // Estimation on an empty join must fail cleanly via min_join_size.
  EXPECT_FALSE(
      EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE, {}, 1).ok());
}

TEST(SketchJoinTest, EstimateMatchesFullJoinOnCompleteSketch) {
  // Capacity >= table sizes: the sketch join IS the full join, so the MI
  // estimates must agree exactly.
  Rng rng(29);
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  std::vector<std::string> cand_keys;
  std::vector<int64_t> cand_values;
  for (int i = 0; i < 200; ++i) {
    const int k = static_cast<int>(rng.NextBounded(40));
    keys.push_back("k" + std::to_string(k));
    targets.push_back((k % 4) * 3 + static_cast<int>(rng.NextBounded(2)));
  }
  for (int k = 0; k < 40; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(k % 4);
  }
  auto train = MakeTrain(keys, targets);
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});

  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(10000));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto sketch_mi =
      *EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE, {}, 1);
  ASSERT_EQ(sketch_mi.join_size, 200u);

  auto full = *LeftJoinAggregate(*train, "K", "Y", *cand, "K", "Z",
                                 {AggKind::kFirst, true, "X"});
  PairedSample full_sample;
  auto x_col = *full.table->GetColumn("X");
  auto y_col = *full.table->GetColumn("Y");
  for (size_t r = 0; r < full.table->num_rows(); ++r) {
    full_sample.x.push_back(x_col->GetValue(r));
    full_sample.y.push_back(y_col->GetValue(r));
  }
  const double full_mi = *EstimateMI(MIEstimatorKind::kMLE, full_sample);
  EXPECT_NEAR(sketch_mi.mi, full_mi, 1e-9);
}

TEST(SketchJoinTest, AutoEstimatorSelection) {
  // String target + numeric feature -> DC-KSG via the auto policy.
  Rng rng(31);
  std::vector<std::string> keys, targets;
  std::vector<std::string> cand_keys;
  std::vector<double> cand_values;
  for (int i = 0; i < 400; ++i) {
    const int k = static_cast<int>(rng.NextBounded(100));
    keys.push_back("k" + std::to_string(k));
    targets.push_back("cat" + std::to_string(k % 3));
  }
  for (int k = 0; k < 100; ++k) {
    cand_keys.push_back("k" + std::to_string(k));
    cand_values.push_back(static_cast<double>(k % 3) + rng.Gaussian(0, 0.1));
  }
  auto train = *Table::FromColumns({{"K", Column::MakeString(keys)},
                                    {"Y", Column::MakeString(targets)}});
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeDouble(cand_values)}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(256));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kAvg);
  auto result = *EstimateSketchMIAuto(s_train, s_cand, {}, 10);
  EXPECT_EQ(result.estimator, MIEstimatorKind::kDCKSG);
  EXPECT_GT(result.mi, 0.5);  // strong dependence planted
}

// -------------------------------------------- Coordination across sides ---

class CoordinationTest : public testing::TestWithParam<SketchMethod> {};

TEST_P(CoordinationTest, CoordinatedMethodsAchieveFullJoinOnUniqueKeys) {
  // Unique keys on both sides, full overlap: every coordinated sketch pair
  // must recover ~n join samples (INDSK is excluded -- by design it can't).
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back("k" + std::to_string(i));
    values.push_back(i);
  }
  auto train = MakeTrain(keys, values);
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"Z", Column::MakeInt64(values)}});
  auto builder = MakeSketchBuilder(GetParam(), Options(128));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto joined = *JoinSketches(s_train, s_cand);
  EXPECT_EQ(joined.join_size, 128u)
      << SketchMethodToString(GetParam())
      << " lost coordination on unique keys";
}

INSTANTIATE_TEST_SUITE_P(
    Coordinated, CoordinationTest,
    testing::Values(SketchMethod::kTupsk, SketchMethod::kLv2sk,
                    SketchMethod::kPrisk, SketchMethod::kCsk),
    [](const testing::TestParamInfo<SketchMethod>& info) {
      return SketchMethodToString(info.param);
    });

// ------------------------------------------------- PreparedTrainSketch ---

TEST(PreparedTrainSketchTest, JoinMatchesJoinSketchesForEveryMethod) {
  // The prepared path is an optimization, not a semantic change: for every
  // sketch variant the joined sample must be byte-identical to
  // JoinSketches, including train-side multiplicity and pair order.
  Rng rng(77);
  std::vector<std::string> train_keys, cand_keys;
  std::vector<int64_t> train_values, cand_values;
  for (int i = 0; i < 1500; ++i) {
    train_keys.push_back("k" + std::to_string(rng.NextBounded(300)));
    train_values.push_back(static_cast<int64_t>(rng.NextBounded(40)));
  }
  for (int i = 0; i < 350; ++i) {
    cand_keys.push_back("k" + std::to_string(i));
    cand_values.push_back(static_cast<int64_t>(rng.NextBounded(40)));
  }
  auto train = MakeTrain(train_keys, train_values);
  auto cand = *Table::FromColumns({{"K", Column::MakeString(cand_keys)},
                                   {"Z", Column::MakeInt64(cand_values)}});
  for (SketchMethod method : kAllMethods) {
    auto builder = MakeSketchBuilder(method, Options(96));
    auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                         *(*train->GetColumn("Y")));
    auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                            *(*cand->GetColumn("Z")),
                                            AggKind::kAvg);
    auto plain = *JoinSketches(s_train, s_cand);
    auto prepared = PreparedTrainSketch::Create(s_train);
    ASSERT_TRUE(prepared.ok()) << SketchMethodToString(method);
    auto fast = *prepared->Join(s_cand);
    ASSERT_EQ(fast.join_size, plain.join_size) << SketchMethodToString(method);
    EXPECT_EQ(fast.matched_keys, plain.matched_keys);
    for (size_t i = 0; i < plain.sample.size(); ++i) {
      ASSERT_EQ(fast.sample.x[i], plain.sample.x[i])
          << SketchMethodToString(method) << " pair " << i;
      ASSERT_EQ(fast.sample.y[i], plain.sample.y[i])
          << SketchMethodToString(method) << " pair " << i;
    }
  }
}

TEST(PreparedTrainSketchTest, EstimateMatchesUnpreparedOverloads) {
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  for (int i = 0; i < 600; ++i) {
    keys.push_back("k" + std::to_string(i % 150));
    values.push_back(static_cast<int64_t>(i % 6));
  }
  auto train = MakeTrain(keys, values);
  auto cand = *Table::FromColumns(
      {{"K", Column::MakeString(keys)}, {"Z", Column::MakeInt64(values)}});
  auto builder = MakeSketchBuilder(SketchMethod::kTupsk, Options(64));
  auto s_train = *builder->SketchTrain(*(*train->GetColumn("K")),
                                       *(*train->GetColumn("Y")));
  auto s_cand = *builder->SketchCandidate(*(*cand->GetColumn("K")),
                                          *(*cand->GetColumn("Z")),
                                          AggKind::kFirst);
  auto prepared = *PreparedTrainSketch::Create(s_train);
  auto plain = *EstimateSketchMI(s_train, s_cand, MIEstimatorKind::kMLE);
  auto fast = *EstimateSketchMI(prepared, s_cand, MIEstimatorKind::kMLE);
  EXPECT_EQ(plain.mi, fast.mi);
  EXPECT_EQ(plain.join_size, fast.join_size);
  auto plain_auto = *EstimateSketchMIAuto(s_train, s_cand);
  auto fast_auto = *EstimateSketchMIAuto(prepared, s_cand);
  EXPECT_EQ(plain_auto.mi, fast_auto.mi);
  EXPECT_EQ(plain_auto.estimator, fast_auto.estimator);
}

TEST(PreparedTrainSketchTest, EmptyTrainSketchJoinsEmpty) {
  Sketch train;
  train.side = SketchSide::kTrain;
  auto prepared = PreparedTrainSketch::Create(train);
  ASSERT_TRUE(prepared.ok());
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  cand.entries.push_back(SketchEntry{42, 0.1, Value(int64_t{1})});
  auto joined = prepared->Join(cand);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->join_size, 0u);
  EXPECT_EQ(joined->matched_keys, 0u);
}

TEST(PreparedTrainSketchTest, RejectsUnsortedTrainEntries) {
  Sketch train;
  train.side = SketchSide::kTrain;
  // Same key hash in two non-adjacent runs violates the sort invariant.
  train.entries.push_back(SketchEntry{7, 0.1, Value(int64_t{1})});
  train.entries.push_back(SketchEntry{3, 0.2, Value(int64_t{2})});
  train.entries.push_back(SketchEntry{7, 0.3, Value(int64_t{3})});
  auto prepared = PreparedTrainSketch::Create(train);
  EXPECT_FALSE(prepared.ok());
  EXPECT_TRUE(prepared.status().IsInvalidArgument());
}

TEST(PreparedTrainSketchTest, RejectsDuplicateCandidateKeys) {
  Sketch train;
  train.side = SketchSide::kTrain;
  train.entries.push_back(SketchEntry{5, 0.1, Value(int64_t{1})});
  auto prepared = *PreparedTrainSketch::Create(train);
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  cand.entries.push_back(SketchEntry{5, 0.1, Value(int64_t{1})});
  cand.entries.push_back(SketchEntry{5, 0.2, Value(int64_t{2})});
  auto joined = prepared.Join(cand);
  EXPECT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().IsInvalidArgument());
  // Duplicate candidate keys are rejected even when they match no train
  // entry — parity with the JoinSketches overload.
  Sketch unmatched_dupes;
  unmatched_dupes.side = SketchSide::kCandidate;
  unmatched_dupes.entries.push_back(SketchEntry{9, 0.1, Value(int64_t{1})});
  unmatched_dupes.entries.push_back(SketchEntry{9, 0.2, Value(int64_t{2})});
  EXPECT_FALSE(prepared.Join(unmatched_dupes).ok());
  EXPECT_FALSE(JoinSketches(prepared.sketch(), unmatched_dupes).ok());
  // And a train sketch on the right is still rejected.
  Sketch wrong_side;
  wrong_side.side = SketchSide::kTrain;
  EXPECT_FALSE(prepared.Join(wrong_side).ok());
}

TEST(SketchJoinTest, MatchedKeysDistinctEvenForUnsortedTrainSketch) {
  // JoinSketches (unlike the prepared path) accepts train sketches that
  // violate the sorted-by-key-hash invariant, e.g. hand-built ones; the
  // distinct-key count must not rely on equal hashes being adjacent.
  Sketch train;
  train.side = SketchSide::kTrain;
  train.entries.push_back(SketchEntry{7, 0.1, Value(int64_t{1})});
  train.entries.push_back(SketchEntry{3, 0.2, Value(int64_t{2})});
  train.entries.push_back(SketchEntry{7, 0.3, Value(int64_t{3})});
  Sketch cand;
  cand.side = SketchSide::kCandidate;
  cand.entries.push_back(SketchEntry{3, 0.1, Value(int64_t{30})});
  cand.entries.push_back(SketchEntry{7, 0.2, Value(int64_t{70})});
  auto joined = JoinSketches(train, cand);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->join_size, 3u);
  EXPECT_EQ(joined->matched_keys, 2u);
}

// ------------------------------------------------ Golden byte identity ---

// Sketch inputs covering every key type the builders hash, with the edge
// cells (empty and long strings, extreme integers, signed zeros, NaN,
// infinities) and null keys and values.
struct GoldenInput {
  const char* name;
  std::shared_ptr<Column> keys;
  std::shared_ptr<Column> values;
};

std::vector<GoldenInput> GoldenInputs() {
  constexpr size_t kRows = 240;
  Rng rng(20240611);
  // Skewed key ids: small ids repeat often, large ones rarely.
  std::vector<uint64_t> ids(kRows);
  for (uint64_t& id : ids) id = rng.NextBounded(rng.NextBounded(60) + 1);
  std::vector<bool> key_valid(kRows), value_valid(kRows);
  for (size_t row = 0; row < kRows; ++row) {
    key_valid[row] = row % 17 != 5;
    value_valid[row] = row % 23 != 7;
  }
  const std::string long_key(40, 'x');
  std::vector<std::string> string_keys, string_values;
  std::vector<int64_t> int_keys, int_values;
  std::vector<double> double_keys, double_values;
  for (size_t row = 0; row < kRows; ++row) {
    const uint64_t id = ids[row];
    switch (id) {
      case 0: string_keys.push_back(""); break;
      case 1: string_keys.push_back("a"); break;
      case 2: string_keys.push_back(long_key); break;
      default:
        string_keys.push_back(id % 2 == 0 ? "key-" + std::to_string(id)
                                          : long_key + std::to_string(id));
    }
    switch (id) {
      case 0: int_keys.push_back(std::numeric_limits<int64_t>::min()); break;
      case 1: int_keys.push_back(std::numeric_limits<int64_t>::max()); break;
      case 2: int_keys.push_back((int64_t{1} << 53) + 1); break;
      case 3: int_keys.push_back(0); break;
      case 4: int_keys.push_back(-1); break;
      default: int_keys.push_back(static_cast<int64_t>(id) * 7919 - 100000);
    }
    switch (id) {
      case 0: double_keys.push_back(0.0); break;
      case 1: double_keys.push_back(-0.0); break;
      case 2: double_keys.push_back(std::nan("")); break;
      case 3: double_keys.push_back(std::numeric_limits<double>::infinity());
        break;
      case 4: double_keys.push_back(-std::numeric_limits<double>::infinity());
        break;
      default: double_keys.push_back(static_cast<double>(id) * 0.25 - 3.0);
    }
    int_values.push_back(static_cast<int64_t>(rng.NextBounded(9)) - 4);
    double_values.push_back(rng.Uniform(-2.0, 2.0));
    string_values.push_back(row % 5 == 0   ? ""
                            : row % 5 == 1 ? long_key + std::to_string(row)
                                           : "v" + std::to_string(row % 7));
  }
  return {
      {"string", Column::MakeString(string_keys, key_valid),
       Column::MakeInt64(int_values, value_valid)},
      {"int64", Column::MakeInt64(int_keys, key_valid),
       Column::MakeDouble(double_values, value_valid)},
      {"double", Column::MakeDouble(double_keys, key_valid),
       Column::MakeInt64(int_values, value_valid)},
      {"string_values", Column::MakeString(string_keys, key_valid),
       Column::MakeString(string_values, value_valid)},
  };
}

/// Distinct keys over rows with a non-null key and value, counted by
/// Column::CountDistinct (Value hashing, not the sketch key hash).
size_t DistinctUsableKeys(const Column& keys, const Column& values) {
  std::vector<size_t> usable;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (keys.IsValid(row) && values.IsValid(row)) usable.push_back(row);
  }
  return (*keys.Take(usable))->CountDistinct();
}

struct GoldenSketch {
  const char* id;
  uint64_t checksum;
  size_t source_rows;
  size_t source_distinct_keys;
};

// Checksum64 of SerializeSketch, source_rows, source_distinct_keys. Sketches
// are persisted and compared across processes, so a builder change that
// moves any of these changes the sketch format, not just its speed.
constexpr GoldenSketch kGoldenSketches[] = {
    {"TUPSK/train/string/16", 0x51e656f878e41174ULL, 215, 49},
    {"TUPSK/first/string/16", 0x3a9065654219c4ecULL, 215, 49},
    {"TUPSK/avg/string/16", 0x1af3844224131dfaULL, 215, 49},
    {"TUPSK/train/string/1000", 0x41f43f16085a911fULL, 215, 49},
    {"TUPSK/first/string/1000", 0x01029aad6f14cfb1ULL, 215, 49},
    {"TUPSK/avg/string/1000", 0x39285ec805a0b0ffULL, 215, 49},
    {"LV2SK/train/string/16", 0x61fbc6090c23d8b5ULL, 215, 49},
    {"LV2SK/first/string/16", 0x107fb9aa92c8bdc5ULL, 215, 49},
    {"LV2SK/avg/string/16", 0x1a6940da7308d97cULL, 215, 49},
    {"LV2SK/train/string/1000", 0x20083403752414b2ULL, 215, 49},
    {"LV2SK/first/string/1000", 0x837204cc01debc2dULL, 215, 49},
    {"LV2SK/avg/string/1000", 0x2681d2515529211bULL, 215, 49},
    {"PRISK/train/string/16", 0x935f4b92b88a1550ULL, 215, 49},
    {"PRISK/first/string/16", 0x394e92e79cde797aULL, 215, 49},
    {"PRISK/avg/string/16", 0x7ea1b20477338ebbULL, 215, 49},
    {"PRISK/train/string/1000", 0xe530dd92eae3cef7ULL, 215, 49},
    {"PRISK/first/string/1000", 0xd6d955be9549d000ULL, 215, 49},
    {"PRISK/avg/string/1000", 0x59590a8aeaab92baULL, 215, 49},
    {"INDSK/train/string/16", 0xc8e1e7afc1c36c64ULL, 215, 49},
    {"INDSK/first/string/16", 0x29f2017ebba74a30ULL, 215, 49},
    {"INDSK/avg/string/16", 0x179da0750804bf59ULL, 215, 49},
    {"INDSK/train/string/1000", 0x82172605ae0ac767ULL, 215, 49},
    {"INDSK/first/string/1000", 0x4fe048e554264058ULL, 215, 49},
    {"INDSK/avg/string/1000", 0x3ed2c3a6deb1d74eULL, 215, 49},
    {"CSK/train/string/16", 0x26eb49c64c99cb6fULL, 215, 49},
    {"CSK/first/string/16", 0x2866a836f05e8c00ULL, 215, 49},
    {"CSK/avg/string/16", 0x2866a836f05e8c00ULL, 215, 49},
    {"CSK/train/string/1000", 0x7bc113e58c46993bULL, 215, 49},
    {"CSK/first/string/1000", 0x410a7aabda47e83aULL, 215, 49},
    {"CSK/avg/string/1000", 0x410a7aabda47e83aULL, 215, 49},
    {"TUPSK/train/int64/16", 0x72e27e2e16fabac2ULL, 215, 49},
    {"TUPSK/first/int64/16", 0xb602db620893ba80ULL, 215, 49},
    {"TUPSK/avg/int64/16", 0x2cb74ebb7d366eedULL, 215, 49},
    {"TUPSK/train/int64/1000", 0x3fb484ae2e11e638ULL, 215, 49},
    {"TUPSK/first/int64/1000", 0xf26ec7160d79a84dULL, 215, 49},
    {"TUPSK/avg/int64/1000", 0x2bc6d6bca6e9a98fULL, 215, 49},
    {"LV2SK/train/int64/16", 0x6709b66d8fd8be12ULL, 215, 49},
    {"LV2SK/first/int64/16", 0xc234a71a56570a14ULL, 215, 49},
    {"LV2SK/avg/int64/16", 0xf0beff213128a066ULL, 215, 49},
    {"LV2SK/train/int64/1000", 0x3b38531f15681986ULL, 215, 49},
    {"LV2SK/first/int64/1000", 0xcee5108822ac1a8fULL, 215, 49},
    {"LV2SK/avg/int64/1000", 0x9a2c6e10fb39b369ULL, 215, 49},
    {"PRISK/train/int64/16", 0x58a676c85285e70eULL, 215, 49},
    {"PRISK/first/int64/16", 0x2cd01e056453a41bULL, 215, 49},
    {"PRISK/avg/int64/16", 0x23ffe547922251cdULL, 215, 49},
    {"PRISK/train/int64/1000", 0xbc47cc8e22d774eeULL, 215, 49},
    {"PRISK/first/int64/1000", 0x9281e8d945b30792ULL, 215, 49},
    {"PRISK/avg/int64/1000", 0x417dafa5571a8d44ULL, 215, 49},
    {"INDSK/train/int64/16", 0x41daa71cee1c3b24ULL, 215, 49},
    {"INDSK/first/int64/16", 0x2ac2d08980214abcULL, 215, 49},
    {"INDSK/avg/int64/16", 0xdf69332cf5fb27d8ULL, 215, 49},
    {"INDSK/train/int64/1000", 0xbdfdc865536ca162ULL, 215, 49},
    {"INDSK/first/int64/1000", 0xb75c5009e1db1cf6ULL, 215, 49},
    {"INDSK/avg/int64/1000", 0x24e14199886c79b0ULL, 215, 49},
    {"CSK/train/int64/16", 0x98a0d5b7202a0c7aULL, 215, 49},
    {"CSK/first/int64/16", 0x72849607a901cb35ULL, 215, 49},
    {"CSK/avg/int64/16", 0x72849607a901cb35ULL, 215, 49},
    {"CSK/train/int64/1000", 0x04955d300d28136dULL, 215, 49},
    {"CSK/first/int64/1000", 0x3fa1f4bfcb2f586cULL, 215, 49},
    {"CSK/avg/int64/1000", 0x3fa1f4bfcb2f586cULL, 215, 49},
    {"TUPSK/train/double/16", 0x6476c0822f459f70ULL, 215, 47},
    {"TUPSK/first/double/16", 0xc3451758ce7b85c5ULL, 215, 47},
    {"TUPSK/avg/double/16", 0x533efa0e1ce3291cULL, 215, 47},
    {"TUPSK/train/double/1000", 0x8c091cd6d5d0e58fULL, 215, 47},
    {"TUPSK/first/double/1000", 0x589cf5995f6badebULL, 215, 47},
    {"TUPSK/avg/double/1000", 0x923506bf87eba500ULL, 215, 47},
    {"LV2SK/train/double/16", 0x6d79fcf8400c725fULL, 215, 47},
    {"LV2SK/first/double/16", 0x80f8231ebbd3c320ULL, 215, 47},
    {"LV2SK/avg/double/16", 0x57eb92aafe5ba87eULL, 215, 47},
    {"LV2SK/train/double/1000", 0xae441ff373934f47ULL, 215, 47},
    {"LV2SK/first/double/1000", 0xd5b1a496722af68cULL, 215, 47},
    {"LV2SK/avg/double/1000", 0x72eef94b047ee1a7ULL, 215, 47},
    {"PRISK/train/double/16", 0x26d8fc45101f322bULL, 215, 47},
    {"PRISK/first/double/16", 0xb012881f7e595653ULL, 215, 47},
    {"PRISK/avg/double/16", 0x8214dc167f4a4f7dULL, 215, 47},
    {"PRISK/train/double/1000", 0xf373b617f4cd9b68ULL, 215, 47},
    {"PRISK/first/double/1000", 0x73b9ae9a60389d2dULL, 215, 47},
    {"PRISK/avg/double/1000", 0x3b666952fe353ebeULL, 215, 47},
    {"INDSK/train/double/16", 0x85a9e97e7dd1532aULL, 215, 47},
    {"INDSK/first/double/16", 0x02153420b05d436aULL, 215, 47},
    {"INDSK/avg/double/16", 0x533e7b407c3cde31ULL, 215, 47},
    {"INDSK/train/double/1000", 0xf7a82f58dfa2ba3aULL, 215, 47},
    {"INDSK/first/double/1000", 0xea3d860285a29a25ULL, 215, 47},
    {"INDSK/avg/double/1000", 0x0e56994c959d2116ULL, 215, 47},
    {"CSK/train/double/16", 0xd601f18c99b69632ULL, 215, 47},
    {"CSK/first/double/16", 0xc9813a8018a962f9ULL, 215, 47},
    {"CSK/avg/double/16", 0xc9813a8018a962f9ULL, 215, 47},
    {"CSK/train/double/1000", 0x1b6987c7ea67bcfaULL, 215, 47},
    {"CSK/first/double/1000", 0x2a3102fb9487128fULL, 215, 47},
    {"CSK/avg/double/1000", 0x2a3102fb9487128fULL, 215, 47},
    {"TUPSK/train/string_values/16", 0x931d336ba2cc2fbeULL, 215, 49},
    {"TUPSK/first/string_values/16", 0x462a07dcae3ac192ULL, 215, 49},
    {"TUPSK/train/string_values/1000", 0x2f3cf3e366bd0317ULL, 215, 49},
    {"TUPSK/first/string_values/1000", 0x205bcffb903288e1ULL, 215, 49},
    {"LV2SK/train/string_values/16", 0x94c193aeb225197aULL, 215, 49},
    {"LV2SK/first/string_values/16", 0x35cc89715d330f37ULL, 215, 49},
    {"LV2SK/train/string_values/1000", 0x287c23a50b8e921cULL, 215, 49},
    {"LV2SK/first/string_values/1000", 0x3c4845f4c7ee7bd3ULL, 215, 49},
    {"PRISK/train/string_values/16", 0x8bdf13e70f1e0069ULL, 215, 49},
    {"PRISK/first/string_values/16", 0x6c93a67a5b00f2a4ULL, 215, 49},
    {"PRISK/train/string_values/1000", 0x0a9d2b1ceee58bebULL, 215, 49},
    {"PRISK/first/string_values/1000", 0x3306083ea68a04f8ULL, 215, 49},
    {"INDSK/train/string_values/16", 0x3403accafe5e0b63ULL, 215, 49},
    {"INDSK/first/string_values/16", 0x9ebff5296ff06e25ULL, 215, 49},
    {"INDSK/train/string_values/1000", 0x42d51939ac999fb1ULL, 215, 49},
    {"INDSK/first/string_values/1000", 0x753c6961ad50e8b4ULL, 215, 49},
    {"CSK/train/string_values/16", 0x7eec5921da305d51ULL, 215, 49},
    {"CSK/first/string_values/16", 0x1cfce393b1bea5e2ULL, 215, 49},
    {"CSK/train/string_values/1000", 0x8c616a3a791cc6a9ULL, 215, 49},
    {"CSK/first/string_values/1000", 0x548ac9338210c8faULL, 215, 49},
};

TEST(GoldenSketchTest, SerializedSketchesAreByteIdentical) {
  std::unordered_map<std::string, GoldenSketch> expected;
  for (const GoldenSketch& golden : kGoldenSketches) {
    expected.emplace(golden.id, golden);
  }
  size_t checked = 0;
  std::string mismatches;
  for (const GoldenInput& input : GoldenInputs()) {
    for (SketchMethod method : kAllMethods) {
      for (size_t capacity : {size_t{16}, size_t{1000}}) {
        SketchOptions options = Options(capacity);
        options.hash_seed = 7;
        auto builder = MakeSketchBuilder(method, options);
        std::vector<std::pair<std::string, Result<Sketch>>> built;
        built.emplace_back("train",
                           builder->SketchTrain(*input.keys, *input.values));
        built.emplace_back("first",
                           builder->SketchCandidate(*input.keys, *input.values,
                                                    AggKind::kFirst));
        if (IsNumeric(input.values->type())) {
          built.emplace_back("avg", builder->SketchCandidate(
                                        *input.keys, *input.values,
                                        AggKind::kAvg));
        }
        for (auto& [side, sketch] : built) {
          const std::string id = std::string(SketchMethodToString(method)) +
                                 "/" + side + "/" + input.name + "/" +
                                 std::to_string(capacity);
          ASSERT_TRUE(sketch.ok()) << id << ": " << sketch.status();
          // Independent oracle for the distinct-key count.
          EXPECT_EQ(sketch->source_distinct_keys,
                    DistinctUsableKeys(*input.keys, *input.values))
              << id;
          const uint64_t checksum =
              wire::Checksum64(SerializeSketch(*sketch));
          auto it = expected.find(id);
          if (it == expected.end() || it->second.checksum != checksum ||
              it->second.source_rows != sketch->source_rows ||
              it->second.source_distinct_keys !=
                  sketch->source_distinct_keys) {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "    {\"%s\", 0x%016" PRIx64 "ULL, %zu, %zu},\n",
                          id.c_str(), checksum, sketch->source_rows,
                          sketch->source_distinct_keys);
            mismatches += line;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, expected.size());
  EXPECT_TRUE(mismatches.empty()) << "sketches differ from golden:\n"
                                  << mismatches;
}

TEST(SketchConcurrencyTest, ParallelSketchesMatchSerialBuild) {
  // Builders hold no shared mutable state: one builder sketching 16
  // columns from 8 threads at once yields the serial build's bytes.
  constexpr size_t kColumns = 16;
  Rng rng(5);
  std::vector<std::shared_ptr<Column>> keys, values;
  for (size_t c = 0; c < kColumns; ++c) {
    std::vector<std::string> k;
    std::vector<int64_t> v;
    for (int row = 0; row < 400; ++row) {
      k.push_back("c" + std::to_string(c) + "-k" +
                  std::to_string(rng.NextBounded(120)));
      v.push_back(static_cast<int64_t>(rng.NextBounded(50)));
    }
    keys.push_back(Column::MakeString(std::move(k)));
    values.push_back(Column::MakeInt64(std::move(v)));
  }
  for (SketchMethod method : kAllMethods) {
    auto builder = MakeSketchBuilder(method, Options(32));
    auto sketch_bytes = [&](size_t item) -> std::string {
      const size_t c = item % kColumns;
      auto sketch = item < kColumns
                        ? builder->SketchCandidate(*keys[c], *values[c],
                                                   AggKind::kAvg)
                        : builder->SketchTrain(*keys[c], *values[c]);
      return sketch.ok() ? SerializeSketch(*sketch)
                         : sketch.status().ToString();
    };
    std::vector<std::string> serial(2 * kColumns), parallel(2 * kColumns);
    for (size_t item = 0; item < serial.size(); ++item) {
      serial[item] = sketch_bytes(item);
    }
    ParallelFor(parallel.size(), 8,
                [&](size_t item) { parallel[item] = sketch_bytes(item); });
    for (size_t item = 0; item < serial.size(); ++item) {
      EXPECT_EQ(parallel[item], serial[item])
          << SketchMethodToString(method) << " item " << item;
    }
  }
}

}  // namespace
}  // namespace joinmi
