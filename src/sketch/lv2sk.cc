// LV2SK: two-level sampling (Section IV-A). Level 1 performs coordinated
// KMV sampling over distinct keys (minimum h_u(h(k))); level 2 caps the rows
// kept per selected key at n_k = max(1, floor(n * N_k / N)) via uniform
// subsampling without replacement. The total size is bounded by 2n. The
// per-tuple selection probability 1 / (m_K * max(1, floor(n N_k / N)))
// depends on the key-frequency distribution — the bias source TUPSK fixes.

#include "src/sketch/two_level.h"

#include <algorithm>

#include "src/common/random.h"
#include "src/sketch/key_hash.h"
#include "src/sketch/key_table.h"

namespace joinmi {
namespace internal {

namespace {
struct RankedKey {
  double rank = 0.0;  // level-1 rank
  uint64_t key_hash = 0;
  size_t id = 0;  // KeyTable id
};
constexpr size_t kUnusableRow = static_cast<size_t>(-1);
}  // namespace

Result<Sketch> BuildTwoLevelTrain(const SketchBuilder& builder,
                                  const Column& keys, const Column& values,
                                  bool priority_weighted, Sketch sketch) {
  const SketchOptions& options = builder.options();
  // One pass: number each usable row's key and count the rows per key.
  KeyTable table;
  std::vector<size_t> key_of_row(keys.size(), kUnusableRow);
  std::vector<size_t> frequency;  // by key id
  const size_t total_rows = ScanKeyedRows(
      keys, values, options.hash_seed, &table,
      [&](size_t row, uint64_t /*key_hash*/, size_t id, bool first) {
        if (first) frequency.push_back(0);
        ++frequency[id];
        key_of_row[row] = id;
      });
  sketch.source_rows = total_rows;
  sketch.source_distinct_keys = table.size();
  // Stable counting sort: key id's rows, ascending, are
  // grouped[start[id], start[id] + frequency[id]).
  std::vector<size_t> start(table.size());
  for (size_t id = 1; id < table.size(); ++id) {
    start[id] = start[id - 1] + frequency[id - 1];
  }
  std::vector<size_t> grouped(total_rows);
  std::vector<size_t> fill = start;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (key_of_row[row] != kUnusableRow) grouped[fill[key_of_row[row]]++] = row;
  }
  std::vector<RankedKey> ranked(table.size());
  for (size_t id = 0; id < table.size(); ++id) {
    ranked[id] = RankedKey{KeyUnitHash(table.key(id)), table.key(id), id};
    // Priority sampling: rank = u / w with weight w = key frequency, so
    // heavy keys are preferentially retained at level 1.
    if (priority_weighted) {
      ranked[id].rank /= static_cast<double>(frequency[id]);
    }
  }
  // Level 1: the n keys with minimum rank.
  const size_t n = options.capacity;
  const size_t selected = std::min(n, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<ptrdiff_t>(selected),
                    ranked.end(), [](const RankedKey& a, const RankedKey& b) {
                      if (a.rank != b.rank) return a.rank < b.rank;
                      return a.key_hash < b.key_hash;
                    });
  // Level 2: per-key cap n_k = max(1, floor(n * N_k / N)), sampled uniformly
  // without replacement (Fisher–Yates prefix), deterministic per seed/key.
  Rng base_rng(options.sampling_seed);
  for (size_t g = 0; g < selected; ++g) {
    const RankedKey& key = ranked[g];
    const size_t freq = frequency[key.id];
    size_t* rows = grouped.data() + start[key.id];
    const size_t cap = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(n) *
                               static_cast<double>(freq) /
                               static_cast<double>(total_rows)));
    const size_t take = std::min(cap, freq);
    Rng rng(base_rng.Next64() ^ key.key_hash);
    for (size_t i = 0; i < take; ++i) {
      const size_t j = i + static_cast<size_t>(rng.NextBounded(freq - i));
      std::swap(rows[i], rows[j]);
      sketch.entries.push_back(
          SketchEntry{key.key_hash, key.rank, values.GetValue(rows[i])});
    }
  }
  std::sort(sketch.entries.begin(), sketch.entries.end(),
            [](const SketchEntry& a, const SketchEntry& b) {
              if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
              return a.rank < b.rank;
            });
  return sketch;
}

}  // namespace internal

Result<Sketch> Lv2skBuilder::SketchTrain(const Column& keys,
                                         const Column& values) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          InitSketch(keys, values, SketchSide::kTrain));
  return internal::BuildTwoLevelTrain(*this, keys, values,
                                      /*priority_weighted=*/false,
                                      std::move(sketch));
}

}  // namespace joinmi
