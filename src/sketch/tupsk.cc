// TUPSK: tuple-based sampling (Section IV-B). Each row is identified by the
// occurrence tuple ⟨k, j⟩ — key value k appearing for the j-th time — and
// ranked by h_u(⟨k, j⟩). Keeping the n minimum ranks gives every row the
// same inclusion probability regardless of the key-frequency distribution,
// which is the property that removes the estimator bias LV2SK suffers under
// key-target dependence.

#include "src/sketch/builder.h"
#include "src/sketch/key_hash.h"
#include "src/sketch/key_table.h"

namespace joinmi {

Result<Sketch> TupskBuilder::SketchTrain(const Column& keys,
                                         const Column& values) const {
  JOINMI_ASSIGN_OR_RETURN(Sketch sketch,
                          InitSketch(keys, values, SketchSide::kTrain));
  // Single pass: track the running occurrence index j per key; offer every
  // row at rank h_u(⟨k, j⟩).
  internal::KeyTable table;
  std::vector<uint64_t> occurrences;  // by key id
  KmvHeap heap(options_.capacity, keys.size());
  sketch.source_rows = internal::ScanKeyedRows(
      keys, values, options_.hash_seed, &table,
      [&](size_t row, uint64_t key_hash, size_t id, bool first) {
        if (first) occurrences.push_back(0);
        const double rank = TupleUnitHash(key_hash, ++occurrences[id]);
        if (!heap.WouldAdmit(rank)) return;
        heap.Offer(SketchEntry{key_hash, rank, values.GetValue(row)});
      });
  sketch.source_distinct_keys = table.size();
  sketch.entries = heap.TakeSorted();
  return sketch;
}

double TupskBuilder::CandidateRank(uint64_t key_hash) const {
  // h_u(⟨k, 1⟩): aggregation leaves unique keys, and hashing the first
  // occurrence tuple keeps the candidate side coordinated with the j = 1
  // rows of the train sketch.
  return TupleUnitHash(key_hash, 1);
}

}  // namespace joinmi
