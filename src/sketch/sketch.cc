#include "src/sketch/sketch.h"

#include <algorithm>

#include "src/common/string_util.h"
#include "src/sketch/key_table.h"

namespace joinmi {

const char* SketchMethodToString(SketchMethod method) {
  switch (method) {
    case SketchMethod::kTupsk:
      return "TUPSK";
    case SketchMethod::kLv2sk:
      return "LV2SK";
    case SketchMethod::kPrisk:
      return "PRISK";
    case SketchMethod::kIndsk:
      return "INDSK";
    case SketchMethod::kCsk:
      return "CSK";
  }
  return "unknown";
}

Result<SketchMethod> SketchMethodFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "tupsk") return SketchMethod::kTupsk;
  if (lower == "lv2sk") return SketchMethod::kLv2sk;
  if (lower == "prisk") return SketchMethod::kPrisk;
  if (lower == "indsk") return SketchMethod::kIndsk;
  if (lower == "csk") return SketchMethod::kCsk;
  return Status::InvalidArgument("unknown sketch method '" + name + "'");
}

KmvHeap::KmvHeap(size_t capacity, size_t max_offers) : capacity_(capacity) {
  heap_.reserve(std::min(capacity, max_offers));
}

bool KmvHeap::RankLess(const SketchEntry& a, const SketchEntry& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
  return a.value.Hash() < b.value.Hash();
}

bool KmvHeap::WouldAdmit(double rank) const {
  if (capacity_ == 0) return false;
  if (heap_.size() < capacity_) return true;
  return rank < heap_.front().rank;
}

void KmvHeap::Offer(SketchEntry entry) {
  if (capacity_ == 0) return;
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), RankLess);
    return;
  }
  if (!RankLess(entry, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), RankLess);
  heap_.back() = std::move(entry);
  std::push_heap(heap_.begin(), heap_.end(), RankLess);
}

std::vector<SketchEntry> KmvHeap::TakeSorted() {
  std::vector<SketchEntry> out = std::move(heap_);
  heap_.clear();
  std::sort(out.begin(), out.end(), [](const SketchEntry& a,
                                       const SketchEntry& b) {
    if (a.key_hash != b.key_hash) return a.key_hash < b.key_hash;
    return a.rank < b.rank;
  });
  return out;
}

Result<std::vector<AggregatedKey>> AggregateByKey(const Column& keys,
                                                  const Column& values,
                                                  AggKind agg,
                                                  uint32_t hash_seed) {
  if (keys.size() != values.size()) {
    return Status::InvalidArgument("key/value column length mismatch");
  }
  std::vector<AggregatedKey> result;  // by key id: first-appearance order
  std::vector<AggregatorState> states;
  internal::KeyTable table;
  Status status;
  internal::ScanKeyedRows(
      keys, values, hash_seed, &table,
      [&](size_t row, uint64_t key_hash, size_t id, bool first) {
        if (first) {
          result.push_back(AggregatedKey{key_hash, Value::Null(), 0});
          states.emplace_back(agg);
        }
        if (status.ok()) status = states[id].Update(values.GetValue(row));
        ++result[id].frequency;
      });
  JOINMI_RETURN_NOT_OK(status);
  for (size_t i = 0; i < result.size(); ++i) {
    JOINMI_ASSIGN_OR_RETURN(result[i].value, states[i].Finish());
  }
  return result;
}

}  // namespace joinmi
