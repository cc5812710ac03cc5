// Internal: the one pass every sketch builder makes over its input rows,
// and the flat key table behind it. The pass hashes each usable row's key
// once (typed, no Value copy) and numbers the distinct key hashes densely
// in first-seen order, so per-key state (TUPSK occurrence counts, LV2SK
// group sizes, candidate-side aggregates) lives in plain arrays indexed by
// that id, and the table's size is the source's distinct-key count.

#ifndef JOINMI_SKETCH_KEY_TABLE_H_
#define JOINMI_SKETCH_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sketch/key_hash.h"
#include "src/table/column.h"

namespace joinmi {
namespace internal {

/// \brief Open-addressing set of 64-bit key hashes assigning dense ids
/// 0, 1, 2, ... in first-insertion order. Linear probing over a
/// power-of-two slot array that starts small and doubles at half load, so
/// memory follows the distinct keys, never the row count.
class KeyTable {
 public:
  /// \brief The id of `key_hash`, assigning it the next id (and setting
  /// `*inserted`) if the table has not seen it.
  size_t Insert(uint64_t key_hash, bool* inserted) {
    for (size_t i = SlotOf(key_hash);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) {
        *inserted = true;
        const size_t id = keys_.size();
        slot = Slot{key_hash, id + 1};
        keys_.push_back(key_hash);
        if (2 * keys_.size() > slots_.size()) Grow();
        return id;
      }
      if (slot.key_hash == key_hash) {
        *inserted = false;
        return slot.id_plus_one - 1;
      }
    }
  }

  /// \brief Distinct key hashes inserted so far.
  size_t size() const { return keys_.size(); }

  /// \brief Key hash by id (first-insertion order).
  uint64_t key(size_t id) const { return keys_[id]; }

 private:
  static constexpr int kInitialLog2 = 4;
  static constexpr size_t kInitialSlots = size_t{1} << kInitialLog2;

  struct Slot {
    uint64_t key_hash = 0;
    size_t id_plus_one = 0;  // 0 marks an empty slot
  };

  /// Fibonacci hashing: the top bits of key_hash * 2^64/phi.
  size_t SlotOf(uint64_t key_hash) const {
    return static_cast<size_t>((key_hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    slots_.assign(2 * slots_.size(), Slot{});
    --shift_;
    for (size_t id = 0; id < keys_.size(); ++id) {
      size_t i = SlotOf(keys_[id]);
      while (slots_[i].id_plus_one != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = Slot{keys_[id], id + 1};
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  int shift_ = 64 - kInitialLog2;  // SlotOf keeps the top log2(slots) bits
  std::vector<uint64_t> keys_;  // by id
};

/// \brief The builders' single pass: calls fn(row, key_hash, id, first) for
/// every row whose key and value are both non-null, in row order, where
/// `id` numbers the row's key hash in `table` and `first` marks its first
/// occurrence. Returns the number of such rows (the sketch's source_rows;
/// table->size() afterwards is its source_distinct_keys).
template <typename Fn>
size_t ScanKeyedRows(const Column& keys, const Column& values,
                     uint32_t hash_seed, KeyTable* table, Fn&& fn) {
  size_t rows = 0;
  for (size_t row = 0; row < keys.size(); ++row) {
    if (!keys.IsValid(row) || !values.IsValid(row)) continue;
    ++rows;
    const uint64_t key_hash = HashKeyAt(keys, row, hash_seed);
    bool first = false;
    const size_t id = table->Insert(key_hash, &first);
    fn(row, key_hash, id, first);
  }
  return rows;
}

}  // namespace internal
}  // namespace joinmi

#endif  // JOINMI_SKETCH_KEY_TABLE_H_
