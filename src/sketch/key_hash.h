// Join-key hashing for sketches (Section IV "Approach Overview"): the
// object hash h maps key values to integers; the uniform hash h_u maps
// integers to [0, 1). TUPSK additionally hashes occurrence tuples ⟨k, j⟩.

#ifndef JOINMI_SKETCH_KEY_HASH_H_
#define JOINMI_SKETCH_KEY_HASH_H_

#include <cstdint>

#include "src/table/column.h"
#include "src/table/value.h"

namespace joinmi {

/// \brief h(k): 64-bit object hash of a join-key value. Strings go through
/// MurmurHash3; numerics through a bijective mix of their bit pattern.
/// Seeded so independent sketch universes can coexist.
uint64_t HashKey(const Value& key, uint32_t seed = 0);

/// \brief h(k) of cell `row` of `col`, read through the typed accessors:
/// equal to HashKey(col.GetValue(row), seed), without building a Value
/// (so a string key is hashed in place, never copied).
uint64_t HashKeyAt(const Column& col, size_t row, uint32_t seed = 0);

/// \brief h_u(h(k)): unit-interval rank of a key hash (Fibonacci hashing).
double KeyUnitHash(uint64_t key_hash);

/// \brief h_u(⟨k, j⟩): unit rank of the j-th occurrence of key k (j >= 1).
/// TUPSK's sampling frame; ⟨k, 1⟩ coincides with the candidate-side rank so
/// first occurrences stay coordinated.
double TupleUnitHash(uint64_t key_hash, uint64_t occurrence);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_KEY_HASH_H_
