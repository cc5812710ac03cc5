// The ledger's own input generator. Everything the benchmark feeds the
// system is drawn here from the run's seed with a self-contained RNG, so
// no change under src/ can alter the inputs a run measures.
//
// Two table shapes:
//   * Synthetic: string keys drawn uniformly over a fixed key domain and an
//     int64 target that is a noisy function of the key — the shape of the
//     repository's full-scale sketch bench (cold_discover).
//   * Open data: the structural statistics of the NYC-like collection the
//     paper evaluates on — a large Zipf-skewed base key domain against
//     small candidate domains that share the base's hot keys, 45% string
//     value columns, values driven by a latent per-family key bucket
//     (wide_probe, serve_ingest).

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/table/table.h"

namespace perfbench {

/// \brief xoshiro256** seeded through splitmix64: identical streams on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, bound), bound > 0.
  uint64_t Below(uint64_t bound);
  /// Uniform in [0, 1).
  double Unit();
  bool Bernoulli(double p) { return Unit() < p; }
  /// Standard normal (Box-Muller).
  double Gaussian();

 private:
  uint64_t s_[4];
};

/// \brief Mixes a seed with stream labels into an independent seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// \brief Zipf(s) over ranks [0, n): rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// \brief Synthetic shape: `rows` rows, keys uniform over `key_domain`.
struct SyntheticShape {
  size_t key_domain = 4000;
  size_t base_rows = 120000;
  size_t candidate_rows = 4000;
};

/// \brief Base table [K string, Y int64]: Y = key % 16, replaced by noise
/// with a per-table probability.
std::shared_ptr<joinmi::Table> SyntheticBase(const SyntheticShape& shape,
                                             uint64_t seed);

/// \brief Candidate table [K string, V int64]: V = key % 16 plus uniform
/// jitter whose width grows with `noise_level`, so candidates range from
/// perfectly informative to pure noise.
std::shared_ptr<joinmi::Table> SyntheticCandidate(const SyntheticShape& shape,
                                                  size_t noise_level,
                                                  uint64_t seed);

/// \brief Open-data shape (defaults mirror the NYC-like statistics).
struct OpenDataShape {
  size_t base_rows = 2000;
  size_t candidate_rows = 600;
  size_t left_domain = 11200;
  size_t right_domain = 1000;
  double key_overlap = 0.70;
  double zipf_s = 0.85;
  double p_string = 0.45;
  size_t buckets = 24;
  size_t families = 6;
  /// Value columns per candidate table (each one is a candidate column).
  size_t value_columns = 3;
};

// The cost-shaping properties of an open-data table — its row count (within
// +/-50% of the shape's) and which columns are strings (p_string of them) —
// follow from the table's index through a low-discrepancy sequence, not
// from the seed, so every seed puts the same work in front of the system;
// the seed draws keys, values, families and dependence strengths.

/// \brief Base table number `index`: [K string, Y], Y a string label or a
/// double drawn from the key's latent bucket with a per-table dependence
/// strength.
std::shared_ptr<joinmi::Table> OpenDataBase(const OpenDataShape& shape,
                                            uint64_t seed, uint64_t index);

/// \brief Candidate table number `index`: [K string, V0..V{n-1}]; keys
/// uniform over the shared hot prefix plus candidate-only ids; each value
/// column belongs to one family and reads out that family's bucket with
/// noise.
std::shared_ptr<joinmi::Table> OpenDataCandidate(const OpenDataShape& shape,
                                                 uint64_t seed,
                                                 uint64_t index);

/// \brief Names of a candidate table's value columns.
std::vector<std::string> ValueColumns(const joinmi::Table& table);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
