#include "perfbench/gen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/table/column.h"

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::string KeyName(uint64_t id) { return "k" + std::to_string(id); }

// Weyl sequence: fractional parts of index * golden ratio spread evenly
// over [0, 1) for any run of consecutive indices.
double Spread(uint64_t index) {
  const double x = static_cast<double>(index) * 0.6180339887498949;
  return x - std::floor(x);
}

size_t RowsAround(size_t mean, uint64_t index) {
  return std::max<size_t>(
      1, static_cast<size_t>((0.5 + Spread(index)) * static_cast<double>(mean)));
}

// Whether column `slot` holds strings: the first p of every 20 slots.
bool StringSlot(uint64_t slot, double p) {
  return static_cast<double>(slot % 20) < p * 20.0;
}

// Latent bucket of a key within a family: half follows the key's rank (hot
// keys share buckets, so values correlate with key frequency), half is a
// hash so buckets stay diverse among the shared hot keys.
size_t BucketOf(uint64_t key_id, size_t family, const OpenDataShape& shape) {
  const uint64_t id_space = shape.left_domain + shape.right_domain;
  const uint64_t rank_part = key_id * shape.buckets / id_space;
  const uint64_t hash_part =
      DeriveSeed(key_id, 0xB0C4E7ULL, family) % shape.buckets;
  return static_cast<size_t>((rank_part + hash_part) % shape.buckets);
}

const Zipf& LeftZipf(const OpenDataShape& shape) {
  // One table per process: every open-data workload uses one shape.
  static const Zipf zipf(shape.left_domain, shape.zipf_s);
  return zipf;
}

std::shared_ptr<joinmi::Table> MakeTable(
    std::vector<std::pair<std::string, std::shared_ptr<joinmi::Column>>>
        columns) {
  auto table = joinmi::Table::FromColumns(std::move(columns));
  table.status().Abort("generating a benchmark table");
  return std::move(*table);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& word : s_) word = SplitMix(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Below(uint64_t bound) {
  // Rejection sampling keeps the draw exactly uniform.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % bound;
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Gaussian() {
  const double u1 = 1.0 - Unit();
  const double u2 = Unit();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t state = seed ^ (a * 0xD1B54A32D192ED03ULL);
  SplitMix(&state);
  state ^= b * 0x8CB92BA72F3D8DD7ULL;
  return SplitMix(&state);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(Rng* rng) const {
  const double u = rng->Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

std::shared_ptr<joinmi::Table> SyntheticBase(const SyntheticShape& shape,
                                             uint64_t seed) {
  Rng rng(seed);
  const double noise = 0.1 + 0.5 * rng.Unit();
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  keys.reserve(shape.base_rows);
  targets.reserve(shape.base_rows);
  for (size_t i = 0; i < shape.base_rows; ++i) {
    const uint64_t k = rng.Below(shape.key_domain);
    keys.push_back(KeyName(k));
    targets.push_back(rng.Bernoulli(noise) ? static_cast<int64_t>(rng.Below(16))
                                           : static_cast<int64_t>(k % 16));
  }
  return MakeTable({{"K", joinmi::Column::MakeString(std::move(keys))},
                    {"Y", joinmi::Column::MakeInt64(std::move(targets))}});
}

std::shared_ptr<joinmi::Table> SyntheticCandidate(const SyntheticShape& shape,
                                                  size_t noise_level,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> keys;
  std::vector<int64_t> values;
  keys.reserve(shape.candidate_rows);
  values.reserve(shape.candidate_rows);
  for (size_t i = 0; i < shape.candidate_rows; ++i) {
    const uint64_t k = rng.Below(shape.key_domain);
    keys.push_back(KeyName(k));
    values.push_back(static_cast<int64_t>(k % 16 + rng.Below(1 + noise_level)));
  }
  return MakeTable({{"K", joinmi::Column::MakeString(std::move(keys))},
                    {"V", joinmi::Column::MakeInt64(std::move(values))}});
}

std::shared_ptr<joinmi::Table> OpenDataBase(const OpenDataShape& shape,
                                            uint64_t seed, uint64_t index) {
  Rng rng(seed);
  const size_t family = rng.Below(shape.families);
  const double dependence = rng.Unit();
  const bool y_string = StringSlot(index, shape.p_string);
  const size_t rows = RowsAround(shape.base_rows, index);
  const Zipf& zipf = LeftZipf(shape);
  std::vector<std::string> keys;
  std::vector<std::string> labels;
  std::vector<double> numbers;
  keys.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t id = zipf.Draw(&rng);
    keys.push_back(KeyName(id));
    const bool dependent = rng.Bernoulli(dependence);
    const size_t bucket = dependent ? BucketOf(id, family, shape)
                                    : rng.Below(shape.buckets);
    if (y_string) {
      labels.push_back("cat-" + std::to_string(bucket));
    } else {
      numbers.push_back(10.0 * static_cast<double>(bucket) +
                        2.5 * rng.Gaussian());
    }
  }
  auto target = y_string ? joinmi::Column::MakeString(std::move(labels))
                         : joinmi::Column::MakeDouble(std::move(numbers));
  return MakeTable({{"K", joinmi::Column::MakeString(std::move(keys))},
                    {"Y", std::move(target)}});
}

std::shared_ptr<joinmi::Table> OpenDataCandidate(const OpenDataShape& shape,
                                                 uint64_t seed,
                                                 uint64_t index) {
  Rng rng(seed);
  const size_t rows = RowsAround(shape.candidate_rows, index);
  const size_t overlap = static_cast<size_t>(
      shape.key_overlap *
      static_cast<double>(std::min(shape.left_domain, shape.right_domain)));
  std::vector<uint64_t> ids(rows);
  std::vector<std::string> keys;
  keys.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    // The shared region is the base domain's hot prefix; the rest are
    // candidate-only ids beyond the base domain.
    const uint64_t slot = rng.Below(shape.right_domain);
    ids[i] = slot < overlap ? slot : shape.left_domain + (slot - overlap);
    keys.push_back(KeyName(ids[i]));
  }
  std::vector<std::pair<std::string, std::shared_ptr<joinmi::Column>>> columns;
  columns.emplace_back("K", joinmi::Column::MakeString(std::move(keys)));
  for (size_t c = 0; c < shape.value_columns; ++c) {
    const size_t family = rng.Below(shape.families);
    const double noise = 0.8 * rng.Unit();
    const bool z_string =
        StringSlot(index * shape.value_columns + c, shape.p_string);
    std::vector<std::string> labels;
    std::vector<double> numbers;
    for (size_t i = 0; i < rows; ++i) {
      const size_t bucket = rng.Bernoulli(noise)
                                ? rng.Below(shape.buckets)
                                : BucketOf(ids[i], family, shape);
      if (z_string) {
        labels.push_back("val-" + std::to_string(bucket));
      } else {
        numbers.push_back(10.0 * static_cast<double>(bucket) + rng.Gaussian());
      }
    }
    columns.emplace_back(
        "V" + std::to_string(c),
        z_string ? joinmi::Column::MakeString(std::move(labels))
                 : joinmi::Column::MakeDouble(std::move(numbers)));
  }
  return MakeTable(std::move(columns));
}

std::vector<std::string> ValueColumns(const joinmi::Table& table) {
  std::vector<std::string> names;
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const std::string& name = table.schema().field(i).name;
    if (name != "K") names.push_back(name);
  }
  return names;
}

}  // namespace perfbench
