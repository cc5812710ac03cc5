// Offline sketch index for MI-based data discovery: candidate column pairs
// are sketched once (offline), then a query table's sketch is joined against
// every indexed candidate to rank augmentations by estimated MI — the
// deployment shape motivating the paper (Sections I, III, V-C).
//
// The index is the persisted backbone of that deployment: each candidate's
// sketch is stored once, validated at add time so every query can merge it
// against the prepared train runs, queries fan out on the shared
// ParallelFor executor with a deterministic merge, and the whole index
// (config + provenance + sketches) serializes to a versioned binary format
// so it can be built offline and served after a restart.
//
// On-disk format (little-endian, version-tagged):
//   magic "JMIX" | u32 version
//   | config: u8 sketch_method, u64 sketch_capacity, u32 hash_seed,
//     u64 sampling_seed, u8 aggregation, u8 has_estimator, u8 estimator,
//     i32 mi_k, f64 laplace_alpha, f64 perturb_sigma, u64 perturb_seed,
//     u64 min_join_size
//   | u64 candidate_count
//   | per candidate: table_name, key_column, value_column (u32 length +
//     bytes each), then u32 length + serialized sketch (serialize.h format)

#ifndef JOINMI_DISCOVERY_SKETCH_INDEX_H_
#define JOINMI_DISCOVERY_SKETCH_INDEX_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/join_mi.h"
#include "src/discovery/repository.h"
#include "src/discovery/searchable.h"

namespace joinmi {

/// \brief One indexed candidate: provenance plus its pre-built sketch —
/// the only copy of the candidate the index keeps.
struct IndexedCandidate {
  ColumnPairRef ref;
  Sketch stored_sketch;

  const Sketch& sketch() const { return stored_sketch; }
};

/// \brief Per-candidate outcomes of evaluating one query against the whole
/// index, in candidate enumeration order.
struct IndexEvaluation {
  /// estimates[i] belongs to candidates()[i]; nullopt if it was skipped or
  /// errored.
  std::vector<std::optional<JoinMIEstimate>> estimates;
  /// Candidates that produced an estimate.
  size_t num_evaluated = 0;
  /// Candidates whose sketch join fell below config.min_join_size (the
  /// paper's meaningless-estimate guard).
  size_t num_skipped = 0;
  /// Candidates that failed hard (estimator/type errors) — distinct from
  /// num_skipped so a broken index is not mistaken for small overlaps.
  size_t num_errors = 0;
};

/// \brief Scores candidate `index` with the kernel (JoinMIQuery::Score),
/// using the worker's reusable `scratch` sample.
using CandidateScorer =
    std::function<CandidateScore(size_t index, PairedSample* scratch)>;

/// \brief The fan-out and outcome tally every candidate loop shares:
/// scores candidates [0, count) in strips of `strip` through ParallelFor
/// (`num_threads` 0 = hardware concurrency, 1 = inline on the caller),
/// then tallies the outcomes in enumeration order — so results never
/// depend on the thread count.
IndexEvaluation ScoreCandidates(size_t count, size_t num_threads,
                                size_t strip, const CandidateScorer& score);

/// \brief Sketch-per-candidate index over a repository.
class SketchIndex : public Searchable {
 public:
  explicit SketchIndex(JoinMIConfig config) : config_(std::move(config)) {}

  const JoinMIConfig& config() const { return config_; }
  size_t size() const { return candidates_.size(); }
  const std::vector<IndexedCandidate>& candidates() const {
    return candidates_;
  }

  /// \brief Sketches one candidate column pair and adds it.
  Status AddCandidate(const Table& table, const ColumnPairRef& ref);

  /// \brief Adds a pre-built candidate sketch (the deserialization path).
  /// Rejects sketches whose hash seed disagrees with the index config —
  /// they could never join a query sketched under this config — and ones
  /// that break the probe contract (CheckCandidateSketch).
  Status AddSketch(const ColumnPairRef& ref, Sketch sketch);

  /// \brief Indexes every extractable column pair of the repository.
  /// Column pairs that cannot be sketched (e.g. all-null) are skipped;
  /// returns the number indexed.
  Result<size_t> IndexRepository(const TableRepository& repository);

  /// \brief Evaluates the query against every candidate, fanning out
  /// through ScoreCandidates (`num_threads` 0 = hardware concurrency,
  /// 1 = inline).
  /// Outcomes land in enumeration order, so results never depend on the
  /// thread count. Fails fast on a query/index hash-seed mismatch. Each
  /// candidate is scored by the kernel under the query's config, exactly
  /// as `query.Estimate(candidate.sketch())` scores it.
  Result<IndexEvaluation> EvaluateAll(const JoinMIQuery& query,
                                      size_t num_threads = 0) const;

  // Searchable: the single-interface search path (search.h drives it).
  // Hits rank by MI desc, then insertion order — the one discovery order
  // (topk_merge.h). `mode` is ignored — an unsharded index has no shard
  // to lose.
  const JoinMIConfig& search_config() const override { return config_; }
  Result<TopKSearchResult> SearchQuery(const JoinMIQuery& query, size_t k,
                                       size_t num_threads,
                                       ShardQueryMode mode) const override;

 private:
  JoinMIConfig config_;
  std::vector<IndexedCandidate> candidates_;
};

/// \brief Serializes the index (config, refs, sketches) to a binary string.
std::string SerializeIndex(const SketchIndex& index);

/// \brief Parses a serialized index; validates magic, version, enum tags,
/// and every embedded sketch (including the probe contract), so corrupted
/// inputs fail cleanly, naming the candidate.
Result<SketchIndex> DeserializeIndex(const std::string& data);

/// \brief Writes the index to a file.
Status WriteIndexFile(const SketchIndex& index, const std::string& path);

/// \brief Reads an index from a file.
Result<SketchIndex> ReadIndexFile(const std::string& path);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SKETCH_INDEX_H_
