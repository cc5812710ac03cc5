#include "src/discovery/search.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/discovery/topk_merge.h"

namespace joinmi {

namespace {

// Deterministic top-k merge shared by both unsharded search overloads:
// ranks the present estimates by the canonical discovery order
// (topk_merge.h) with the enumeration index (== candidate order, sorted
// for repositories, insertion order for indexes) as the ordering key, then
// fills result->hits using ref_at(i) for provenance. Also copies the
// outcome counts.
template <typename RefAt>
void MergeTopKByEnumeration(const IndexEvaluation& evaluation, size_t k,
                            RefAt&& ref_at, TopKSearchResult* result) {
  const std::vector<std::optional<JoinMIEstimate>>& estimates =
      evaluation.estimates;
  internal::TopKSelection selection = internal::SelectTopKByMI(
      estimates, k, [](size_t i) { return static_cast<uint64_t>(i); });
  result->num_evaluated = selection.num_evaluated;
  result->num_skipped = evaluation.num_skipped;
  result->num_errors = evaluation.num_errors;
  result->hits.reserve(selection.indices.size());
  for (size_t i : selection.indices) {
    result->hits.push_back(SearchHit{ref_at(i), *estimates[i]});
  }
}

}  // namespace

Result<TopKSearchResult> TopKJoinMISearch(const Table& base_table,
                                          const SearchSpec& spec,
                                          const TableRepository& repository,
                                          size_t k,
                                          const SearchConfig& config) {
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(base_table, spec.base_key, spec.base_target,
                          config.join_config));

  // Each pair is sketched on the spot and scored by the same kernel the
  // indexes use. A missing table or an unsketchable column (all-null,
  // type mismatch) is a hard error for that pair only.
  const std::vector<ColumnPairRef> pairs = repository.ExtractColumnPairs();
  IndexEvaluation evaluation = ScoreCandidates(
      pairs.size(), config.num_threads, /*strip=*/1,
      [&query, &repository, &pairs](size_t i, PairedSample* scratch) {
        auto table = repository.GetTable(pairs[i].table_name);
        if (!table.ok()) return CandidateScore::Failed(table.status());
        auto sketch = query.SketchCandidate(**table, pairs[i].key_column,
                                            pairs[i].value_column);
        if (!sketch.ok()) return CandidateScore::Failed(sketch.status());
        return query.Score(*sketch, scratch);
      });

  TopKSearchResult result;
  result.num_candidates = pairs.size();
  MergeTopKByEnumeration(evaluation, k,
                         [&pairs](size_t i) { return pairs[i]; }, &result);
  return result;
}

Result<TopKSearchResult> TopKJoinMISearch(const Table& base_table,
                                          const SearchSpec& spec,
                                          const Searchable& target, size_t k,
                                          size_t num_threads,
                                          ShardQueryMode mode) {
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  // The target's config (not a caller-supplied one) drives the query
  // sketch: candidate sketches were built under it, and only same-config
  // sketches coordinate. This is what makes every indexed ranking match
  // the repository path.
  JOINMI_ASSIGN_OR_RETURN(
      JoinMIQuery query,
      JoinMIQuery::Create(base_table, spec.base_key, spec.base_target,
                          target.search_config()));
  return target.SearchQuery(query, k, num_threads, mode);
}

// SketchIndex's Searchable implementation lives here (not in
// sketch_index.cc) so it shares MergeTopKByEnumeration with the
// repository-scan path — the shared merge is what keeps the two rankings
// provably identical.
Result<TopKSearchResult> SketchIndex::SearchQuery(const JoinMIQuery& query,
                                                  size_t k,
                                                  size_t num_threads,
                                                  ShardQueryMode mode) const {
  (void)mode;  // no shard to lose
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(IndexEvaluation evaluation,
                          EvaluateAll(query, num_threads));
  TopKSearchResult result;
  result.num_candidates = size();
  MergeTopKByEnumeration(
      evaluation, k,
      [this](size_t i) { return candidates()[i].ref; }, &result);
  return result;
}

Result<TopKSearchResult> ShardedSketchIndex::SearchQuery(
    const JoinMIQuery& query, size_t k, size_t num_threads,
    ShardQueryMode mode) const {
  if (k == 0) {
    return Status::InvalidArgument("top-k search requires k >= 1");
  }
  JOINMI_ASSIGN_OR_RETURN(ShardSearchResult merged,
                          Search(query, k, num_threads, mode));
  TopKSearchResult result;
  result.num_candidates = merged.num_candidates;
  result.num_evaluated = merged.num_evaluated;
  result.num_skipped = merged.num_skipped;
  result.num_errors = merged.num_errors;
  result.shard_failures = std::move(merged.shard_failures);
  result.hits.reserve(merged.hits.size());
  for (ShardSearchHit& hit : merged.hits) {
    result.hits.push_back(SearchHit{std::move(hit.ref), hit.estimate});
  }
  return result;
}

}  // namespace joinmi
