#include "src/discovery/paged_shard_index.h"

#include <utility>

#include "src/sketch/serialize.h"

namespace joinmi {

std::string EncodeCandidateRecord(const ColumnPairRef& ref,
                                  const Sketch& sketch) {
  std::string out;
  wire::AppendLengthPrefixed(&out, ref.table_name);
  wire::AppendLengthPrefixed(&out, ref.key_column);
  wire::AppendLengthPrefixed(&out, ref.value_column);
  wire::AppendLengthPrefixed(&out, SerializeSketch(sketch));
  return out;
}

Result<CandidateRecord> DecodeCandidateRecord(const std::string& record) {
  wire::Reader reader(record);
  CandidateRecord out;
  JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&out.ref.table_name));
  JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&out.ref.key_column));
  JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&out.ref.value_column));
  std::string blob;
  JOINMI_RETURN_NOT_OK(reader.ReadLengthPrefixed(&blob));
  JOINMI_ASSIGN_OR_RETURN(out.sketch, DeserializeSketch(blob));
  JOINMI_RETURN_NOT_OK(CheckCandidateSketch(out.sketch));
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes after candidate record");
  }
  return out;
}

Result<std::unique_ptr<PagedShardClient>> PagedShardClient::Open(
    const std::string& path, std::vector<uint64_t> global_indices) {
  return Open(path, std::move(global_indices), Options());
}

Result<std::unique_ptr<PagedShardClient>> PagedShardClient::Open(
    const std::string& path, std::vector<uint64_t> global_indices,
    const Options& options) {
  JOINMI_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::PagedShardFile> file,
      storage::PagedShardFile::Open(path, options.pool_pages));
  if (global_indices.size() != file->num_records()) {
    return Status::InvalidArgument(
        "shard holds " + std::to_string(file->num_records()) +
        " candidates but the global index mapping lists " +
        std::to_string(global_indices.size()));
  }
  for (size_t i = 1; i < global_indices.size(); ++i) {
    if (global_indices[i - 1] >= global_indices[i]) {
      return Status::InvalidArgument(
          "shard global indices are not strictly increasing");
    }
  }
  return std::unique_ptr<PagedShardClient>(
      new PagedShardClient(std::move(file), std::move(global_indices)));
}

Result<ShardSearchResult> PagedShardClient::Search(const JoinMIQuery& query,
                                                   size_t k,
                                                   size_t num_threads) const {
  if (k == 0) {
    return Status::InvalidArgument("shard search requires k >= 1");
  }
  // Same whole-shard fail-fast as SketchIndex::EvaluateAll: a seed
  // mismatch is one configuration error, not num_records() hard errors.
  if (query.train_sketch().hash_seed != config().hash_seed) {
    return Status::InvalidArgument(
        "query sketch hash seed " +
        std::to_string(query.train_sketch().hash_seed) +
        " does not match index hash seed " +
        std::to_string(config().hash_seed));
  }

  // A record that fails to fault in (page checksum) or decode is one
  // hard error, not a failed query — only the probes touching it fail.
  // Each decoded record leaves its ref behind for the hit list.
  std::vector<ColumnPairRef> refs(num_candidates());
  IndexEvaluation evaluation = ScoreCandidates(
      refs.size(), num_threads, /*strip=*/1,
      [this, &query, &refs](size_t i, PairedSample* scratch) {
        auto bytes = file_->ReadRecord(i);
        if (!bytes.ok()) return CandidateScore::Failed(bytes.status());
        auto record = DecodeCandidateRecord(*bytes);
        if (!record.ok()) return CandidateScore::Failed(record.status());
        refs[i] = std::move(record->ref);
        return query.Score(record->sketch, scratch);
      });
  return SelectShardHits(evaluation, k, global_indices_,
                         [&refs](size_t i) { return std::move(refs[i]); });
}

}  // namespace joinmi
