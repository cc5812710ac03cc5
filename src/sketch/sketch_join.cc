#include "src/sketch/sketch_join.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace joinmi {

namespace {

// Preconditions shared by every join entry point: correct sides and equal
// hash seeds. Seeds must match because key hashes drawn from different
// seeds are incomparable — joining them "works" mechanically but returns a
// meaningless sample, which is exactly the failure mode a persisted index
// probed by a misconfigured query would hit silently.
Status CheckJoinable(const Sketch& train, const Sketch& candidate) {
  if (train.side != SketchSide::kTrain) {
    return Status::InvalidArgument(
        "left operand of a sketch join must be a train sketch");
  }
  if (candidate.side != SketchSide::kCandidate) {
    return Status::InvalidArgument(
        "right operand of a sketch join must be a candidate sketch");
  }
  if (train.hash_seed != candidate.hash_seed) {
    return Status::InvalidArgument(
        "sketch hash seeds differ (train " +
        std::to_string(train.hash_seed) + " vs candidate " +
        std::to_string(candidate.hash_seed) +
        "); sketches from different seeds cannot be joined");
  }
  return Status::OK();
}

// Mirrors EstimateMIAuto's type inference to report the chosen estimator.
Result<MIEstimatorKind> ChooseEstimatorForSample(const PairedSample& sample) {
  auto all_numeric = [](const std::vector<Value>& values) {
    for (const Value& v : values) {
      if (!IsNumeric(v.type())) return false;
    }
    return true;
  };
  const DataType x_type =
      all_numeric(sample.x) ? DataType::kDouble : DataType::kString;
  const DataType y_type =
      all_numeric(sample.y) ? DataType::kDouble : DataType::kString;
  return ChooseEstimator(x_type, y_type);
}

}  // namespace

Status CheckCandidateSketch(const Sketch& candidate) {
  if (candidate.side != SketchSide::kCandidate) {
    return Status::InvalidArgument(
        "expected a candidate-side sketch, got a train-side one");
  }
  for (size_t i = 1; i < candidate.entries.size(); ++i) {
    const uint64_t prev = candidate.entries[i - 1].key_hash;
    const uint64_t key = candidate.entries[i].key_hash;
    if (key == prev) {
      return Status::InvalidArgument(
          "candidate sketch has duplicate keys (entry " + std::to_string(i) +
          "); was it built as a train sketch?");
    }
    if (key < prev) {
      return Status::InvalidArgument(
          "candidate sketch entries are not sorted by key_hash (entry " +
          std::to_string(i) + " descends)");
    }
  }
  return Status::OK();
}

Status JoinBelowMinimum(size_t join_size, size_t min_join_size) {
  return Status::OutOfRange(
      "sketch join produced " + std::to_string(join_size) +
      " samples, fewer than the required " + std::to_string(min_join_size));
}

Result<SketchMIResult> ScoreSketchJoinSample(
    const PairedSample& sample, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size) {
  // Guard before estimator dispatch: a too-small join is OutOfRange no
  // matter which estimator would have run, and skipping first keeps the
  // common below-cutoff case free of any scoring work.
  if (join_size < min_join_size) {
    return JoinBelowMinimum(join_size, min_join_size);
  }
  SketchMIResult result;
  result.join_size = join_size;
  if (estimator.has_value()) {
    result.estimator = *estimator;
  } else {
    JOINMI_ASSIGN_OR_RETURN(result.estimator,
                            ChooseEstimatorForSample(sample));
  }
  JOINMI_ASSIGN_OR_RETURN(result.mi,
                          EstimateMI(result.estimator, sample, options));
  return result;
}

Result<SketchJoinResult> JoinSketches(const Sketch& train,
                                      const Sketch& candidate) {
  JOINMI_RETURN_NOT_OK(CheckJoinable(train, candidate));
  // Candidate keys are unique post-aggregation; build the probe map on them.
  std::unordered_map<uint64_t, const Value*> aug;
  aug.reserve(candidate.entries.size());
  for (const SketchEntry& entry : candidate.entries) {
    if (!aug.emplace(entry.key_hash, &entry.value).second) {
      return Status::InvalidArgument(
          "candidate sketch has duplicate keys; was it built as a train "
          "sketch?");
    }
  }
  SketchJoinResult result;
  result.sample.x.reserve(train.entries.size());
  result.sample.y.reserve(train.entries.size());
  // A set, not an adjacency counter: this overload stays correct for
  // hand-built or deserialized train sketches that violate the sortedness
  // invariant (the prepared path validates it instead).
  std::unordered_set<uint64_t> matched;
  matched.reserve(train.entries.size());
  for (const SketchEntry& entry : train.entries) {
    const auto it = aug.find(entry.key_hash);
    if (it == aug.end()) continue;
    result.sample.x.push_back(*it->second);
    result.sample.y.push_back(entry.value);
    matched.insert(entry.key_hash);
  }
  result.join_size = result.sample.size();
  result.matched_keys = matched.size();
  return result;
}

Result<PreparedTrainSketch> PreparedTrainSketch::Create(Sketch train) {
  std::vector<uint64_t> run_keys;
  std::vector<Span> run_spans;
  const std::vector<SketchEntry>& entries = train.entries;
  for (uint32_t i = 0; i < entries.size();) {
    const uint64_t hash = entries[i].key_hash;
    uint32_t end = i + 1;
    while (end < entries.size() && entries[end].key_hash == hash) ++end;
    if (!run_keys.empty() && hash < run_keys.back()) {
      return Status::InvalidArgument(
          "train sketch entries are not sorted by key_hash");
    }
    run_keys.push_back(hash);
    run_spans.emplace_back(i, end);
    i = end;
  }
  return PreparedTrainSketch(std::move(train), std::move(run_keys),
                             std::move(run_spans));
}

template <typename OnMatch>
void PreparedTrainSketch::Merge(const Sketch& candidate,
                                OnMatch&& on_match) const {
  // Both sides ascend (train runs by construction, candidates by
  // CheckCandidateSketch), so the intersection is one linear pass. Hashed
  // keys interleave unpredictably, so the cursors advance without a
  // branch; only the (rare) match branches.
  const SketchEntry* cand = candidate.entries.data();
  const size_t cand_len = candidate.entries.size();
  const size_t num_runs = run_keys_.size();
  size_t i = 0;
  size_t j = 0;
  while (i < num_runs && j < cand_len) {
    const uint64_t tk = run_keys_[i];
    const uint64_t ck = cand[j].key_hash;
    if (tk == ck) on_match(run_spans_[i], cand[j].value);
    i += tk <= ck;
    j += ck <= tk;
  }
}

Result<SketchJoinResult> PreparedTrainSketch::Join(
    const Sketch& candidate) const {
  JOINMI_RETURN_NOT_OK(CheckJoinable(train_, candidate));
  JOINMI_RETURN_NOT_OK(CheckCandidateSketch(candidate));
  SketchJoinResult result;
  Merge(candidate, [&result](const Span& span, const Value&) {
    result.join_size += span.second - span.first;
    ++result.matched_keys;
  });
  FillSample(candidate, result.join_size, &result.sample);
  return result;
}

void PreparedTrainSketch::FillSample(const Sketch& candidate,
                                     size_t join_size,
                                     PairedSample* sample) const {
  sample->x.clear();
  sample->y.clear();
  sample->x.reserve(join_size);
  sample->y.reserve(join_size);
  Merge(candidate, [this, sample](const Span& span, const Value& x) {
    for (uint32_t i = span.first; i < span.second; ++i) {
      sample->x.push_back(x);
      sample->y.push_back(train_.entries[i].value);
    }
  });
}

CandidateScore PreparedTrainSketch::Score(
    const Sketch& candidate, const std::optional<MIEstimatorKind>& estimator,
    const MIOptions& options, size_t min_join_size,
    PairedSample* scratch) const {
  Status joinable = CheckJoinable(train_, candidate);
  if (!joinable.ok()) return CandidateScore::Failed(std::move(joinable));
  CandidateScore score;
  // First pass sizes the join only: below-cutoff candidates — the common
  // case at scale, where almost nothing joins — skip without copying a
  // value or allocating.
  size_t join_size = 0;
  Merge(candidate, [&join_size](const Span& span, const Value&) {
    join_size += span.second - span.first;
  });
  score.result.join_size = join_size;
  if (join_size < min_join_size) {
    score.kind = CandidateScore::Kind::kSkipped;
    return score;
  }
  FillSample(candidate, join_size, scratch);
  auto scored = ScoreSketchJoinSample(*scratch, join_size, estimator,
                                      options, min_join_size);
  if (!scored.ok()) return CandidateScore::Failed(scored.status());
  score.kind = CandidateScore::Kind::kEstimated;
  score.result = *scored;
  return score;
}

Result<SketchMIResult> EstimateSketchMI(const Sketch& train,
                                        const Sketch& candidate,
                                        MIEstimatorKind estimator,
                                        const MIOptions& options,
                                        size_t min_join_size) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined,
                          JoinSketches(train, candidate));
  return ScoreSketchJoinSample(joined.sample, joined.join_size, estimator,
                               options, min_join_size);
}

Result<SketchMIResult> EstimateSketchMIAuto(const Sketch& train,
                                            const Sketch& candidate,
                                            const MIOptions& options,
                                            size_t min_join_size) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined,
                          JoinSketches(train, candidate));
  return ScoreSketchJoinSample(joined.sample, joined.join_size, std::nullopt,
                               options, min_join_size);
}

Result<SketchMIResult> EstimateSketchMI(const PreparedTrainSketch& train,
                                        const Sketch& candidate,
                                        MIEstimatorKind estimator,
                                        const MIOptions& options,
                                        size_t min_join_size) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined, train.Join(candidate));
  return ScoreSketchJoinSample(joined.sample, joined.join_size, estimator,
                               options, min_join_size);
}

Result<SketchMIResult> EstimateSketchMIAuto(const PreparedTrainSketch& train,
                                            const Sketch& candidate,
                                            const MIOptions& options,
                                            size_t min_join_size) {
  JOINMI_ASSIGN_OR_RETURN(SketchJoinResult joined, train.Join(candidate));
  return ScoreSketchJoinSample(joined.sample, joined.join_size, std::nullopt,
                               options, min_join_size);
}

}  // namespace joinmi
