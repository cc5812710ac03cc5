// Sketch join: merging two independently built sketches on their hashed
// keys to recover a sample of the full (left-outer, many-to-one) join, and
// estimating MI on that sample (Section IV "Approach Overview").

#ifndef JOINMI_SKETCH_SKETCH_JOIN_H_
#define JOINMI_SKETCH_SKETCH_JOIN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/mi/estimator.h"
#include "src/sketch/sketch.h"

namespace joinmi {

/// \brief Result of joining a train sketch with a candidate sketch.
struct SketchJoinResult {
  /// Paired (feature X from candidate, target Y from train) samples, one
  /// per matching train entry — train-side multiplicity is preserved, so
  /// repeated keys reproduce repeated feature values as in the real join.
  PairedSample sample;
  /// Number of joined pairs (== sample.size()).
  size_t join_size = 0;
  /// Distinct keys contributing at least one pair.
  size_t matched_keys = 0;
};

/// \brief Joins the sketches on h(k). The candidate sketch must be
/// aggregated (unique keys); each train entry matches at most one candidate
/// entry. Sketches must be built with the same hash seed: key hashes from
/// different seeds are incomparable, so a mismatch returns InvalidArgument
/// instead of a silently meaningless (empty or garbage) join.
Result<SketchJoinResult> JoinSketches(const Sketch& train,
                                      const Sketch& candidate);

/// \brief The probe contract every stored candidate honors: candidate
/// side, entries strictly ascending by key_hash (sorted, no duplicate
/// keys — the builder invariant). Checked once where bytes or caller
/// sketches become candidates, so the scoring kernel can merge without
/// re-checking. Violations are InvalidArgument naming the first bad entry.
Status CheckCandidateSketch(const Sketch& candidate);

/// \brief End-to-end sketch-based MI estimate.
struct SketchMIResult {
  double mi = 0.0;
  MIEstimatorKind estimator = MIEstimatorKind::kMLE;
  size_t join_size = 0;
};

/// \brief The OutOfRange status a join smaller than `min_join_size` gets
/// (the paper's meaningless-estimate cutoff).
Status JoinBelowMinimum(size_t join_size, size_t min_join_size);

/// \brief Scores an already-recovered join sample exactly as the
/// EstimateSketchMI* entry points do: the min_join_size guard first
/// (JoinBelowMinimum), then estimator dispatch (`estimator` if set,
/// otherwise the auto policy inferred from the sample's value types), then
/// EstimateMI. This is the single scoring tail every path shares — sharing
/// it is what keeps their rankings bit-identical.
Result<SketchMIResult> ScoreSketchJoinSample(
    const PairedSample& sample, size_t join_size,
    const std::optional<MIEstimatorKind>& estimator, const MIOptions& options,
    size_t min_join_size);

/// \brief Outcome of scoring one candidate: an estimate, a join below
/// min_join_size (skipped — cheap, allocation-free), or a hard error.
struct CandidateScore {
  enum class Kind : uint8_t { kError, kSkipped, kEstimated };

  static CandidateScore Failed(Status error) {
    CandidateScore score;
    score.error = std::move(error);
    return score;
  }

  Kind kind = Kind::kError;
  /// kEstimated: the estimate. kSkipped: only join_size is meaningful.
  SketchMIResult result;
  /// kError: why the candidate could not be scored.
  Status error;
};

/// \brief A train sketch prepared for repeated probing, and the one
/// candidate-scoring kernel.
///
/// In the discovery setting one base (train) sketch is joined against
/// thousands of candidate sketches. `Create` reduces the train sketch to
/// its runs of equal key_hash, as two sorted parallel arrays (distinct
/// keys, and each key's [begin, end) slice of the entries). A join is then
/// a linear merge of those runs against the candidate's sorted entries —
/// no hashing, purely sequential reads — and matches fall out in
/// train-entry order, so the sample is byte-identical to `JoinSketches`.
class PreparedTrainSketch {
 public:
  /// \brief Takes ownership of a train-side sketch and builds its key
  /// runs. Fails if entries are not sorted by key_hash (the builder
  /// invariant every sketch variant maintains).
  static Result<PreparedTrainSketch> Create(Sketch train);

  const Sketch& sketch() const { return train_; }

  /// \brief Joins against a caller-supplied candidate sketch. Checks the
  /// sides, the seeds and CheckCandidateSketch first: violations return
  /// InvalidArgument rather than a silently wrong (reordered or
  /// double-counted) join sample.
  Result<SketchJoinResult> Join(const Sketch& candidate) const;

  /// \brief The scoring kernel every candidate loop calls. Merges the
  /// train runs against `candidate` — which must already honor
  /// CheckCandidateSketch — to size the join; a join below
  /// `min_join_size` is skipped before any value is copied. Otherwise
  /// fills `scratch` in train-entry order and scores it through
  /// ScoreSketchJoinSample. Side or seed mismatches are errors. `scratch`
  /// is the caller's reusable sample storage; its capacity is kept.
  CandidateScore Score(const Sketch& candidate,
                       const std::optional<MIEstimatorKind>& estimator,
                       const MIOptions& options, size_t min_join_size,
                       PairedSample* scratch) const;

 private:
  using Span = std::pair<uint32_t, uint32_t>;

  PreparedTrainSketch(Sketch train, std::vector<uint64_t> run_keys,
                      std::vector<Span> run_spans)
      : train_(std::move(train)),
        run_keys_(std::move(run_keys)),
        run_spans_(std::move(run_spans)) {}

  /// Calls on_match(span, candidate_value) for every candidate entry whose
  /// key has a train run, in ascending key (== train-entry) order.
  template <typename OnMatch>
  void Merge(const Sketch& candidate, OnMatch&& on_match) const;

  /// Replaces `sample` with the join's `join_size` pairs, in train-entry
  /// order.
  void FillSample(const Sketch& candidate, size_t join_size,
                  PairedSample* sample) const;

  Sketch train_;
  /// run_keys_[i] is the i-th distinct key (ascending) and run_spans_[i]
  /// its [begin, end) slice of train_.entries. Separate arrays so the
  /// merge scans dense u64 keys.
  std::vector<uint64_t> run_keys_;
  std::vector<Span> run_spans_;
};

/// \brief Joins sketches and runs the given estimator on the recovered
/// sample. `min_join_size` guards against meaningless estimates from tiny
/// overlaps (the paper discards joins below 100 samples in Section V-C).
Result<SketchMIResult> EstimateSketchMI(const Sketch& train,
                                        const Sketch& candidate,
                                        MIEstimatorKind estimator,
                                        const MIOptions& options = {},
                                        size_t min_join_size = 1);

/// \brief As above but auto-selects the estimator from the sample types
/// (paper policy: string/string -> MLE, numeric/numeric -> MixedKSG,
/// otherwise DC-KSG).
Result<SketchMIResult> EstimateSketchMIAuto(const Sketch& train,
                                            const Sketch& candidate,
                                            const MIOptions& options = {},
                                            size_t min_join_size = 1);

/// \brief Prepared-train variants for the many-candidates setting; results
/// match the Sketch overloads exactly.
Result<SketchMIResult> EstimateSketchMI(const PreparedTrainSketch& train,
                                        const Sketch& candidate,
                                        MIEstimatorKind estimator,
                                        const MIOptions& options = {},
                                        size_t min_join_size = 1);

Result<SketchMIResult> EstimateSketchMIAuto(const PreparedTrainSketch& train,
                                            const Sketch& candidate,
                                            const MIOptions& options = {},
                                            size_t min_join_size = 1);

}  // namespace joinmi

#endif  // JOINMI_SKETCH_SKETCH_JOIN_H_
