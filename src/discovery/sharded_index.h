// Sharded sketch index: the repository-scale deployment of discovery
// search. A partitioner splits one SketchIndex across N shard index files
// and records the split in a versioned ShardManifest; a query is sketched
// once, fanned out to every shard, and the per-shard top-k lists are merged
// into a global top-k.
//
// Determinism contract: every candidate carries its *global* insertion
// index from the original unsharded enumeration (stored in the manifest),
// and both the per-shard selection and the cross-shard merge order hits by
// (MI desc, global index asc) — exactly the comparator the unsharded
// index-backed TopKJoinMISearch uses. Per-shard top-k under a total order
// loses nothing the global top-k could keep, so a K-shard search returns
// bit-identical rankings to the unsharded path for every K and either
// partitioning policy, duplicated candidates included.
//
// Serving boundary: queries reach shards through the ShardClient interface.
// LocalShardClient is the in-process implementation over a loaded
// SketchIndex; ReplicaShardClient (replica_router.h) implements the same
// methods against one or more remote shard server processes without
// touching the fan-out or merge. Which one a router uses is decided by the
// ShardClientFactory handed to Load — local shard files and host:port
// endpoints are interchangeable deployments of the same manifest.
//
// Availability: Search runs in one of two modes. Strict (the default, and
// the only behavior before networked serving existed) fails the whole
// query on the first shard error, deterministically in shard order.
// Degraded answers from the shards that responded, reporting every failed
// shard in ShardSearchResult::shard_failures — the router keeps serving
// through single-shard outages and the caller can see exactly what the
// answer is missing. A degraded query with zero healthy shards still
// fails: an answer from nothing would be indistinguishable from an empty
// repository.

#ifndef JOINMI_DISCOVERY_SHARDED_INDEX_H_
#define JOINMI_DISCOVERY_SHARDED_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/join_mi.h"
#include "src/discovery/searchable.h"
#include "src/discovery/shard_manifest.h"
#include "src/discovery/sketch_index.h"

namespace joinmi {

// ShardFailure and ShardQueryMode moved to searchable.h (the whole search
// surface shares them); this header re-exports both transitively.

/// \brief One per-shard search answer, annotated with the candidate's
/// global insertion index — the tie-break key of the cross-shard merge.
struct ShardSearchHit {
  uint64_t global_index = 0;
  ColumnPairRef ref;
  JoinMIEstimate estimate;
};

/// \brief True iff `a` ranks before `b` in the canonical discovery order
/// (MI desc, global index asc) — the order every cross-shard and overlay
/// merge sorts by, which is what keeps them bit-identical to unsharded.
bool BetterHit(const ShardSearchHit& a, const ShardSearchHit& b);

/// \brief Outcome of one shard-level (or merged) top-k search. Hits are
/// sorted by (MI desc, global index asc) and truncated to k.
struct ShardSearchResult {
  std::vector<ShardSearchHit> hits;
  size_t num_candidates = 0;
  size_t num_evaluated = 0;
  size_t num_skipped = 0;
  size_t num_errors = 0;
  /// Shards that did not answer, in shard order. Always empty in strict
  /// mode (a failure fails the query instead) and for single-shard
  /// results; when non-empty, `hits` and the counters cover only the
  /// shards that answered.
  std::vector<ShardFailure> shard_failures;
};

/// \brief One shard's answer from its tallied candidates: the outcome
/// counts plus the top-k present estimates under (MI desc, global index
/// asc), with provenance from `ref_at(i)` for local position i.
ShardSearchResult SelectShardHits(
    const IndexEvaluation& evaluation, size_t k,
    const std::vector<uint64_t>& global_indices,
    const std::function<ColumnPairRef(size_t)>& ref_at);

/// \brief Merges answers to one query into one top-k: sums the outcome
/// counters, concatenates the hits, sorts them by BetterHit and keeps the
/// first k. Each part must hold its own top-k under that order, so
/// nothing the merged top-k could keep is missing. Used across shards and
/// across a delta overlay's base and delta; shard_failures stay empty.
ShardSearchResult MergeShardResults(std::vector<ShardSearchResult> parts,
                                    size_t k);

/// \brief One (k, min_join_size) variant of a batched search — many
/// variants share one sketched query, which over RPC shares one uploaded
/// sketch.
struct ShardSearchVariant {
  size_t k = 0;
  /// Evaluated with this min_join_size substituted into the shard config,
  /// exactly as a single Search under a query configured the same way.
  size_t min_join_size = 0;
};

/// \brief Serving boundary of one shard — the RPC seam. The query arrives
/// pre-sketched (over the wire this is the serialized train sketch), so
/// shards never see the base table's rows.
class ShardClient {
 public:
  virtual ~ShardClient() = default;

  /// \brief The shard's JoinMIConfig; all shards of one index must agree.
  virtual const JoinMIConfig& config() const = 0;

  /// \brief Candidates this shard holds.
  virtual size_t num_candidates() const = 0;

  /// \brief True when Search waits on another process instead of
  /// computing here; the sharded fan-out then runs it on a thread of the
  /// call's own rather than on a shared executor worker.
  virtual bool waits_on_network() const { return false; }

  /// \brief This shard's top-k for the query, ordered by
  /// (MI desc, global index asc). `num_threads` 0 = hardware concurrency.
  virtual Result<ShardSearchResult> Search(const JoinMIQuery& query,
                                           size_t k,
                                           size_t num_threads) const = 0;

  /// \brief Evaluates every variant against one query; result[i] answers
  /// variants[i] and equals what Search would return for a query rebuilt
  /// with that variant's min_join_size. All-or-nothing: the first variant
  /// failure fails the batch. The default implementation loops over
  /// Search; ReplicaShardClient overrides it with one batched frame against
  /// the connection-cached sketch.
  virtual Result<std::vector<ShardSearchResult>> SearchVariants(
      const JoinMIQuery& query,
      const std::vector<ShardSearchVariant>& variants,
      size_t num_threads) const;
};

/// \brief In-process ShardClient over a loaded SketchIndex.
class LocalShardClient : public ShardClient {
 public:
  /// \brief Wraps `index`; `global_indices[i]` is local candidate i's index
  /// in the original unsharded enumeration. Rejects a mapping whose size
  /// disagrees with the index or that is not strictly increasing.
  static Result<std::unique_ptr<LocalShardClient>> Create(
      SketchIndex index, std::vector<uint64_t> global_indices);

  const JoinMIConfig& config() const override { return index_.config(); }
  size_t num_candidates() const override { return index_.size(); }
  Result<ShardSearchResult> Search(const JoinMIQuery& query, size_t k,
                                   size_t num_threads) const override;

 private:
  LocalShardClient(SketchIndex index, std::vector<uint64_t> global_indices)
      : index_(std::move(index)),
        global_indices_(std::move(global_indices)) {}

  SketchIndex index_;
  std::vector<uint64_t> global_indices_;
};

/// \brief Builds the ShardClient serving shard `shard` of `manifest`.
/// `manifest_dir` is the directory holding the manifest file (where
/// relative shard paths resolve), empty when the manifest never touched
/// disk. The factory seam is what makes local files and remote endpoints
/// interchangeable deployments: Load neither knows nor cares which one it
/// is wiring up.
using ShardClientFactory =
    std::function<Result<std::unique_ptr<ShardClient>>(
        const ShardManifest& manifest, size_t shard,
        const std::string& manifest_dir)>;

/// \brief A partitioned index: the manifest plus one client per shard.
class ShardedSketchIndex : public Searchable {
 public:
  /// \brief Assembles a sharded index from an already-validated manifest
  /// and matching clients (the seam for remote shards). Rejects
  /// zero-shard manifests, client counts or per-shard candidate counts
  /// that disagree with the manifest, and shards whose configs differ.
  static Result<ShardedSketchIndex> Create(
      ShardManifest manifest,
      std::vector<std::unique_ptr<ShardClient>> clients);

  /// \brief Loads a manifest and builds one client per shard through
  /// `factory`. LocalFileFactory() reads shard files next to the
  /// manifest; ReplicaShardClient::Factory (replica_router.h) dials
  /// host:port endpoints instead.
  static Result<ShardedSketchIndex> Load(const std::string& manifest_path,
                                         const ShardClientFactory& factory);

  /// \brief Loads a manifest and every shard file it names (paths resolved
  /// relative to the manifest's directory) — Load with LocalFileFactory().
  static Result<ShardedSketchIndex> Load(const std::string& manifest_path);

  /// \brief Knobs for loading paged shards; ignored for whole-file ones.
  struct LocalShardLoadOptions {
    /// Buffer-pool budget per paged shard, in pages.
    size_t pool_pages = 64;
  };

  /// \brief The factory behind single-argument Load: opens each shard
  /// file named by the manifest, dispatching on the entry's recorded
  /// format. A whole-file "JMIX" shard is read whole, its bytes checked
  /// against the manifest checksum and its candidate count against the
  /// manifest entry *before* use, so a truncated, bit-flipped, or swapped
  /// shard file fails with a clear InvalidArgument instead of surfacing
  /// as blob-level corruption or — worse — wrong rankings. A paged "JMPS"
  /// shard opens by header + directory only — the whole-file checksum is
  /// deliberately NOT computed (that would read the entire file and
  /// defeat lazy loading); its internal header/directory checksums are
  /// verified at open and each page's checksum on fault-in, which covers
  /// every byte the queries will actually touch.
  static ShardClientFactory LocalFileFactory();
  static ShardClientFactory LocalFileFactory(
      const LocalShardLoadOptions& options);

  const ShardManifest& manifest() const { return manifest_; }
  /// \brief The shards' agreed JoinMIConfig. Create guarantees at least
  /// one client exists and that all clients agree.
  const JoinMIConfig& config() const { return clients_[0]->config(); }
  size_t num_shards() const { return clients_.size(); }
  /// \brief The client serving shard `shard` — instrumentation seam: the
  /// Router's stats snapshot downcasts to read pool/replica counters.
  const ShardClient& client(size_t shard) const { return *clients_[shard]; }
  /// \brief Total candidates across all shards.
  size_t size() const { return static_cast<size_t>(manifest_.total_candidates); }

  /// \brief SearchVariants with the single variant {k, the query's own
  /// min_join_size}: every shard answers through ParallelFor and the
  /// per-shard top-k lists merge by (MI desc, global index asc).
  /// Identical results for any thread count. See ShardQueryMode for how
  /// shard failures are handled.
  Result<ShardSearchResult> Search(
      const JoinMIQuery& query, size_t k, size_t num_threads = 0,
      ShardQueryMode mode = ShardQueryMode::kStrict) const;

  /// \brief Batched fan-out: every variant against every shard, one
  /// ParallelFor item per shard (`num_threads` 0 = hardware concurrency,
  /// 1 = inline), merged per variant by MergeShardResults. Shards that
  /// wait on the network run on threads of the call's own instead, so
  /// they hold no worker of the shared executor. result[i] is
  /// bit-identical to Search over a query rebuilt with variants[i]'s
  /// min_join_size — over RPC the sketch crosses the wire once per
  /// connection instead of once per (variant, shard). A shard fails or
  /// answers the whole batch, so under ShardQueryMode a failed shard
  /// fails (strict) or drops out of (degraded) every variant.
  Result<std::vector<ShardSearchResult>> SearchVariants(
      const JoinMIQuery& query,
      const std::vector<ShardSearchVariant>& variants, size_t num_threads = 0,
      ShardQueryMode mode = ShardQueryMode::kStrict) const;

  // Searchable: Search() plus the ShardSearchResult -> TopKSearchResult
  // projection (drops per-hit global indices, which are merge-internal).
  const JoinMIConfig& search_config() const override { return config(); }
  Result<TopKSearchResult> SearchQuery(const JoinMIQuery& query, size_t k,
                                       size_t num_threads,
                                       ShardQueryMode mode) const override;

 private:
  ShardedSketchIndex(ShardManifest manifest,
                     std::vector<std::unique_ptr<ShardClient>> clients)
      : manifest_(std::move(manifest)), clients_(std::move(clients)) {}

  ShardManifest manifest_;
  std::vector<std::unique_ptr<ShardClient>> clients_;
};

/// \brief Deterministic shard assignment for candidate `ref` at enumeration
/// index `index` — exposed so tests and tools agree with the partitioner.
size_t AssignShard(ShardPartitionPolicy policy, size_t index,
                   const ColumnPairRef& ref, size_t num_shards);

/// \brief How BuildShards lays shard files out on disk.
struct ShardBuildOptions {
  /// kWholeFile writes "JMIX" index files (shard_NNNNN.jmix); kPaged
  /// writes "JMPS" paged files (shard_NNNNN.jmps) servable without full
  /// materialization.
  ShardFileFormat format = ShardFileFormat::kWholeFile;
  /// Page size for paged shards; ignored for whole-file ones.
  uint32_t page_size = 4096;
};

/// \brief Partitions `index` into `num_shards` shard files inside
/// `output_dir` (created if missing), writes `manifest.jmim` next to
/// them, and returns the manifest path. The split is a pure function of
/// (index contents, policy, num_shards, options); rebuilding produces
/// byte-identical shard files and manifest.
Result<std::string> BuildShards(const SketchIndex& index, size_t num_shards,
                                ShardPartitionPolicy policy,
                                const std::string& output_dir,
                                const ShardBuildOptions& options);

/// \brief BuildShards with default options (whole-file shards).
Result<std::string> BuildShards(const SketchIndex& index, size_t num_shards,
                                ShardPartitionPolicy policy,
                                const std::string& output_dir);

}  // namespace joinmi

#endif  // JOINMI_DISCOVERY_SHARDED_INDEX_H_
