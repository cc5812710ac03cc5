// Replica-aware serving tests over real loopback sockets: every shard is
// served by N interchangeable ShardServer replicas, the router reaches
// them through ReplicaShardClient, and the acceptance gate is that
// killing any single replica leaves strict-mode rankings bit-identical to
// the unsharded in-process path — plus the v2 endpoints-file format,
// round-robin spreading, cooldown re-probe, and the ReplicaSet selection
// bookkeeping in isolation.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/search.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/table/table.h"

namespace joinmi {
namespace {

std::shared_ptr<Table> MakeTwoColumnTable(const std::string& key_name,
                                          std::vector<std::string> keys,
                                          const std::string& value_name,
                                          std::vector<int64_t> values) {
  return *Table::FromColumns(
      {{key_name, Column::MakeString(std::move(keys))},
       {value_name, Column::MakeInt64(std::move(values))}});
}

struct Universe {
  std::shared_ptr<Table> base;
  TableRepository repository;
};

// Graded relevance plus exact twins, as in rpc_shard_test, so tie-breaks
// must survive replication too.
Universe MakeUniverse() {
  Universe universe;
  Rng rng(50515);
  const size_t num_keys = 160;
  std::vector<std::string> keys;
  std::vector<int64_t> targets;
  for (size_t i = 0; i < num_keys; ++i) {
    keys.push_back("key" + std::to_string(i));
    targets.push_back(static_cast<int64_t>(i % 7));
  }
  universe.base = MakeTwoColumnTable("K", keys, "Y", targets);

  std::vector<int64_t> values;
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(i % 7));
  }
  auto exact = MakeTwoColumnTable("K", keys, "V", values);
  universe.repository.AddTable("exact", exact).Abort();
  universe.repository.AddTable("exact_twin", exact).Abort();
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>((i % 7) / 3));
  }
  universe.repository
      .AddTable("coarse", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  values.clear();
  for (size_t i = 0; i < num_keys; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(7)));
  }
  universe.repository
      .AddTable("noise", MakeTwoColumnTable("K", keys, "V", values))
      .Abort();
  return universe;
}

JoinMIConfig MakeIndexConfig() {
  JoinMIConfig config;
  config.sketch_capacity = 128;
  config.min_join_size = 16;
  return config;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/joinmi_replica_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good());
  out << contents;
}

ServingOptions FastReplicaOptions(int cooldown_ms = 100) {
  ServingOptions options;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 10000;
  options.cooldown_ms = cooldown_ms;
  return options;
}

/// A replicated deployment: shard files + manifest on disk, and for every
/// shard a row of ShardServer replicas on ephemeral loopback ports.
struct ReplicatedDeployment {
  std::string dir;
  std::string manifest_path;
  // servers[shard][replica]; a stopped server stays in place (nullptr-safe
  // Stop) so endpoints keep their indices.
  std::vector<std::vector<std::unique_ptr<ShardServer>>> servers;
  std::vector<std::vector<ShardEndpoint>> endpoints;

  ~ReplicatedDeployment() {
    for (auto& row : servers) {
      for (auto& server : row) {
        if (server != nullptr) server->Stop();
      }
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }

  void Kill(size_t shard, size_t replica) {
    servers[shard][replica]->Stop();
    servers[shard][replica].reset();
  }

  void Revive(size_t shard, size_t replica) {
    ShardServerOptions options;
    options.num_workers = 2;
    options.port = endpoints[shard][replica].port;
    auto server = ShardServer::Create(manifest_path, shard, options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Start().ok());
    servers[shard][replica] = std::move(*server);
  }
};

void StartReplicatedDeployment(const SketchIndex& index, size_t num_shards,
                               size_t replicas_per_shard,
                               const std::string& name,
                               ReplicatedDeployment* deployment) {
  deployment->dir = ScratchDir(name);
  auto manifest_path = BuildShards(index, num_shards,
                                   ShardPartitionPolicy::kRoundRobin,
                                   deployment->dir);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  deployment->manifest_path = *manifest_path;
  deployment->servers.resize(num_shards);
  deployment->endpoints.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t r = 0; r < replicas_per_shard; ++r) {
      ShardServerOptions options;
      options.num_workers = 2;
      auto server =
          ShardServer::Create(deployment->manifest_path, s, options);
      ASSERT_TRUE(server.ok()) << server.status();
      ASSERT_TRUE((*server)->Start().ok());
      deployment->endpoints[s].push_back(
          ShardEndpoint{"127.0.0.1", (*server)->port()});
      deployment->servers[s].push_back(std::move(*server));
    }
  }
}

void ExpectBitIdentical(const TopKSearchResult& expected,
                        const TopKSearchResult& actual) {
  EXPECT_EQ(expected.num_candidates, actual.num_candidates);
  EXPECT_EQ(expected.num_evaluated, actual.num_evaluated);
  EXPECT_EQ(expected.num_skipped, actual.num_skipped);
  EXPECT_EQ(expected.num_errors, actual.num_errors);
  ASSERT_EQ(expected.hits.size(), actual.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(expected.hits[i].candidate.table_name,
              actual.hits[i].candidate.table_name) << i;
    EXPECT_EQ(expected.hits[i].candidate.value_column,
              actual.hits[i].candidate.value_column) << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
  }
}

// ------------------------------------------------------- Endpoints file v2

TEST(ReplicaEndpointsFileTest, ReadsV2WithCommentsBlanksAndBothSeparators) {
  const std::string dir = ScratchDir("v2_parse");
  const std::string path = dir + "/endpoints.txt";
  WriteFileOrDie(path,
                 "# replicated serving map\n"
                 "\n"
                 "10.0.0.1:7001, 10.0.0.2:7001   # shard 0: two replicas\n"
                 "10.0.0.1:7002 10.0.0.2:7002 10.0.0.3:7002\n"
                 "   \t \n"
                 "10.0.0.1:7003\n");
  auto shards = ReadShardEndpoints(path);
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_EQ(shards->size(), 3u);
  ASSERT_EQ((*shards)[0].size(), 2u);
  ASSERT_EQ((*shards)[1].size(), 3u);
  ASSERT_EQ((*shards)[2].size(), 1u);
  EXPECT_EQ((*shards)[0][1].host, "10.0.0.2");
  EXPECT_EQ((*shards)[0][1].port, 7001);
  EXPECT_EQ((*shards)[1][2].host, "10.0.0.3");
  std::filesystem::remove_all(dir);
}

TEST(ReplicaEndpointsFileTest, V1SingleEndpointFilesStayReadable) {
  const std::string dir = ScratchDir("v1_compat");
  const std::string path = dir + "/endpoints.txt";
  WriteFileOrDie(path, "127.0.0.1:7001\n127.0.0.1:7002\n");
  auto shards = ReadShardEndpoints(path);
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_EQ(shards->size(), 2u);
  EXPECT_EQ((*shards)[0].size(), 1u);
  EXPECT_EQ((*shards)[1].size(), 1u);
  EXPECT_EQ((*shards)[1][0].port, 7002);
  std::filesystem::remove_all(dir);
}

TEST(ReplicaEndpointsFileTest, MalformedReplicaReportsLineNumber) {
  const std::string dir = ScratchDir("v2_badline");
  const std::string path = dir + "/endpoints.txt";
  WriteFileOrDie(path,
                 "# header\n"
                 "127.0.0.1:7001\n"
                 "127.0.0.1:7002, 127.0.0.1:not_a_port\n");
  auto shards = ReadShardEndpoints(path);
  ASSERT_FALSE(shards.ok());
  EXPECT_TRUE(shards.status().IsInvalidArgument());
  EXPECT_NE(shards.status().message().find(path + ":3:"), std::string::npos)
      << shards.status();
  std::filesystem::remove_all(dir);
}

TEST(ReplicaEndpointsFileTest, EmptyFileIsRejected) {
  const std::string dir = ScratchDir("v2_empty");
  const std::string path = dir + "/endpoints.txt";
  WriteFileOrDie(path, "# only comments\n\n");
  auto shards = ReadShardEndpoints(path);
  ASSERT_FALSE(shards.ok());
  EXPECT_TRUE(shards.status().IsInvalidArgument());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- ReplicaSet bookkeeping

TEST(ReplicaSetTest, RoundRobinRotatesAcrossHealthyReplicas) {
  ReplicaSet set(3, /*cooldown_ms=*/60000);
  auto first = set.PlanAttempts();
  auto second = set.PlanAttempts();
  auto third = set.PlanAttempts();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0], 0u);
  EXPECT_EQ(second[0], 1u);
  EXPECT_EQ(third[0], 2u);
  // Every plan covers all replicas exactly once.
  for (const auto& plan : {first, second, third}) {
    std::vector<bool> seen(3, false);
    for (size_t i : plan) seen[i] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
  }
}

TEST(ReplicaSetTest, DownReplicasSortLastAndStayOutUntilMarkedHealthy) {
  ReplicaSet set(3, /*cooldown_ms=*/60000);
  set.MarkDown(0);
  EXPECT_TRUE(set.IsDown(0));
  for (int i = 0; i < 4; ++i) {
    auto plan = set.PlanAttempts();
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan.back(), 0u);  // last resort, never first choice
    EXPECT_NE(plan[0], 0u);
  }
  // A long cooldown means no reprobe is due yet.
  EXPECT_TRUE(set.DueForReprobe().empty());
  set.MarkHealthy(0);
  EXPECT_FALSE(set.IsDown(0));
}

TEST(ReplicaSetTest, ReprobeFiresOncePerCooldownPeriod) {
  ReplicaSet set(2, /*cooldown_ms=*/40);
  set.MarkDown(1);
  EXPECT_TRUE(set.DueForReprobe().empty());  // cooldown still running
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto due = set.DueForReprobe();
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 1u);
  // Re-armed: immediately asking again yields nothing.
  EXPECT_TRUE(set.DueForReprobe().empty());
  EXPECT_TRUE(set.IsDown(1));  // a probe being due does not heal it
}

TEST(ReplicaSetTest, SetOfOneIsNeverReprobedButStillAttempted) {
  // A single-endpoint shard has no routing choice to make: its replica is
  // attempted whether marked down or not, so a probe would only add a
  // round trip before that attempt.
  ReplicaSet set(1, /*cooldown_ms=*/0);
  set.MarkDown(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(set.DueForReprobe().empty());
  EXPECT_EQ(set.PlanAttempts(), std::vector<size_t>{0});
  EXPECT_TRUE(set.IsDown(0));
  EXPECT_EQ(set.total_mark_downs(), 1u);
}

TEST(ReplicaSetTest, AllDownStillPlansEveryReplica) {
  ReplicaSet set(2, /*cooldown_ms=*/60000);
  set.MarkDown(0);
  set.MarkDown(1);
  auto plan = set.PlanAttempts();
  ASSERT_EQ(plan.size(), 2u);  // last-resort attempts, not an empty plan
}

// ------------------------------------------- Failover correctness (wire)

TEST(ReplicaRouterTest, KillingAnySingleReplicaKeepsStrictBitIdentical) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);
  const size_t num_shards = 2;
  const size_t replicas_per_shard = 2;

  for (size_t dead_shard = 0; dead_shard < num_shards; ++dead_shard) {
    for (size_t dead_replica = 0; dead_replica < replicas_per_shard;
         ++dead_replica) {
      ReplicatedDeployment deployment;
      StartReplicatedDeployment(index, num_shards, replicas_per_shard,
                                "kill_" + std::to_string(dead_shard) + "_" +
                                    std::to_string(dead_replica),
                                &deployment);
      auto router = ShardedSketchIndex::Load(
          deployment.manifest_path,
          ReplicaShardClient::Factory(deployment.endpoints,
                                      FastReplicaOptions()));
      ASSERT_TRUE(router.ok()) << router.status();

      for (size_t k : {1u, 3u, 7u}) {
        // Reference: the unsharded in-process index-backed search.
        auto expected =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, index, k, 1);
        ASSERT_TRUE(expected.ok()) << expected.status();

        auto healthy = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                        *router, k, 1);
        ASSERT_TRUE(healthy.ok()) << healthy.status();
        ExpectBitIdentical(*expected, *healthy);

        deployment.Kill(dead_shard, dead_replica);
        // Strict mode (the default) must keep answering identically with
        // zero failures: the surviving replica covers its shard fully.
        auto failover = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                         *router, k, 1);
        ASSERT_TRUE(failover.ok())
            << "strict query after killing shard " << dead_shard
            << " replica " << dead_replica << ": " << failover.status();
        EXPECT_TRUE(failover->shard_failures.empty());
        ExpectBitIdentical(*expected, *failover);
        deployment.Revive(dead_shard, dead_replica);
      }
    }
  }
}

TEST(ReplicaRouterTest, AllReplicasOfAShardDownFailsStrictAndDegrades) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ReplicatedDeployment deployment;
  StartReplicatedDeployment(index, 2, 2, "alldown", &deployment);
  auto router = ShardedSketchIndex::Load(
      deployment.manifest_path,
      ReplicaShardClient::Factory(deployment.endpoints,
                                  FastReplicaOptions()));
  ASSERT_TRUE(router.ok()) << router.status();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());

  deployment.Kill(0, 0);
  deployment.Kill(0, 1);
  auto strict = router->Search(*query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsIOError()) << strict.status();
  EXPECT_NE(strict.status().message().find("replicas failed"),
            std::string::npos)
      << strict.status();

  // Degraded still answers from shard 1, reporting shard 0's total outage.
  auto degraded = router->Search(*query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->shard_failures.size(), 1u);
  EXPECT_EQ(degraded->shard_failures[0].shard, 0u);

  // One replica coming back heals strict mode.
  deployment.Revive(0, 1);
  auto healed = router->Search(*query, 3, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(healed.ok()) << healed.status();
}

TEST(ReplicaRouterTest, RoundRobinSpreadsTrafficAcrossBothReplicas) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ReplicatedDeployment deployment;
  StartReplicatedDeployment(index, 1, 2, "spread", &deployment);
  auto router = ShardedSketchIndex::Load(
      deployment.manifest_path,
      ReplicaShardClient::Factory(deployment.endpoints,
                                  FastReplicaOptions()));
  ASSERT_TRUE(router.ok()) << router.status();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  for (int q = 0; q < 6; ++q) {
    auto result = router->Search(*query, 3, 1);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  // Each replica answered its handshake plus its share of the 6 searches;
  // round-robin guarantees both took real search traffic.
  for (size_t r = 0; r < 2; ++r) {
    const uint64_t handshakes =
        deployment.servers[0][r]->handshakes_served();
    const uint64_t requests = deployment.servers[0][r]->requests_served();
    EXPECT_GE(handshakes, 1u) << "replica " << r;
    EXPECT_GE(requests - handshakes, 2u)
        << "replica " << r << " took no search traffic";
  }
}

TEST(ReplicaRouterTest, CooldownReprobeReturnsARevivedReplicaToRotation) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ReplicatedDeployment deployment;
  StartReplicatedDeployment(index, 1, 2, "reprobe", &deployment);

  // Keep a typed handle on the shard client to watch its replica state.
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->config.has_value());
  auto typed = ReplicaShardClient::Create(
      deployment.endpoints[0], *manifest->config,
      manifest->shards[0].candidate_count,
      FastReplicaOptions(/*cooldown_ms=*/100));
  ASSERT_TRUE(typed.ok()) << typed.status();
  ReplicaShardClient* client = typed->get();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());

  deployment.Kill(0, 0);
  // First query fails over to replica 1 and marks replica 0 down.
  auto result = client->Search(*query, 3, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(client->replica_down(0));
  EXPECT_FALSE(client->replica_down(1));

  // While the cooldown runs, queries stick to replica 1 without paying
  // for the dead replica.
  const uint64_t live_before =
      deployment.servers[0][1]->requests_served();
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(client->Search(*query, 3, 1).ok());
  }
  EXPECT_TRUE(client->replica_down(0));
  EXPECT_EQ(deployment.servers[0][1]->requests_served(), live_before + 3);

  // Revive replica 0, outwait the cooldown: the next query's Health()
  // reprobe must return it to rotation.
  deployment.Revive(0, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(client->Search(*query, 3, 1).ok());
  EXPECT_FALSE(client->replica_down(0));
  // The revived server saw the probe on the dedicated counters — probes
  // and handshakes no longer masquerade as served requests.
  EXPECT_GE(deployment.servers[0][0]->handshakes_served(), 1u);
  EXPECT_GE(deployment.servers[0][0]->health_served(), 1u);
  // And with both replicas healthy again, traffic spreads once more.
  const uint64_t revived_before =
      deployment.servers[0][0]->requests_served();
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(client->Search(*query, 3, 1).ok());
  }
  EXPECT_GT(deployment.servers[0][0]->requests_served(), revived_before);
}

TEST(ReplicaRouterTest, ReachableButMisdeployedReplicaFailsCreateLoudly) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ReplicatedDeployment deployment;
  StartReplicatedDeployment(index, 1, 2, "misdeploy", &deployment);
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok());
  JoinMIConfig tampered = *manifest->config;
  tampered.hash_seed = 9;
  auto client = ReplicaShardClient::Create(
      deployment.endpoints[0], tampered,
      manifest->shards[0].candidate_count, FastReplicaOptions());
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsInvalidArgument()) << client.status();
  EXPECT_NE(client.status().message().find("JoinMIConfig"),
            std::string::npos);
}

TEST(ReplicaRouterTest, FactoryRejectsShardCountMismatchAndEmptyReplicas) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ReplicatedDeployment deployment;
  StartReplicatedDeployment(index, 2, 1, "facterr", &deployment);

  // One endpoint row for a two-shard manifest.
  auto short_map = deployment.endpoints;
  short_map.pop_back();
  auto mismatched = ShardedSketchIndex::Load(
      deployment.manifest_path,
      ReplicaShardClient::Factory(short_map, FastReplicaOptions()));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_TRUE(mismatched.status().IsInvalidArgument());

  // A shard with an empty replica list.
  auto empty_row = deployment.endpoints;
  empty_row[1].clear();
  auto empty = ShardedSketchIndex::Load(
      deployment.manifest_path,
      ReplicaShardClient::Factory(empty_row, FastReplicaOptions()));
  ASSERT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsInvalidArgument());
}

}  // namespace
}  // namespace joinmi
