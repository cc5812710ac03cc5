// End-to-end tests for networked shard serving, over real loopback
// sockets: ShardServer processes-in-miniature (in-process instances, real
// TCP) serve shard files, RpcShardClient dials them, and the acceptance
// gate is bit-identical rankings against LocalShardClient for K in
// {1, 2, 7}, both partition policies, and any thread count. Availability:
// killing one shard fails a strict-mode query with a clear status, while
// a degraded-mode query returns the surviving shards' correctly merged
// top-k with the outage recorded in shard_failures.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/discovery/replica_router.h"
#include "src/discovery/rpc_messages.h"
#include "src/discovery/rpc_shard_client.h"
#include "src/discovery/search.h"
#include "src/discovery/shard_server.h"
#include "src/discovery/sharded_index.h"
#include "src/discovery/sketch_index.h"
#include "src/discovery/topk_merge.h"
#include "src/sketch/serialize.h"
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

// Same construction as sharded_index_test: graded relevance plus exact
// twins, so the cross-shard (and now cross-socket) tie-breaks matter.
Universe MakeUniverse() {
  Universe universe;
  Rng rng(40414);
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
  const std::string dir = testing::TempDir() + "/joinmi_rpc_" + name;
  std::filesystem::remove_all(dir);
  return dir;
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
    EXPECT_EQ(expected.hits[i].candidate.key_column,
              actual.hits[i].candidate.key_column) << i;
    EXPECT_EQ(expected.hits[i].candidate.value_column,
              actual.hits[i].candidate.value_column) << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
    EXPECT_EQ(expected.hits[i].estimate.estimator,
              actual.hits[i].estimate.estimator) << i;
  }
}

/// A shard deployment: shard files + manifest on disk, one ShardServer
/// per shard on an ephemeral loopback port, endpoints in shard order.
struct Deployment {
  std::string dir;
  std::string manifest_path;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<ShardEndpoint> endpoints;

  ~Deployment() {
    for (auto& server : servers) {
      if (server != nullptr) server->Stop();
    }
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

void StartDeployment(const SketchIndex& index, size_t num_shards,
                     ShardPartitionPolicy policy, const std::string& name,
                     Deployment* deployment, size_t num_workers = 2) {
  deployment->dir = ScratchDir(name);
  auto manifest_path =
      BuildShards(index, num_shards, policy, deployment->dir);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  deployment->manifest_path = *manifest_path;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardServerOptions options;
    options.num_workers = num_workers;
    auto server = ShardServer::Create(deployment->manifest_path, s, options);
    ASSERT_TRUE(server.ok()) << server.status();
    ASSERT_TRUE((*server)->Start().ok());
    deployment->endpoints.push_back(
        ShardEndpoint{"127.0.0.1", (*server)->port()});
    deployment->servers.push_back(std::move(*server));
  }
}

RpcClientOptions FastTimeouts() {
  RpcClientOptions options;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 10000;
  return options;
}

// ------------------------------------------------------- Endpoint file v1

std::string WriteEndpointsFixture(const std::string& name,
                                  const std::string& contents) {
  const std::string dir = ScratchDir("endpoints_" + name);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/endpoints.txt";
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(EndpointsFileTest, ToleratesBlankLinesAndComments) {
  const std::string path = WriteEndpointsFixture(
      "tolerant",
      "# serving map for the three shards\n"
      "\n"
      "127.0.0.1:7001\n"
      "   \t\n"
      "127.0.0.1:7002   # shard 1, note the inline comment\n"
      "\n"
      "127.0.0.1:7003\n"
      "# trailing comment\n");
  auto endpoints = ReadShardEndpoints(path);
  ASSERT_TRUE(endpoints.ok()) << endpoints.status();
  ASSERT_EQ(endpoints->size(), 3u);
  EXPECT_EQ((*endpoints)[0][0].port, 7001);
  EXPECT_EQ((*endpoints)[1][0].port, 7002);
  EXPECT_EQ((*endpoints)[2][0].port, 7003);
  std::filesystem::remove_all(
      std::filesystem::path(path).parent_path().string());
}

TEST(EndpointsFileTest, MalformedLineReportsItsLineNumber) {
  // Line 5 is the broken one: comment, blank, and valid lines before it
  // must all count toward the reported position.
  const std::string path = WriteEndpointsFixture(
      "badline",
      "# header\n"
      "\n"
      "127.0.0.1:7001\n"
      "127.0.0.1:7002\n"
      "127.0.0.1:badport\n");
  auto endpoints = ReadShardEndpoints(path);
  ASSERT_FALSE(endpoints.ok());
  EXPECT_TRUE(endpoints.status().IsInvalidArgument()) << endpoints.status();
  EXPECT_NE(endpoints.status().message().find(path + ":5:"),
            std::string::npos)
      << endpoints.status();
  std::filesystem::remove_all(
      std::filesystem::path(path).parent_path().string());
}

// ---------------------------------------------------- Rank agreement gate

TEST(RpcShardTest, RpcRankingsBitIdenticalToLocalForEveryKPolicyThreads) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  ASSERT_EQ(index.size(), 4u);

  for (ShardPartitionPolicy policy :
       {ShardPartitionPolicy::kRoundRobin,
        ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 2u, 7u}) {
      Deployment deployment;
      StartDeployment(index, num_shards, policy,
                      std::string("agree_") +
                          ShardPartitionPolicyToString(policy) + "_" +
                          std::to_string(num_shards),
                      &deployment);
      auto local = ShardedSketchIndex::Load(deployment.manifest_path);
      ASSERT_TRUE(local.ok()) << local.status();
      auto remote = ShardedSketchIndex::Load(
          deployment.manifest_path,
          RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
      ASSERT_TRUE(remote.ok()) << remote.status();
      EXPECT_EQ(remote->num_shards(), num_shards);
      EXPECT_TRUE(remote->config() == index.config());

      for (size_t k : {1u, 2u, 7u}) {
        auto via_local = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                          *local, k, 1);
        ASSERT_TRUE(via_local.ok()) << via_local.status();
        for (size_t num_threads : {1u, 4u, 0u}) {
          auto via_rpc = TopKJoinMISearch(*universe.base, {"K", "Y"},
                                          *remote, k, num_threads);
          ASSERT_TRUE(via_rpc.ok()) << via_rpc.status();
          ExpectBitIdentical(*via_local, *via_rpc);
          EXPECT_TRUE(via_rpc->shard_failures.empty());
        }
      }
    }
  }
}

TEST(RpcShardTest, ConnectionsAreReusedAcrossQueries) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "reuse",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  ShardSearchResult first;
  for (int q = 0; q < 5; ++q) {
    auto result = remote->Search(*query, 3, 1);
    ASSERT_TRUE(result.ok()) << result.status();
    if (q == 0) {
      first = std::move(*result);
    } else {
      ASSERT_EQ(result->hits.size(), first.hits.size());
      for (size_t i = 0; i < first.hits.size(); ++i) {
        EXPECT_EQ(result->hits[i].estimate.mi, first.hits[i].estimate.mi);
        EXPECT_EQ(result->hits[i].global_index, first.hits[i].global_index);
      }
    }
  }
  // 5 queries x 2 shards = 10 search frames, and exactly 2 handshakes (one
  // per client connection) prove the connections were not re-dialed per
  // query — each re-dial would add a handshake. The search counter counts
  // query traffic only; handshakes no longer inflate it.
  uint64_t total_requests = 0;
  uint64_t total_handshakes = 0;
  for (const auto& server : deployment.servers) {
    total_requests += server->requests_served();
    total_handshakes += server->handshakes_served();
  }
  EXPECT_EQ(total_requests, 5u * 2u);
  EXPECT_EQ(total_handshakes, 2u);
}

// --------------------------------------------- Concurrent multiplexing

// Builds a 1-shard RPC router whose single typed client is observable, so
// tests can read pool instrumentation after driving traffic through the
// normal ShardedSketchIndex surface.
void MakeSingleShardRouter(const Deployment& deployment,
                           RpcClientOptions options,
                           std::unique_ptr<ShardedSketchIndex>* router,
                           const RpcShardClient** client_out) {
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_TRUE(manifest->config.has_value());
  auto client = RpcShardClient::Create(deployment.endpoints[0],
                                       *manifest->config,
                                       manifest->shards[0].candidate_count,
                                       options);
  ASSERT_TRUE(client.ok()) << client.status();
  *client_out = client->get();
  std::vector<std::unique_ptr<ShardClient>> clients;
  clients.push_back(std::move(*client));
  auto assembled =
      ShardedSketchIndex::Create(std::move(*manifest), std::move(clients));
  ASSERT_TRUE(assembled.ok()) << assembled.status();
  *router = std::make_unique<ShardedSketchIndex>(std::move(*assembled));
}

TEST(RpcShardTest, ConcurrentRouterThreadsMultiplexOneShardViaThePool) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "mux",
                  &deployment, /*num_workers=*/8);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 4;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);

  // Serial reference: the local (in-process) path, once.
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok()) << local.status();
  const size_t k = 3;
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, k, 1);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // 8 router threads, each issuing several strict queries concurrently
  // against the same 1-shard index: the pool must multiplex them onto
  // parallel connections, and every single ranking must stay
  // bit-identical to the serial local answer.
  const size_t num_threads = 8;
  const size_t queries_per_thread = 4;
  std::vector<TopKSearchResult> results(num_threads * queries_per_thread);
  std::vector<Status> statuses(num_threads * queries_per_thread,
                               Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < queries_per_thread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, k, 1);
        const size_t slot = t * queries_per_thread + q;
        if (result.ok()) {
          results[slot] = std::move(*result);
        } else {
          statuses[slot] = result.status();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "query " << i << ": " << statuses[i];
    ExpectBitIdentical(*expected, results[i]);
    EXPECT_TRUE(results[i].shard_failures.empty());
  }
  // The acceptance gate: a second connection is dialed only while every
  // existing channel is busy, so two dials prove at least two requests
  // were in flight to the single shard at the same instant — the old
  // one-socket client could never exceed 1 here.
  EXPECT_GE(client->total_dials(), 2u)
      << "8 threads x 4 queries never overlapped on the shard connections";
  EXPECT_LE(client->live_channels(), options.pool_size);
  EXPECT_LE(client->total_dials(), options.pool_size);
}

TEST(RpcShardTest, PoolOfOneBlocksConcurrentQueriesInsteadOfOverdialing) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "pool1",
                  &deployment, /*num_workers=*/4);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);

  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, 3, 1);
  ASSERT_TRUE(expected.ok());

  const size_t num_threads = 4;
  const size_t queries_per_thread = 4;
  std::vector<Status> statuses(num_threads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < queries_per_thread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, 3, 1);
        if (!result.ok()) {
          statuses[t] = result.status();
          return;
        }
        ExpectBitIdentical(*expected, *result);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
  }
  // Shared rather than over-dialed: one live channel, exactly one
  // connection ever dialed (Create's eager handshake connection, reused
  // by all 16 queries)...
  EXPECT_EQ(client->live_channels(), 1u);
  EXPECT_EQ(client->total_dials(), 1u);
  // ...which the server confirms independently: one handshake ever, and
  // every search accounted for on that single connection (the handshake
  // itself no longer counts as a request).
  EXPECT_EQ(deployment.servers[0]->handshakes_served(), 1u);
  EXPECT_EQ(deployment.servers[0]->requests_served(),
            num_threads * queries_per_thread);
}

// ------------------------------------------------------- Failure handling

TEST(RpcShardTest, KilledShardFailsStrictAndDegradesGracefully) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const size_t num_shards = 3;
  Deployment deployment;
  StartDeployment(index, num_shards, ShardPartitionPolicy::kRoundRobin,
                  "degrade", &deployment);

  // Reference: the full (healthy) local answer, and the per-shard local
  // answers for computing the expected degraded merge.
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  const size_t k = 4;

  // Kill shard 1's server, then assemble the router — creation must
  // tolerate the outage (that is the degraded deployment's whole point).
  const size_t dead_shard = 1;
  deployment.servers[dead_shard]->Stop();
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok()) << remote.status();

  // Strict mode: the query fails, naming the dead shard.
  auto strict = remote->Search(*query, k, 1, ShardQueryMode::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsIOError()) << strict.status();
  EXPECT_NE(strict.status().message().find("shard 1"), std::string::npos)
      << strict.status();

  // Degraded mode: the surviving shards' merged top-k, outage recorded.
  auto degraded = remote->Search(*query, k, 1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->shard_failures.size(), 1u);
  EXPECT_EQ(degraded->shard_failures[0].shard, dead_shard);
  EXPECT_FALSE(degraded->shard_failures[0].status.ok());

  // Expected: merge the live shards' local per-shard answers with the
  // canonical comparator — computed independently of the router.
  std::vector<ShardSearchHit> expected;
  size_t expected_candidates = 0, expected_evaluated = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (s == dead_shard) continue;
    const ShardManifestEntry& entry = local->manifest().shards[s];
    auto shard_index = ReadIndexFile(
        deployment.dir + "/" + entry.path);
    ASSERT_TRUE(shard_index.ok());
    auto client = LocalShardClient::Create(std::move(*shard_index),
                                           entry.global_indices);
    ASSERT_TRUE(client.ok());
    auto result = (*client)->Search(*query, k, 1);
    ASSERT_TRUE(result.ok());
    expected_candidates += result->num_candidates;
    expected_evaluated += result->num_evaluated;
    for (const ShardSearchHit& hit : result->hits) {
      expected.push_back(hit);
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const ShardSearchHit& a, const ShardSearchHit& b) {
              return internal::BetterByMIThenKey(
                  a.estimate.mi, a.global_index, b.estimate.mi,
                  b.global_index);
            });
  if (expected.size() > k) expected.resize(k);

  EXPECT_EQ(degraded->num_candidates, expected_candidates);
  EXPECT_EQ(degraded->num_evaluated, expected_evaluated);
  ASSERT_EQ(degraded->hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(degraded->hits[i].global_index, expected[i].global_index) << i;
    EXPECT_EQ(degraded->hits[i].estimate.mi, expected[i].estimate.mi) << i;
    EXPECT_EQ(degraded->hits[i].ref.table_name, expected[i].ref.table_name)
        << i;
  }

  // The search-overload surface carries the failure report through.
  auto via_search = TopKJoinMISearch(*universe.base, {"K", "Y"}, *remote, k,
                                     1, ShardQueryMode::kDegraded);
  ASSERT_TRUE(via_search.ok()) << via_search.status();
  ASSERT_EQ(via_search->shard_failures.size(), 1u);
  EXPECT_EQ(via_search->shard_failures[0].shard, dead_shard);
  ASSERT_EQ(via_search->hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(via_search->hits[i].estimate.mi, expected[i].estimate.mi) << i;
  }

  // A restarted shard heals the router without reassembly: bring the dead
  // shard back on the SAME port and the strict query works again.
  ShardServerOptions revive_options;
  revive_options.num_workers = 2;
  revive_options.port = deployment.endpoints[dead_shard].port;
  auto revived = ShardServer::Create(deployment.manifest_path, dead_shard,
                                     revive_options);
  ASSERT_TRUE(revived.ok()) << revived.status();
  ASSERT_TRUE((*revived)->Start().ok());
  deployment.servers[dead_shard] = std::move(*revived);
  auto healed = remote->Search(*query, k, 1, ShardQueryMode::kStrict);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(healed->shard_failures.empty());
}

TEST(RpcShardTest, RestartedServerHealsCachedConnectionsTransparently) {
  // Regression: a client that already used its connection, whose server
  // then cleanly restarts, must answer the very next strict query — the
  // stale connection accepts the send (TCP half-close), so a v1 channel
  // must probe it before sending and a v2 channel must have noticed the
  // hangup through its reader; either way the retry dials a fresh one.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("max_protocol_version " + std::to_string(version));
    Deployment deployment;
    StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin,
                    "restart_v" + std::to_string(version), &deployment);
    RpcClientOptions options = FastTimeouts();
    options.max_protocol_version = version;
    auto remote = ShardedSketchIndex::Load(
        deployment.manifest_path,
        RpcShardClient::Factory(deployment.endpoints, options));
    ASSERT_TRUE(remote.ok()) << remote.status();
    auto query =
        JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
    ASSERT_TRUE(query.ok());

    auto before = remote->Search(*query, 3, 1);
    ASSERT_TRUE(before.ok()) << before.status();

    // Restart every server on its old port; the clients' cached
    // connections all go stale at once.
    for (size_t s = 0; s < deployment.servers.size(); ++s) {
      const uint16_t port = deployment.endpoints[s].port;
      deployment.servers[s]->Stop();
      ShardServerOptions server_options;
      server_options.num_workers = 2;
      server_options.port = port;
      auto revived =
          ShardServer::Create(deployment.manifest_path, s, server_options);
      ASSERT_TRUE(revived.ok()) << revived.status();
      ASSERT_TRUE((*revived)->Start().ok());
      deployment.servers[s] = std::move(*revived);
    }

    auto after = remote->Search(*query, 3, 1, ShardQueryMode::kStrict);
    ASSERT_TRUE(after.ok()) << "first strict query after a clean restart "
                               "must succeed, got: "
                            << after.status();
    ASSERT_EQ(after->hits.size(), before->hits.size());
    for (size_t i = 0; i < before->hits.size(); ++i) {
      EXPECT_EQ(after->hits[i].estimate.mi, before->hits[i].estimate.mi);
      EXPECT_EQ(after->hits[i].global_index, before->hits[i].global_index);
    }
  }
}

TEST(RpcShardTest, AllShardsDownFailsEvenDegraded) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "alldown",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok());
  for (auto& server : deployment.servers) server->Stop();
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  auto degraded = remote->Search(*query, 3, 1, ShardQueryMode::kDegraded);
  ASSERT_FALSE(degraded.ok());
  EXPECT_NE(degraded.status().message().find("every shard failed"),
            std::string::npos)
      << degraded.status();
}

TEST(RpcShardTest, HealthProbeReportsLivenessAndOutage) {
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "health",
                  &deployment);
  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(manifest->config.has_value());

  auto client = RpcShardClient::Create(
      deployment.endpoints[0], *manifest->config,
      manifest->shards[0].candidate_count, FastTimeouts());
  ASSERT_TRUE(client.ok()) << client.status();
  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->num_candidates, manifest->shards[0].candidate_count);
  // No search has run: the reported counter is 0 because handshakes and
  // health probes no longer inflate it — they land on their own counters.
  EXPECT_EQ(health->requests_served, 0u);
  EXPECT_GE(deployment.servers[0]->handshakes_served(), 1u);
  EXPECT_GE(deployment.servers[0]->health_served(), 1u);

  deployment.servers[0]->Stop();
  auto down = (*client)->Health();
  ASSERT_FALSE(down.ok());
}

// -------------------------------------------------- Config agreement gate

TEST(RpcShardTest, HandshakeRejectsConfigDisagreement) {
  // Serve shards built under seed 0, but hand the router a manifest whose
  // embedded config says seed 9 — the handshake's operator== check must
  // refuse at assembly, not at first wrong answer.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "confmis",
                  &deployment);

  auto manifest = ReadManifestFile(deployment.manifest_path);
  ASSERT_TRUE(manifest.ok());
  JoinMIConfig tampered = *manifest->config;
  tampered.hash_seed = 9;
  auto client = RpcShardClient::Create(
      deployment.endpoints[0], tampered,
      manifest->shards[0].candidate_count, FastTimeouts());
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(client.status().IsInvalidArgument()) << client.status();
  EXPECT_NE(client.status().message().find("JoinMIConfig"),
            std::string::npos);
}

TEST(RpcShardTest, SearchRejectsQueryConfigDrift) {
  // A query sketched under a different estimator config than the shard's
  // must be refused client-side: the server would otherwise answer under
  // its own config and the caller would never know.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "drift",
                  &deployment);
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
  ASSERT_TRUE(remote.ok());

  JoinMIConfig drifted = MakeIndexConfig();
  drifted.estimator = MIEstimatorKind::kMLE;
  auto query = JoinMIQuery::Create(*universe.base, "K", "Y", drifted);
  ASSERT_TRUE(query.ok());
  auto result = remote->Search(*query, 3, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();

  // min_join_size alone is allowed to differ — it travels per request and
  // the shard honors it exactly.
  JoinMIConfig relaxed = MakeIndexConfig();
  relaxed.min_join_size = 1;
  auto relaxed_query =
      JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
  ASSERT_TRUE(relaxed_query.ok());
  auto relaxed_result = remote->Search(*relaxed_query, 3, 1);
  ASSERT_TRUE(relaxed_result.ok()) << relaxed_result.status();
}

// ---------------------------------------------- JMRP v2: pipelining

void ExpectShardBitIdentical(const ShardSearchResult& expected,
                             const ShardSearchResult& actual) {
  EXPECT_EQ(expected.num_candidates, actual.num_candidates);
  EXPECT_EQ(expected.num_evaluated, actual.num_evaluated);
  EXPECT_EQ(expected.num_skipped, actual.num_skipped);
  EXPECT_EQ(expected.num_errors, actual.num_errors);
  ASSERT_EQ(expected.hits.size(), actual.hits.size());
  for (size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(expected.hits[i].global_index, actual.hits[i].global_index)
        << i;
    EXPECT_EQ(expected.hits[i].ref.table_name, actual.hits[i].ref.table_name)
        << i;
    EXPECT_EQ(expected.hits[i].estimate.mi, actual.hits[i].estimate.mi) << i;
    EXPECT_EQ(expected.hits[i].estimate.sample_size,
              actual.hits[i].estimate.sample_size) << i;
  }
}

TEST(RpcShardTest, PipelinedChannelOverlapsQueriesOnOneConnection) {
  // pool_size 1: a single TCP connection, shared by 8 concurrent router
  // threads. The v1 client would serialize them whole-exchange; the v2
  // channel interleaves requests and demuxes responses by request_id, so
  // the in-flight high-water mark must exceed 1 while the dial count
  // stays at exactly one connection.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "pipeline",
                  &deployment, /*num_workers=*/4);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);
  ASSERT_EQ(client->negotiated_version(), net::kProtocolVersion);

  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto expected = TopKJoinMISearch(*universe.base, {"K", "Y"}, *local, 3, 1);
  ASSERT_TRUE(expected.ok());

  const size_t num_threads = 8;
  const size_t queries_per_thread = 4;
  std::vector<Status> statuses(num_threads, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < queries_per_thread; ++q) {
        auto result =
            TopKJoinMISearch(*universe.base, {"K", "Y"}, *router, 3, 1);
        if (!result.ok()) {
          statuses[t] = result.status();
          return;
        }
        ExpectBitIdentical(*expected, *result);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < num_threads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
  }
  // The pigeonhole: 32 queries from 8 threads funneled through one
  // connection must have overlapped — pipelining is what lets them.
  EXPECT_GE(client->max_pipelined(), 2u)
      << "8 threads never had two requests in flight on the one connection";
  EXPECT_EQ(client->live_channels(), 1u);
  EXPECT_EQ(client->total_dials(), 1u);
  // The sketch crossed the wire once; every query after the first reused
  // the connection-cached copy by digest.
  EXPECT_EQ(deployment.servers[0]->sketch_uploads_served(), 1u);
  EXPECT_EQ(deployment.servers[0]->requests_served(),
            num_threads * queries_per_thread);
}

// Base tables over the universe's keys whose targets differ per table, so
// each one sketches to a distinct train sketch (a distinct upload digest).
std::vector<std::shared_ptr<Table>> MakeDistinctBases(size_t count) {
  std::vector<std::shared_ptr<Table>> bases;
  for (size_t q = 0; q < count; ++q) {
    std::vector<std::string> keys;
    std::vector<int64_t> targets;
    for (size_t i = 0; i < 160; ++i) {
      keys.push_back("key" + std::to_string(i));
      targets.push_back(static_cast<int64_t>(i % (q + 2)));
    }
    bases.push_back(MakeTwoColumnTable("K", keys, "Y", targets));
  }
  return bases;
}

TEST(RpcShardTest, LongLivedV2ClientAnswersPastTheSketchCacheBound) {
  // Regression: the server caches rpc::kMaxCachedSketches uploaded
  // sketches per connection. A long-lived client on ONE connection must
  // keep answering distinct queries past that bound — the server evicts
  // its oldest digest and the channel forgets digests in the same order —
  // and every answer must stay bit-identical to the local shard.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "distinct",
                  &deployment, /*num_workers=*/4);

  RpcClientOptions options = FastTimeouts();
  options.pool_size = 1;
  std::unique_ptr<ShardedSketchIndex> router;
  const RpcShardClient* client = nullptr;
  MakeSingleShardRouter(deployment, options, &router, &client);
  ASSERT_EQ(client->negotiated_version(), net::kProtocolVersion);
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());

  const size_t num_queries = 12;
  ASSERT_GT(num_queries, rpc::kMaxCachedSketches);
  const auto bases = MakeDistinctBases(num_queries);
  std::vector<TopKSearchResult> expected;
  for (const auto& base : bases) {
    auto answer = TopKJoinMISearch(*base, {"K", "Y"}, *local, 3, 1);
    ASSERT_TRUE(answer.ok()) << answer.status();
    expected.push_back(std::move(*answer));
  }
  // Two sequential passes: the second re-asks queries whose sketches both
  // sides evicted during the first.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < num_queries; ++q) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " query " +
                   std::to_string(q));
      auto actual = TopKJoinMISearch(*bases[q], {"K", "Y"}, *router, 3, 1);
      ASSERT_TRUE(actual.ok()) << actual.status();
      ExpectBitIdentical(expected[q], *actual);
    }
  }
  // Client and server evicted in lockstep: every query uploaded exactly
  // once per pass, none was refused and re-sent.
  EXPECT_EQ(deployment.servers[0]->sketch_uploads_served(), 2 * num_queries);

  // Concurrent callers on the one connection race uploads against each
  // other's batches; a batch whose sketch was evicted in between is
  // refused before evaluating, re-uploaded and re-sent.
  std::vector<Status> statuses(4, Status::OK());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < statuses.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < num_queries; ++i) {
        const size_t q = (t * 3 + i) % num_queries;
        auto actual =
            TopKJoinMISearch(*bases[q], {"K", "Y"}, *router, 3, 1);
        if (!actual.ok()) {
          statuses[t] = actual.status();
          return;
        }
        ExpectBitIdentical(expected[q], *actual);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < statuses.size(); ++t) {
    EXPECT_TRUE(statuses[t].ok()) << "thread " << t << ": " << statuses[t];
  }
  EXPECT_EQ(deployment.servers[0]->handshakes_served(), 1u);
  EXPECT_EQ(client->total_dials(), 1u);
}

TEST(RpcShardTest, ServerEvictsOldestSketchAndRefusesItsBatchWithKeyError) {
  // The server half of the bound, over a raw v2 connection: an upload
  // past rpc::kMaxCachedSketches evicts the oldest digest, and a batch
  // naming it fails with KeyError while the newest still answers.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "evict",
                  &deployment);
  auto socket =
      net::Socket::Connect("127.0.0.1", deployment.endpoints[0].port, 1000);
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(socket->SetTimeouts(10000, 10000).ok());
  rpc::HandshakeRequest hello;
  hello.max_version = net::kProtocolVersion;
  ASSERT_TRUE(net::SendFrame(&*socket, net::FrameType::kHandshakeRequest,
                             rpc::EncodeHandshakeRequest(hello))
                  .ok());
  auto handshake = net::RecvFrame(&*socket);
  ASSERT_TRUE(handshake.ok()) << handshake.status();
  ASSERT_EQ(handshake->type, net::FrameType::kHandshakeResponse);

  uint64_t request_id = 1;
  std::vector<uint64_t> digests;
  for (const auto& base : MakeDistinctBases(rpc::kMaxCachedSketches + 1)) {
    auto query = JoinMIQuery::Create(*base, "K", "Y", index.config());
    ASSERT_TRUE(query.ok()) << query.status();
    rpc::SketchUploadRequest upload;
    upload.train_sketch = query->SerializedTrainSketch();
    upload.digest = wire::Checksum64(upload.train_sketch);
    digests.push_back(upload.digest);
    ASSERT_TRUE(net::SendFrameV2(&*socket,
                                 net::FrameType::kSketchUploadRequest,
                                 request_id++,
                                 rpc::EncodeSketchUploadRequest(upload))
                    .ok());
    auto reply = net::RecvFrame(&*socket);
    ASSERT_TRUE(reply.ok()) << reply.status();
    auto accepted = rpc::DecodeSketchUploadResponse(reply->payload);
    ASSERT_TRUE(accepted.ok()) << accepted.status();
    EXPECT_TRUE(accepted->status.ok()) << accepted->status;
  }
  auto batch = [&](uint64_t digest) -> Status {
    rpc::BatchSearchRequest request;
    request.sketch_digest = digest;
    request.variants.push_back(rpc::BatchSearchVariant{3, 16});
    JOINMI_RETURN_NOT_OK(net::SendFrameV2(
        &*socket, net::FrameType::kBatchSearchRequest, request_id++,
        rpc::EncodeBatchSearchRequest(request)));
    JOINMI_ASSIGN_OR_RETURN(net::Frame reply, net::RecvFrame(&*socket));
    JOINMI_ASSIGN_OR_RETURN(rpc::BatchSearchResponse response,
                            rpc::DecodeBatchSearchResponse(reply.payload));
    return response.status;
  };
  const Status oldest = batch(digests.front());
  EXPECT_TRUE(oldest.IsKeyError()) << oldest;
  const Status newest = batch(digests.back());
  EXPECT_TRUE(newest.ok()) << newest;
}

// ------------------------------------------------------------ ChannelSet

// One connected socket plus the peer end the test controls.
std::pair<net::Socket, net::Socket> ConnectedPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {net::Socket(fds[0]), net::Socket(fds[1])};
}

// A factory of v1 channels over sockets with no peer; `calls` counts
// factory invocations, successful or not.
rpc::ChannelSet::ChannelFactory IdleChannelFactory(
    std::atomic<int>* calls) {
  return [calls]() -> Result<std::shared_ptr<rpc::Channel>> {
    calls->fetch_add(1);
    return std::make_shared<rpc::Channel>(net::Socket(), 1, 1000, nullptr);
  };
}

TEST(ChannelSetTest, DialsLazilyAndReusesAnIdleChannel) {
  std::atomic<int> calls{0};
  rpc::ChannelSet set(IdleChannelFactory(&calls), 2);
  EXPECT_EQ(calls.load(), 0);  // construction never dials
  auto first = set.Pick();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = set.Pick();  // the first is idle: reuse, not re-dial
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(set.total_dials(), 1u);
  EXPECT_EQ(set.live_channels(), 1u);
}

TEST(ChannelSetTest, FailedDialPropagatesVerbatimAndFreesItsSlot) {
  // With one slot, a dial failure that leaked its slot would leave the
  // next Pick waiting forever on a dial that never finishes.
  std::atomic<int> calls{0};
  rpc::ChannelSet set(
      [&calls]() -> Result<std::shared_ptr<rpc::Channel>> {
        calls.fetch_add(1);
        return Status::InvalidArgument("handshake config mismatch");
      },
      1);
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto channel = set.Pick();
    ASSERT_FALSE(channel.ok());
    EXPECT_TRUE(channel.status().IsInvalidArgument());
    EXPECT_EQ(channel.status().message(), "handshake config mismatch");
  }
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(set.total_dials(), 0u);  // only successful dials count
  EXPECT_EQ(set.live_channels(), 0u);
}

TEST(ChannelSetTest, PickAfterCloseFailsWithoutCallingTheFactory) {
  std::atomic<int> calls{0};
  rpc::ChannelSet set(IdleChannelFactory(&calls), 2);
  ASSERT_TRUE(set.Pick().ok());
  set.Close();
  EXPECT_EQ(set.live_channels(), 0u);  // Close drops its channels
  auto channel = set.Pick();
  ASSERT_FALSE(channel.ok());
  EXPECT_TRUE(channel.status().IsIOError()) << channel.status();
  EXPECT_EQ(calls.load(), 1);
  set.Close();  // idempotent
}

TEST(ChannelSetTest, CloseWakesAPickWaitingOnAnotherThreadsDial) {
  // One slot, and the only dial is stuck: a second Pick has nothing to
  // share and must wait — until Close wakes it with a deterministic error.
  std::atomic<bool> dialing{false};
  std::atomic<bool> release_dial{false};
  rpc::ChannelSet set(
      [&]() -> Result<std::shared_ptr<rpc::Channel>> {
        dialing.store(true);
        while (!release_dial.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return std::make_shared<rpc::Channel>(net::Socket(), 1, 1000,
                                              nullptr);
      },
      1);
  Status dialer_status = Status::OK();
  std::thread dialer([&] { dialer_status = set.Pick().status(); });
  while (!dialing.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> woke{false};
  Status waiter_status = Status::OK();
  std::thread waiter([&] {
    waiter_status = set.Pick().status();
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load());

  set.Close();
  waiter.join();
  EXPECT_TRUE(waiter_status.IsIOError()) << waiter_status;
  EXPECT_NE(waiter_status.message().find("closed"), std::string::npos)
      << waiter_status;
  release_dial.store(true);
  dialer.join();
  // The dial finished into a closed set: its channel is not handed out.
  EXPECT_TRUE(dialer_status.IsIOError()) << dialer_status;
  EXPECT_EQ(set.live_channels(), 0u);
}

TEST(ChannelSetTest, StaleV1ChannelFailsUnsentAndIsReplaced) {
  // A v1 channel whose peer hung up while it sat idle fails its next call
  // before writing a byte, so the caller may retry; the set then prunes
  // it and dials a replacement.
  std::vector<net::Socket> peers;
  rpc::ChannelSet set(
      [&]() -> Result<std::shared_ptr<rpc::Channel>> {
        auto pair = ConnectedPair();
        peers.push_back(std::move(pair.second));
        return std::make_shared<rpc::Channel>(std::move(pair.first), 1, 1000,
                                              nullptr);
      },
      1);
  auto channel = set.Pick();
  ASSERT_TRUE(channel.ok()) << channel.status();
  peers.back().Close();  // the server restarts

  bool reached_wire = false;
  auto reply = (*channel)->Call(net::FrameType::kHealthRequest, "",
                                &reached_wire);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsIOError()) << reply.status();
  EXPECT_FALSE(reached_wire);
  EXPECT_TRUE((*channel)->broken());

  auto fresh = set.Pick();
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_NE(fresh->get(), channel->get());
  EXPECT_EQ(set.total_dials(), 2u);
  EXPECT_EQ(set.live_channels(), 1u);
}

TEST(ChannelSetTest, LateReplyToATimedOutV2CallLeavesTheChannelHealthy) {
  // A v2 reply that arrives after its caller timed out is the reader's to
  // drop by id. A call made while that reply still sits in the socket
  // buffer neither breaks the channel nor fails.
  auto pair = ConnectedPair();
  net::Socket server = std::move(pair.second);
  ASSERT_TRUE(server.SetTimeouts(2000, 2000).ok());
  rpc::Channel channel(std::move(pair.first), 2, /*io_timeout_ms=*/50,
                       nullptr);
  for (int round = 0; round < 20; ++round) {
    auto timed_out = channel.Call(net::FrameType::kHealthRequest, "");
    ASSERT_FALSE(timed_out.ok());
    auto late = net::RecvFrame(&server);
    ASSERT_TRUE(late.ok()) << late.status();
    std::thread responder([&server] {
      auto request = net::RecvFrame(&server);
      if (request.ok()) {
        (void)net::SendFrameV2(&server, net::FrameType::kHealthResponse,
                               request->request_id, "");
      }
    });
    // The late reply lands just before the next call probes the socket.
    ASSERT_TRUE(net::SendFrameV2(&server, net::FrameType::kHealthResponse,
                                 late->request_id, "")
                    .ok());
    auto reply = channel.Call(net::FrameType::kHealthRequest, "");
    responder.join();
    ASSERT_TRUE(reply.ok()) << "round " << round << ": " << reply.status();
    EXPECT_EQ(reply->type, net::FrameType::kHealthResponse);
    EXPECT_FALSE(channel.broken());
  }
}

TEST(ChannelSetTest, ClosedV2PeerFailsTheNextCallUnsent) {
  auto pair = ConnectedPair();
  rpc::Channel channel(std::move(pair.first), 2, 1000, nullptr);
  pair.second.Close();  // the server restarts
  bool reached_wire = false;
  auto reply = channel.Call(net::FrameType::kHealthRequest, "",
                            &reached_wire);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsIOError()) << reply.status();
  EXPECT_FALSE(reached_wire);
  EXPECT_TRUE(channel.broken());
}

TEST(RpcShardTest, BatchedVariantsBitIdenticalAcrossShardsAndPolicies) {
  // One sketch upload, one batch frame per shard, many (k, min_join_size)
  // variants — each element must equal both the local batched answer and
  // an individual remote Search under that variant's parameters.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());

  const std::vector<ShardSearchVariant> variants = {
      {1, 16}, {3, 16}, {3, 1}, {7, 16}, {3, 16} /* duplicate on purpose */};

  for (ShardPartitionPolicy policy :
       {ShardPartitionPolicy::kRoundRobin,
        ShardPartitionPolicy::kHashByDataset}) {
    for (size_t num_shards : {1u, 3u}) {
      Deployment deployment;
      StartDeployment(index, num_shards, policy,
                      std::string("batch_") +
                          ShardPartitionPolicyToString(policy) + "_" +
                          std::to_string(num_shards),
                      &deployment);
      auto local = ShardedSketchIndex::Load(deployment.manifest_path);
      ASSERT_TRUE(local.ok()) << local.status();
      auto remote = ShardedSketchIndex::Load(
          deployment.manifest_path,
          RpcShardClient::Factory(deployment.endpoints, FastTimeouts()));
      ASSERT_TRUE(remote.ok()) << remote.status();

      auto query =
          JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
      ASSERT_TRUE(query.ok());
      auto local_batch = local->SearchVariants(*query, variants, 1);
      ASSERT_TRUE(local_batch.ok()) << local_batch.status();
      auto remote_batch = remote->SearchVariants(*query, variants, 1);
      ASSERT_TRUE(remote_batch.ok()) << remote_batch.status();
      ASSERT_EQ(remote_batch->size(), variants.size());
      for (size_t i = 0; i < variants.size(); ++i) {
        ExpectShardBitIdentical((*local_batch)[i], (*remote_batch)[i]);
      }
      // The duplicate variant answers identically to its twin.
      ExpectShardBitIdentical((*remote_batch)[1], (*remote_batch)[4]);
      // Cross-check one variant against the single-search path under a
      // query rebuilt with that variant's min_join_size.
      JoinMIConfig relaxed = index.config();
      relaxed.min_join_size = 1;
      auto relaxed_query =
          JoinMIQuery::Create(*universe.base, "K", "Y", relaxed);
      ASSERT_TRUE(relaxed_query.ok());
      auto single = remote->Search(*relaxed_query, 3, 1);
      ASSERT_TRUE(single.ok()) << single.status();
      ExpectShardBitIdentical(*single, (*remote_batch)[2]);

      // Empty batch short-circuits without a frame.
      auto empty = remote->SearchVariants(*query, {}, 1);
      ASSERT_TRUE(empty.ok());
      EXPECT_TRUE(empty->empty());
    }
  }
}

// --------------------------------------- Cross-version interoperability

TEST(RpcShardTest, V1ClientAgainstV2ServerStaysBitIdentical) {
  // A not-yet-upgraded client capped at protocol v1 talks to today's
  // server: handshake negotiates down to 1, searches travel as legacy
  // one-per-round-trip frames (no uploads), rankings stay bit-identical.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 2, ShardPartitionPolicy::kRoundRobin, "v1client",
                  &deployment);

  RpcClientOptions options = FastTimeouts();
  options.max_protocol_version = 1;
  auto local = ShardedSketchIndex::Load(deployment.manifest_path);
  ASSERT_TRUE(local.ok());
  auto remote = ShardedSketchIndex::Load(
      deployment.manifest_path,
      RpcShardClient::Factory(deployment.endpoints, options));
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  for (size_t k : {1u, 3u, 7u}) {
    auto expected = local->Search(*query, k, 1);
    ASSERT_TRUE(expected.ok());
    auto actual = remote->Search(*query, k, 1);
    ASSERT_TRUE(actual.ok()) << actual.status();
    ExpectShardBitIdentical(*expected, *actual);
  }
  // Batched variants still answer correctly — the v1 fallback loops one
  // legacy frame per variant instead of sending a batch.
  const std::vector<ShardSearchVariant> variants = {{1, 16}, {3, 1}};
  auto local_batch = local->SearchVariants(*query, variants, 1);
  ASSERT_TRUE(local_batch.ok());
  auto remote_batch = remote->SearchVariants(*query, variants, 1);
  ASSERT_TRUE(remote_batch.ok()) << remote_batch.status();
  ASSERT_EQ(remote_batch->size(), variants.size());
  for (size_t i = 0; i < variants.size(); ++i) {
    ExpectShardBitIdentical((*local_batch)[i], (*remote_batch)[i]);
  }
  // Nothing v2 ever crossed the wire.
  for (const auto& server : deployment.servers) {
    EXPECT_EQ(server->sketch_uploads_served(), 0u);
  }
}

/// A frozen v1 binary in miniature: blocking accept loop, a thread per
/// connection, only the legacy frames — the handshake answered in the
/// legacy shape (no protocol_version field), searches served one frame
/// per round trip, anything newer answered with an error and a hangup.
/// This is what a not-yet-upgraded shard looks like to a v2 client
/// mid-rolling-upgrade.
class LegacyServer {
 public:
  static std::unique_ptr<LegacyServer> Start(const ShardManifest& manifest,
                                             const std::string& dir) {
    auto client = ShardedSketchIndex::LocalFileFactory()(manifest, 0, dir);
    EXPECT_TRUE(client.ok()) << client.status();
    auto listener = net::Listener::Bind("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    std::unique_ptr<LegacyServer> server(new LegacyServer);
    server->client_ = std::move(*client);
    server->listener_ = std::move(*listener);
    server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
    return server;
  }

  ~LegacyServer() {
    stop_.store(true);
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& worker : workers_) worker.join();
  }

  uint16_t port() const { return listener_.port(); }

 private:
  LegacyServer() = default;

  void AcceptLoop() {
    while (!stop_.load()) {
      auto socket = listener_.AcceptWithTimeout(50);
      if (!socket.ok()) continue;
      auto shared = std::make_shared<net::Socket>(std::move(*socket));
      workers_.emplace_back([this, shared] { Serve(shared.get()); });
    }
  }

  void Serve(net::Socket* socket) {
    (void)socket->SetTimeouts(2000, 2000);
    while (!stop_.load()) {
      auto frame = net::RecvFrame(socket);
      if (!frame.ok()) return;
      switch (frame->type) {
        case net::FrameType::kHandshakeRequest: {
          rpc::HandshakeResponse response;
          response.config = client_->config();
          response.num_candidates = client_->num_candidates();
          response.protocol_version = 1;  // encodes the legacy shape
          if (!net::SendFrame(socket, net::FrameType::kHandshakeResponse,
                              rpc::EncodeHandshakeResponse(response))
                   .ok()) {
            return;
          }
          break;
        }
        case net::FrameType::kSearchRequest: {
          rpc::SearchResponse response;
          auto run = [&]() -> Result<ShardSearchResult> {
            JOINMI_ASSIGN_OR_RETURN(
                rpc::SearchRequest request,
                rpc::DecodeSearchRequest(frame->payload));
            JOINMI_ASSIGN_OR_RETURN(Sketch train,
                                    DeserializeSketch(request.train_sketch));
            JoinMIConfig config = client_->config();
            config.min_join_size =
                static_cast<size_t>(request.min_join_size);
            JOINMI_ASSIGN_OR_RETURN(
                JoinMIQuery query,
                JoinMIQuery::FromTrainSketch(std::move(train), config));
            return client_->Search(query, static_cast<size_t>(request.k),
                                   1);
          };
          auto result = run();
          if (result.ok()) {
            response.status = Status::OK();
            response.result = std::move(*result);
          } else {
            response.status = result.status();
          }
          if (!net::SendFrame(socket, net::FrameType::kSearchResponse,
                              rpc::EncodeSearchResponse(response))
                   .ok()) {
            return;
          }
          break;
        }
        default: {
          // A v1 binary has never heard of uploads or batches.
          (void)net::SendFrame(
              socket, net::FrameType::kError,
              rpc::EncodeErrorPayload(Status::InvalidArgument(
                  "unknown frame type")));
          return;
        }
      }
    }
  }

  std::unique_ptr<ShardClient> client_;
  net::Listener listener_;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

TEST(RpcShardTest, V2ClientAgainstLegacyV1ServerNegotiatesDown) {
  // Today's client dials a frozen v1 server. The legacy-shaped handshake
  // response is how it learns the server can't speak v2: it must fall
  // back to one-search-per-round-trip frames and still answer
  // bit-identically.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  const std::string dir = ScratchDir("legacy");
  auto manifest_path =
      BuildShards(index, 1, ShardPartitionPolicy::kRoundRobin, dir);
  ASSERT_TRUE(manifest_path.ok()) << manifest_path.status();
  auto manifest = ReadManifestFile(*manifest_path);
  ASSERT_TRUE(manifest.ok());
  auto legacy = LegacyServer::Start(*manifest, dir);

  ASSERT_TRUE(manifest->config.has_value());
  auto client = RpcShardClient::Create(
      ShardEndpoint{"127.0.0.1", legacy->port()}, *manifest->config,
      manifest->shards[0].candidate_count, FastTimeouts());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_EQ((*client)->negotiated_version(), 1u);

  auto local = ShardedSketchIndex::Load(*manifest_path);
  ASSERT_TRUE(local.ok());
  auto query =
      JoinMIQuery::Create(*universe.base, "K", "Y", index.config());
  ASSERT_TRUE(query.ok());
  auto expected = local->Search(*query, 3, 1);
  ASSERT_TRUE(expected.ok());
  auto actual = (*client)->Search(*query, 3, 1);
  ASSERT_TRUE(actual.ok()) << actual.status();
  ExpectShardBitIdentical(*expected, *actual);

  // Variants fall back to the per-variant loop a v1 server understands.
  const std::vector<ShardSearchVariant> variants = {{1, 16}, {3, 16}};
  auto batch = (*client)->SearchVariants(*query, variants, 1);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), variants.size());
  auto expected_one = local->Search(*query, 1, 1);
  ASSERT_TRUE(expected_one.ok());
  ExpectShardBitIdentical(*expected_one, (*batch)[0]);
  ExpectShardBitIdentical(*expected, (*batch)[1]);

  client->reset();  // hang up before the server object unwinds
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- Shutdown safety

TEST(RpcShardTest, ConcurrentStopCallsAreSerializedAndIdempotent) {
  // Two threads race Stop() on the same server: exactly one performs the
  // teardown, the other blocks until it finishes, nobody double-joins.
  Universe universe = MakeUniverse();
  SketchIndex index(MakeIndexConfig());
  ASSERT_TRUE(index.IndexRepository(universe.repository).ok());
  Deployment deployment;
  StartDeployment(index, 1, ShardPartitionPolicy::kRoundRobin, "stoprace",
                  &deployment);
  ShardServer* server = deployment.servers[0].get();
  const uint16_t port = server->port();

  std::vector<std::thread> stoppers;
  for (int t = 0; t < 2; ++t) {
    stoppers.emplace_back([server] { server->Stop(); });
  }
  for (std::thread& thread : stoppers) thread.join();
  server->Stop();  // and again after the fact — a no-op
  // The port actually stopped answering.
  auto probe = net::Socket::Connect("127.0.0.1", port, 250);
  if (probe.ok()) {
    (void)probe->SetTimeouts(250, 250);
    EXPECT_FALSE(net::SendFrame(&*probe, net::FrameType::kHealthRequest, "")
                     .ok() &&
                 net::RecvFrame(&*probe).ok());
  }
}

}  // namespace
}  // namespace joinmi
