// RIAL-style host selection (§3.3.2) and migration-victim selection
// (§3.3.3) behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/migration.hpp"
#include "core/placement.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs::core {
namespace {

struct NoopOps : SchedulerOps {
  bool place(TaskId, ServerId, int) override { return false; }
  void preempt_to_queue(TaskId) override {}
  bool migrate(TaskId, ServerId, int) override { return false; }
  void release(TaskId) override {}
};

struct Fixture {
  Cluster cluster;
  NoopOps ops;
  std::vector<TaskId> queue;

  Fixture() : Fixture(ClusterConfig{3, 2, 1000.0}) {}
  explicit Fixture(const ClusterConfig& config) : cluster(config) {}

  SchedulerContext ctx() {
    return SchedulerContext{cluster, queue, ops, 0.0, 0.9, nullptr, kInvalidJob};
  }

  JobId add(MlAlgorithm algo, int gpus, std::uint64_t seed,
            CommStructure comm = CommStructure::AllReduce) {
    JobSpec spec;
    spec.id = static_cast<JobId>(cluster.job_count());
    spec.algorithm = algo;
    spec.comm = comm;
    spec.gpu_request = gpus;
    spec.max_iterations = 30;
    spec.seed = seed;
    auto inst = ModelZoo::instantiate(spec, static_cast<TaskId>(cluster.task_count()));
    cluster.register_job(std::move(inst.job), std::move(inst.tasks));
    return spec.id;
  }
};

TEST(Placement, PicksLeastUtilizedWhenNoCommAffinity) {
  Fixture f;
  const JobId a = f.add(MlAlgorithm::Svm, 1, 1);
  const JobId b = f.add(MlAlgorithm::Svm, 1, 2);
  // Load server 0 with one task; keep 1 and 2 idle.
  f.cluster.place_task(f.cluster.job(a).task_at(0), 0, 0);

  const MlfPlacement placement{PlacementParams{}};
  auto ctx = f.ctx();
  const Task& incoming = f.cluster.task(f.cluster.job(b).task_at(0));
  const auto host = placement.choose_host(ctx, incoming, false);
  ASSERT_TRUE(host.has_value());
  EXPECT_NE(host->server, 0u);  // idle servers are closer to the ideal
}

TEST(Placement, BandwidthTermPullsTaskTowardItsPeers) {
  Fixture f;
  // 2-worker MLP chain: worker 1 communicates with worker 0.
  const JobId id = f.add(MlAlgorithm::Mlp, 2, 3);
  // Task ids, not a Job reference: the adds below may reallocate the jobs.
  const TaskId upstream = f.cluster.job(id).task_at(0);
  const TaskId downstream = f.cluster.job(id).task_at(1);
  f.cluster.place_task(upstream, 1, 0);

  // Make every server equally utilized so only the comm term differs:
  // place one equal decoy task on servers 0 and 2.
  const JobId decoy1 = f.add(MlAlgorithm::Svm, 1, 999);
  const JobId decoy2 = f.add(MlAlgorithm::Svm, 1, 999);
  f.cluster.place_task(f.cluster.job(decoy1).task_at(0), 0, 0);
  f.cluster.place_task(f.cluster.job(decoy2).task_at(0), 2, 0);

  auto ctx = f.ctx();
  const Task& partner = f.cluster.task(downstream);

  const MlfPlacement with_bw{PlacementParams{true}};
  const auto host = with_bw.choose_host(ctx, partner, false);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->server, 1u);  // co-locate with its upstream partition
}

TEST(Placement, CommVolumeComputation) {
  Fixture f;
  const JobId id = f.add(MlAlgorithm::Mlp, 2, 5, CommStructure::ParameterServer);
  const Job& job = f.cluster.job(id);
  // Chain 0 -> 1 -> PS(2). Place 0 on server 0 and PS on server 2.
  f.cluster.place_task(job.task_at(0), 0, 0);
  f.cluster.place_task(job.task_at(2), 2, 0);
  const Task& middle = f.cluster.task(job.task_at(1));
  EXPECT_DOUBLE_EQ(MlfPlacement::comm_volume_with_server(f.cluster, middle, 0),
                   job.spec().comm_volume_ww_mb);
  EXPECT_DOUBLE_EQ(MlfPlacement::comm_volume_with_server(f.cluster, middle, 2),
                   job.spec().comm_volume_ps_mb);
  EXPECT_DOUBLE_EQ(MlfPlacement::comm_volume_with_server(f.cluster, middle, 1), 0.0);
}

TEST(Placement, ReturnsNulloptWhenNothingFits) {
  Fixture f;
  // Saturate every GPU with two mid-sized workers.
  std::vector<JobId> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back(f.add(MlAlgorithm::Svm, 1, 100 + i));
  std::size_t placed = 0;
  for (const JobId id : jobs) {
    const TaskId tid = f.cluster.job(id).task_at(0);
    for (ServerId s = 0; s < 3 && !f.cluster.task(tid).placed(); ++s) {
      for (int g = 0; g < 2 && !f.cluster.task(tid).placed(); ++g) {
        if (f.cluster.server(s).fits_without_overload(f.cluster.task(tid), g, 0.9)) {
          f.cluster.place_task(tid, s, g);
          ++placed;
        }
      }
    }
  }
  ASSERT_GT(placed, 0u);
  // A heavyweight AlexNet worker should now find no feasible host.
  const JobId big = f.add(MlAlgorithm::AlexNet, 1, 500);
  auto ctx = f.ctx();
  const MlfPlacement placement{PlacementParams{}};
  const Task& task = f.cluster.task(f.cluster.job(big).task_at(0));
  // Either nothing fits (nullopt) or the chosen host genuinely fits.
  if (const auto host = placement.choose_host(ctx, task, false)) {
    EXPECT_TRUE(f.cluster.server(host->server).fits_without_overload(task, host->gpu, 0.9));
  }
}

TEST(Placement, MigratingExcludesCurrentServer) {
  Fixture f;
  const JobId id = f.add(MlAlgorithm::Svm, 1, 7);
  const TaskId tid = f.cluster.job(id).task_at(0);
  f.cluster.place_task(tid, 1, 0);
  auto ctx = f.ctx();
  const MlfPlacement placement{PlacementParams{}};
  for (int i = 0; i < 5; ++i) {
    const auto host = placement.choose_host(ctx, f.cluster.task(tid), /*migrating=*/true);
    ASSERT_TRUE(host.has_value());
    EXPECT_NE(host->server, 1u);
  }
}

TEST(Placement, BestFittingGpuPrefersLeastLoadedWhenItFits) {
  Server server{0, 2};
  Task resident{};
  resident.id = 0;
  resident.demand[Resource::Gpu] = 0.5;
  server.attach_task(resident, 0);  // GPU 0 at 0.5, GPU 1 idle

  Task incoming{};
  incoming.id = 1;
  incoming.demand[Resource::Gpu] = 0.3;
  EXPECT_EQ(server.best_fitting_gpu(incoming, 0.9), 1);  // least-loaded fits
}

TEST(Placement, BestFittingGpuFallsBackAcrossGpusOrRejects) {
  Server server{0, 3};
  Task heavy{};
  heavy.id = 0;
  heavy.demand[Resource::Gpu] = 0.6;
  server.attach_task(heavy, 0);
  Task medium{};
  medium.id = 1;
  medium.demand[Resource::Gpu] = 0.4;
  server.attach_task(medium, 1);  // loads: 0.6, 0.4, 0.0 -> least = 2

  Task incoming{};
  incoming.id = 2;
  incoming.demand[Resource::Gpu] = 0.45;
  // Fits on GPU 2 (0.45) and GPU 1 (0.85); least-loaded wins.
  EXPECT_EQ(server.best_fitting_gpu(incoming, 0.9), 2);

  Task oversized{};
  oversized.id = 3;
  oversized.demand[Resource::Gpu] = 0.95;
  // No GPU can take 0.95 under hr = 0.9 — the guard must say so instead
  // of returning an infeasible index.
  EXPECT_EQ(server.best_fitting_gpu(oversized, 0.9), kNoGpu);
}

TEST(Placement, MigrationDegradationPrefersSameRackDestination) {
  // 4 servers in 2 racks; a task on server 2 must move. All destinations
  // are equally (un)loaded and share no comm peers, so only the movement-
  // degradation term q differs: server 3 is one rack hop away while 0 and
  // 1 cross the oversubscribed core. The destination-dependent q must pick
  // the same-rack server — the pre-fix constant-q model always chose the
  // lowest id (server 0).
  ClusterConfig config{4, 2, 1000.0};
  config.servers_per_rack = 2;
  Fixture f{config};
  const JobId id = f.add(MlAlgorithm::Svm, 1, 7);
  const TaskId tid = f.cluster.job(id).task_at(0);
  ASSERT_GT(f.cluster.task(tid).state_size_mb, 0.0);
  f.cluster.place_task(tid, 2, 0);

  auto ctx = f.ctx();
  const MlfPlacement placement{PlacementParams{}};
  const auto host = placement.choose_host(ctx, f.cluster.task(tid), /*migrating=*/true);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->server, 3u);
}

/// §3.3.2 from its definition: scan every server, recompute each
/// candidate's utilization and comm volume directly, and pick the
/// Euclidean-nearest to the ideal virtual host (lowest id on ties). The
/// oracle for MlfPlacement's cached, memoized choose_host
/// (rack spread off).
std::optional<HostChoice> brute_force_choose_host(const SchedulerContext& ctx,
                                                  const PlacementParams& params,
                                                  const Task& task, bool migrating) {
  const Cluster& cluster = ctx.cluster;
  struct Candidate {
    ServerId server;
    int gpu;
    ResourceVector util;
    double comm;
  };
  std::vector<Candidate> candidates;
  double max_comm = 0.0;
  for (const Server& s : cluster.servers()) {
    if (!s.accepts_placements() || s.overloaded(ctx.hr)) continue;
    if (migrating && s.id() == task.server) continue;
    const int gpu = s.best_fitting_gpu(task, ctx.hr);
    if (gpu == kNoGpu) continue;
    const double comm = params.use_topology
                            ? MlfPlacement::comm_volume_with_server_topology(
                                  cluster, task, s.id(), params.rack_affinity)
                            : MlfPlacement::comm_volume_with_server(cluster, task, s.id());
    candidates.push_back({s.id(), gpu, s.utilization(), comm});
    max_comm = std::max(max_comm, comm);
  }
  if (candidates.empty()) return std::nullopt;
  ResourceVector ideal = candidates.front().util;
  for (const Candidate& c : candidates) {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      ideal.at(i) = std::min(ideal.at(i), c.util.at(i));
    }
  }
  const Candidate* best = nullptr;
  double best_distance = 0.0;
  for (const Candidate& c : candidates) {
    double sq = 0.0;
    for (std::size_t i = 0; i < kNumResources; ++i) {
      const double d = c.util.at(i) - ideal.at(i);
      sq += d * d;
    }
    if (params.use_bandwidth && max_comm > 0.0) {
      const double d = c.comm / max_comm - 1.0;
      sq += d * d;
    }
    if (migrating) {
      const double q =
          task.state_size_mb / cluster.flow_bandwidth_between(task.server, c.server) / 60.0;
      sq += q * q;
    }
    const double distance = std::sqrt(sq);
    if (best == nullptr || distance < best_distance) {
      best = &c;
      best_distance = distance;
    }
  }
  return HostChoice{best->server, best->gpu};
}

/// choose_host against the oracle for every task of the fixture, as a
/// queue placement and (placed tasks only) as a migration.
void expect_oracle_agrees(Fixture& f, const PlacementParams& params,
                          const MlfPlacement& placement) {
  auto ctx = f.ctx();
  for (const Job& j : f.cluster.jobs()) {
    for (const TaskId tid : j.tasks()) {
      const Task& task = f.cluster.task(tid);
      for (const bool migrating : {false, true}) {
        if (migrating && !task.placed()) continue;
        const auto expected = brute_force_choose_host(ctx, params, task, migrating);
        const auto actual = placement.choose_host(ctx, task, migrating);
        ASSERT_EQ(expected.has_value(), actual.has_value()) << "task " << tid;
        if (expected) {
          EXPECT_EQ(expected->server, actual->server) << "task " << tid;
          EXPECT_EQ(expected->gpu, actual->gpu) << "task " << tid;
        }
      }
    }
  }
}

TEST(Placement, MemoizedCommVolumesMatchDirectComputation) {
  // The version-keyed comm memo and the load-index caches must not change a
  // single choice against the from-scratch definition, with and without
  // the rack-affinity extension — and a memo entry must be refreshed once
  // its job's communication version moves. Servers 3–5 start idle, so exact
  // distance ties occur and must go to the lowest id.
  for (const bool topology : {false, true}) {
    ClusterConfig config{6, 2, 1000.0};
    config.servers_per_rack = 2;
    Fixture f{config};
    const JobId chain = f.add(MlAlgorithm::Mlp, 3, 11, CommStructure::ParameterServer);
    const JobId ring = f.add(MlAlgorithm::ResNet, 3, 13, CommStructure::AllReduce);
    const TaskId chain0 = f.cluster.job(chain).task_at(0);
    const TaskId chain1 = f.cluster.job(chain).task_at(1);
    const TaskId ring0 = f.cluster.job(ring).task_at(0);
    f.cluster.place_task(chain0, 0, 0);
    f.cluster.place_task(chain1, 2, 0);
    f.cluster.place_task(ring0, 1, 1);

    PlacementParams params;
    params.use_topology = topology;
    const MlfPlacement placement{params};

    expect_oracle_agrees(f, params, placement);
    const std::size_t misses = placement.stats().comm_cache_misses;
    expect_oracle_agrees(f, params, placement);  // nothing moved: served from the memo
    EXPECT_EQ(placement.stats().comm_cache_misses, misses);
    EXPECT_GT(placement.stats().comm_cache_hits, 0u);
    f.cluster.move_task(chain1, 3, 1);  // bumps the chain's version only
    expect_oracle_agrees(f, params, placement);
    EXPECT_GT(placement.stats().comm_cache_misses, misses);
  }
}

/// A single-task job whose task's usage is exactly `demand` (a queued
/// task's usage factor is 1).
TaskId add_task(Fixture& f, const ResourceVector& demand) {
  const JobId id = f.add(MlAlgorithm::Svm, 1, 900 + f.cluster.job_count());
  EXPECT_EQ(f.cluster.job(id).task_count(), 1u);
  const TaskId tid = f.cluster.job(id).task_at(0);
  f.cluster.task(tid).demand = demand;
  return tid;
}

/// choose_host for `probe` after checking every choice of the fleet,
/// queue placement and migration alike, against the oracle.
std::optional<HostChoice> funnel_choice(Fixture& f, TaskId probe, bool migrating) {
  const PlacementParams params;
  const MlfPlacement placement{params};
  expect_oracle_agrees(f, params, placement);
  auto ctx = f.ctx();
  return placement.choose_host(ctx, f.cluster.task(probe), migrating);
}

// Fleets at the edges of the funnel's feasibility check over the cluster's
// underloaded-server index. The test names are kept from the unit tests of
// the bucketed index the funnel replaced, one case each.

TEST(PlacementIndex, EmptyIndexReturnsNothing) {
  // No underloaded server at all.
  Fixture f{ClusterConfig{3, 2, 1000.0}};
  const TaskId probe = add_task(f, ResourceVector::uniform(0.1));
  for (ServerId s = 0; s < 3; ++s) f.cluster.set_placement_cap(s, 0);
  EXPECT_FALSE(funnel_choice(f, probe, false).has_value());
}

TEST(PlacementIndex, AllEqualLoadsShareOneBucketAndPruneTogether) {
  // All-equal loads: every server fits, or none does.
  const auto uniform = ResourceVector::uniform;
  Fixture f{ClusterConfig{4, 2, 1000.0}};
  for (ServerId s = 0; s < 4; ++s) f.cluster.place_task(add_task(f, uniform(0.3)), s, 0);
  const auto fits_all = funnel_choice(f, add_task(f, uniform(0.1)), false);
  ASSERT_TRUE(fits_all.has_value());
  EXPECT_EQ(fits_all->server, 0u);  // an exact tie goes to the lowest id
  EXPECT_EQ(fits_all->gpu, 1);
  EXPECT_FALSE(funnel_choice(f, add_task(f, uniform(0.7)), false).has_value());
}

TEST(PlacementIndex, SingleFeasibleServerSurvivesPruning) {
  Fixture f{ClusterConfig{4, 2, 1000.0}};
  for (const ServerId s : {0u, 1u, 3u}) {
    f.cluster.place_task(add_task(f, ResourceVector{0.8, 0.8, 0.1, 0.1}), s, 0);
  }
  const auto host = funnel_choice(f, add_task(f, ResourceVector::uniform(0.3)), false);
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->server, 2u);
}

TEST(PlacementIndex, BucketBoundaryMapping) {
  // Load exactly at hr - u. `edge` is the largest load that still takes the
  // probe, `over` the next double: on the CPU sum (servers 0, 1) and on both
  // GPUs, so on the least-loaded one (servers 2, 3).
  constexpr double kHr = 0.9;  // Fixture::ctx
  const double u = 0.25;
  double over = kHr - u;
  while (!(over + u > kHr)) over = std::nextafter(over, 2.0);
  const double edge = std::nextafter(over, 0.0);
  Fixture f{ClusterConfig{4, 2, 1000.0}};
  f.cluster.place_task(add_task(f, ResourceVector{0.0, edge, 0.0, 0.0}), 0, 0);
  f.cluster.place_task(add_task(f, ResourceVector{0.0, over, 0.0, 0.0}), 1, 0);
  for (const int gpu : {0, 1}) {
    f.cluster.place_task(add_task(f, ResourceVector{edge, 0.0, 0.0, 0.0}), 2, gpu);
    f.cluster.place_task(add_task(f, ResourceVector{over, 0.0, 0.0, 0.0}), 3, gpu);
  }
  const TaskId probe = add_task(f, ResourceVector::uniform(u));
  const auto host = funnel_choice(f, probe, false);
  ASSERT_TRUE(host.has_value());
  EXPECT_TRUE(host->server == 0u || host->server == 2u) << host->server;
  for (const ServerId s : {1u, 3u}) {
    EXPECT_EQ(f.cluster.server(s).best_fitting_gpu(f.cluster.task(probe), kHr), kNoGpu);
  }
}

TEST(PlacementIndex, NegativeDriftLoadIsIndexedAndFound) {
  // Two tasks whose usage factors drop to 0 leave server 0's sums at
  // (0.7 + 0.1) - 0.7 - 0.1 < 0 in floating point.
  const auto uniform = ResourceVector::uniform;
  Fixture f{ClusterConfig{4, 2, 1000.0}};
  const TaskId a = add_task(f, uniform(0.7));
  const TaskId b = add_task(f, uniform(0.1));
  f.cluster.place_task(a, 0, 0);
  f.cluster.place_task(b, 0, 0);
  f.cluster.set_usage_factor(a, 0.0);
  f.cluster.set_usage_factor(b, 0.0);
  ASSERT_LT(f.cluster.server(0).utilization()[Resource::Cpu], 0.0);
  ASSERT_LT(f.cluster.server(0).gpu_load(0), 0.0);
  for (ServerId s = 1; s < 4; ++s) f.cluster.place_task(add_task(f, uniform(0.2)), s, 0);
  const auto roomy = funnel_choice(f, add_task(f, uniform(0.5)), false);
  ASSERT_TRUE(roomy.has_value());
  EXPECT_EQ(roomy->server, 0u);
  EXPECT_EQ(roomy->gpu, 0);  // the drifted GPU is the least loaded
  const auto tight = funnel_choice(f, add_task(f, uniform(0.85)), false);
  ASSERT_TRUE(tight.has_value());
  EXPECT_EQ(tight->server, 0u);
}

TEST(PlacementIndex, SkipExcludesMigratingSelf) {
  const auto uniform = ResourceVector::uniform;
  Fixture f{ClusterConfig{3, 2, 1000.0}};
  f.cluster.place_task(add_task(f, uniform(0.5)), 0, 0);
  f.cluster.place_task(add_task(f, uniform(0.5)), 2, 0);
  const TaskId light = add_task(f, uniform(0.1));
  f.cluster.place_task(light, 1, 0);
  const auto moved = funnel_choice(f, light, true);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->server, 0u);  // server 1 is the least loaded, but its own
  const TaskId heavy = add_task(f, uniform(0.6));
  f.cluster.unplace_task(light);
  f.cluster.place_task(heavy, 1, 0);
  EXPECT_FALSE(funnel_choice(f, heavy, true).has_value());  // only its own server fits it
}

TEST(Migration, SelectsHighUsageVictimOnHotGpu) {
  Fixture f;
  // Three workers stacked on server 0 GPU 0 -> overloaded GPU.
  std::vector<TaskId> tids;
  for (int i = 0; i < 3; ++i) {
    const JobId id = f.add(MlAlgorithm::Svm, 1, 200 + i);
    const TaskId tid = f.cluster.job(id).task_at(0);
    f.cluster.place_task(tid, 0, 0);
    tids.push_back(tid);
  }
  ASSERT_GT(f.cluster.server(0).gpu_load(0), 0.9);

  const MigrationSelector selector{MigrationParams{}};
  // Equal priorities: selection is purely by the ideal-virtual-task match.
  const auto victim =
      selector.select_victim(f.cluster, f.cluster.server(0), 0.9, [](TaskId) { return 1.0; });
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(std::find(tids.begin(), tids.end(), *victim), tids.end());
}

TEST(Migration, LowPriorityTasksPreferredUnderPsFilter) {
  Fixture f;
  std::vector<TaskId> tids;
  for (int i = 0; i < 4; ++i) {
    const JobId id = f.add(MlAlgorithm::Svm, 1, 300 + i);
    const TaskId tid = f.cluster.job(id).task_at(0);
    f.cluster.place_task(tid, 0, 0);
    tids.push_back(tid);
  }
  ASSERT_GT(f.cluster.server(0).gpu_load(0), 0.9);

  MigrationParams params;
  params.ps = 0.25;  // only the single lowest-priority task is a candidate
  const MigrationSelector selector{params};
  // tids[2] has the lowest priority.
  auto priority = [&tids](TaskId id) { return id == tids[2] ? 0.1 : 10.0; };
  const auto victim = selector.select_victim(f.cluster, f.cluster.server(0), 0.9, priority);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, tids[2]);
}

TEST(Migration, NoVictimOnEmptyServer) {
  Fixture f;
  const MigrationSelector selector{MigrationParams{}};
  const auto victim =
      selector.select_victim(f.cluster, f.cluster.server(0), 0.9, [](TaskId) { return 1.0; });
  EXPECT_FALSE(victim.has_value());
}

TEST(Migration, RejectsInvalidPs) {
  MigrationParams params;
  params.ps = 0.0;
  EXPECT_THROW(MigrationSelector{params}, ContractViolation);
}

}  // namespace
}  // namespace mlfs::core
