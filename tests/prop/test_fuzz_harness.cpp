// Fuzz-harness tests: deterministic case generation, scheduler coverage,
// serialization round-trips, and the end-to-end self-test required by the
// harness contract — an injected slot-leak bug is caught by the auditor,
// shrunk to a smaller case failing the same invariant, and replayable
// from its serialized form.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "exp/fuzz.hpp"
#include "exp/registry.hpp"

namespace mlfs::exp {
namespace {

/// Tiny case that finishes in well under a second; used as the base for
/// the slot-leak and round-trip tests.
FuzzCase tiny_case() {
  FuzzCase c;
  c.master_seed = 7;
  c.index = 0;
  c.trace_seed = 101;
  c.engine_seed = 202;
  c.scheduler = "MLF-H";
  c.servers = 2;
  c.gpus_per_server = 3;
  c.num_jobs = 6;
  c.duration_hours = 0.5;
  c.max_sim_hours = 24.0;
  c.max_gpu_request = 3;
  return c;
}

TEST(FuzzGen, CaseIsAPureFunctionOfSeedAndIndex) {
  const auto names = registered_scheduler_names();
  const FuzzCase a = generate_case(7, 3, names);
  const FuzzCase b = generate_case(7, 3, names);
  EXPECT_EQ(serialize(a), serialize(b));
  // Different indices draw genuinely different scenarios.
  const FuzzCase c = generate_case(7, 4, names);
  EXPECT_NE(serialize(a), serialize(c));
  EXPECT_NE(a.trace_seed, c.trace_seed);
}

TEST(FuzzGen, ConsecutiveCasesCoverEverySchedulerAndStayInBounds) {
  const auto names = registered_scheduler_names();
  ASSERT_FALSE(names.empty());
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < names.size(); ++i) {
    const FuzzCase c = generate_case(7, i, names);
    seen.insert(c.scheduler);
    EXPECT_GE(c.servers, 1u);
    EXPECT_GE(c.gpus_per_server, 1);
    EXPECT_GE(c.num_jobs, 1u);
    EXPECT_GE(c.max_gpu_request, 1);
    EXPECT_LE(c.max_gpu_request, static_cast<int>(c.servers) * c.gpus_per_server);
    EXPECT_GT(c.duration_hours, 0.0);
    EXPECT_GT(c.max_sim_hours, 0.0);
  }
  EXPECT_EQ(seen.size(), names.size());
}

TEST(FuzzGen, RequestMirrorsCase) {
  FuzzCase c = tiny_case();
  c.inject_slot_leak = true;
  c.comm_memo_slots = 7;
  const RunRequest r = to_request(c);
  EXPECT_EQ(r.cluster.server_count, c.servers);
  EXPECT_EQ(r.cluster.gpus_per_server, c.gpus_per_server);
  EXPECT_TRUE(r.cluster.debug_slot_leak);
  EXPECT_TRUE(r.engine.audit.enabled);  // fuzz cases always run audited
  EXPECT_EQ(r.engine.seed, c.engine_seed);
  EXPECT_EQ(r.trace.seed, c.trace_seed);
  EXPECT_EQ(r.trace.num_jobs, c.num_jobs);
  EXPECT_EQ(r.scheduler, c.scheduler);
  EXPECT_EQ(r.mlfs_config.placement.comm_memo_slots, 7u);
}

TEST(FuzzSerde, RoundTripsThroughText) {
  const FuzzCase original = generate_case(42, 5, registered_scheduler_names());
  std::istringstream in("# a comment line\n" + serialize(original));
  const FuzzCase parsed = parse_fuzz_case(in);
  EXPECT_EQ(serialize(parsed), serialize(original));
}

TEST(FuzzSerde, RejectsUnknownKeysAndMalformedLines) {
  std::istringstream unknown("no_such_field=3\n");
  EXPECT_THROW(parse_fuzz_case(unknown), ContractViolation);
  std::istringstream malformed("servers\n");
  EXPECT_THROW(parse_fuzz_case(malformed), ContractViolation);
}

TEST(FuzzSerde, RejectsASeedWithTrailingJunk) {
  std::istringstream in("servers=2\ntrace_seed=3abc\n");
  try {
    parse_fuzz_case(in);
    ADD_FAILURE() << "accepted trace_seed=3abc";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fuzz case line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("field trace_seed: '3abc'"), std::string::npos) << what;
  }
}

TEST(FuzzSerde, RejectsOutOfRangeAndNegativeCountsAndBadFlags) {
  for (const char* line : {"servers=-1\n", "gpus_per_server=-4\n", "gpus_per_server=4294967296\n",
                           "slow_fraction=0.5x\n", "slow_fraction=-0.5\n", "recovery=yes\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(parse_fuzz_case(in), ContractViolation) << line;
  }
}

TEST(FuzzSerde, RejectsArtifactsNamingRemovedSwitches) {
  // The reference placement and cold-fit paths and the bucketed placement
  // index are gone; an old artifact that asks for one must fail loudly
  // instead of silently running the production path.
  for (const char* line : {"legacy_hot_path=1\n", "incremental_load_index=0\n",
                           "predict_enabled=0\n", "service_equivalence_check=1\n",
                           "placement_bucket_index=1\n"}) {
    std::istringstream in(std::string("servers=2\n") + line);
    try {
      parse_fuzz_case(in);
      ADD_FAILURE() << "accepted " << line;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key"), std::string::npos) << e.what();
    }
  }
}

TEST(FuzzRun, CleanCasePasses) {
  EXPECT_FALSE(run_fuzz_case(tiny_case()).has_value());
  EXPECT_FALSE(run_fuzz_case(tiny_case(), /*check_determinism=*/true).has_value());
}

TEST(FuzzRun, InjectedSlotLeakIsCaughtShrunkAndReplayable) {
  FuzzCase buggy = tiny_case();
  buggy.inject_slot_leak = true;

  // Caught: the auditor flags the usage-conservation invariant.
  const auto failure = run_fuzz_case(buggy);
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->invariant, "server-usage");

  // Shrunk: the minimal case still fails the SAME invariant and is no
  // larger than the original along every shrink axis.
  const ShrinkResult shrunk = shrink_case(buggy, *failure, /*max_rounds=*/4);
  EXPECT_EQ(shrunk.failure.invariant, "server-usage");
  EXPECT_LE(shrunk.minimal.num_jobs, buggy.num_jobs);
  EXPECT_LE(shrunk.minimal.servers, buggy.servers);
  EXPECT_GT(shrunk.attempts, 0);
  EXPECT_GT(shrunk.accepted, 0);

  // Replayable: the serialized minimal case reproduces the violation.
  std::istringstream in(serialize(shrunk.minimal));
  const FuzzCase replayed = parse_fuzz_case(in);
  const auto replay_failure = run_fuzz_case(replayed);
  ASSERT_TRUE(replay_failure.has_value());
  EXPECT_EQ(replay_failure->invariant, "server-usage");
}

TEST(FuzzSweep, SmallCleanSweepAcrossAllSchedulers) {
  FuzzSweepOptions options;
  options.seed = 7;
  options.runs = registered_scheduler_names().size();  // one case per scheduler
  std::size_t progressed = 0;
  options.progress = [&](std::size_t, const FuzzCase&, bool) { ++progressed; };
  const FuzzSweepOutcome outcome = run_fuzz_sweep(options);
  EXPECT_TRUE(outcome.clean());
  EXPECT_EQ(outcome.runs, options.runs);
  EXPECT_EQ(progressed, options.runs);
}

TEST(FuzzSweep, SelfTestModeSurfacesTheBug) {
  FuzzSweepOptions options;
  options.seed = 7;
  options.runs = 3;
  options.inject_slot_leak = true;
  options.max_failures = 1;
  options.shrink_rounds = 2;
  const FuzzSweepOutcome outcome = run_fuzz_sweep(options);
  ASSERT_FALSE(outcome.clean());
  EXPECT_EQ(outcome.failures.front().failure.invariant, "server-usage");
}

}  // namespace
}  // namespace mlfs::exp
