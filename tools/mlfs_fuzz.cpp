// mlfs_fuzz — property-based fuzzer for the simulator. Draws N random
// scenarios (topology, DAG workload, fault process, scheduler) from a
// master seed, runs each one under the invariant auditor (sim/audit.hpp),
// and on failure greedily shrinks the case while the same invariant keeps
// failing. Each (shrunk) failure is written as a replayable key=value
// artifact that `mlfs_fuzz --replay FILE` re-executes.
//
// `--selftest` flips on the deliberate slot-leak bug
// (ClusterConfig::debug_slot_leak) in every case, proving end-to-end that
// the harness catches, shrinks, and reports a real conservation bug.
//
// Exit codes: 0 = all cases clean (for --selftest: bug caught), 1 =
// failures found (for --selftest: bug missed), 2 = usage error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "exp/fuzz.hpp"
#include "exp/registry.hpp"

namespace {

using namespace mlfs;

struct Options {
  std::uint64_t seed = 7;
  std::size_t runs = 100;
  std::vector<std::string> schedulers;  // empty = all registered
  bool determinism = false;
  bool selftest = false;
  unsigned threads = 0;
  int shrink_rounds = 8;
  std::size_t max_failures = 3;
  std::string replay_file;
  std::string out_dir;
  bool quiet = false;
};

void print_usage() {
  std::cout <<
      "mlfs_fuzz — audited property-based fuzzing of the MLFS simulator\n\n"
      "  --runs N             random scenarios to run (default 100)\n"
      "  --seed S             master seed; case i is a pure function of (S, i)\n"
      "  --scheduler NAME     restrict to NAME (repeatable; default: every\n"
      "                       registered scheduler, cycled across cases)\n"
      "  --determinism        run every case twice and require bitwise-equal\n"
      "                       metrics (seed stability)\n"
      "  --threads N          concurrent cases (default 0 = hardware concurrency;\n"
      "                       results do not depend on N)\n"
      "  --shrink-rounds N    max greedy shrink passes per failure (default 8)\n"
      "  --max-failures N     stop collecting failures after N (default 3)\n"
      "  --out-dir DIR        write each shrunk failure as DIR/fuzz-<seed>-<i>.case\n"
      "  --replay FILE        re-run one serialized case file and exit\n"
      "  --selftest           inject the known slot-leak bug into every case;\n"
      "                       exit 0 iff the auditor catches it\n"
      "  --quiet              suppress per-case progress\n"
      "  --list-schedulers    list registered schedulers and exit\n";
}

int replay(const Options& options) {
  std::ifstream in(options.replay_file);
  if (!in) {
    std::cerr << "cannot open " << options.replay_file << "\n";
    return 2;
  }
  const exp::FuzzCase c = exp::parse_fuzz_case(in);
  std::cout << exp::describe(c) << "\n";
  const auto failure = exp::run_fuzz_case(c, options.determinism);
  if (!failure) {
    std::cout << "replay: PASS (no invariant violation)\n";
    return 0;
  }
  std::cout << "replay: FAIL"
            << (failure->invariant.empty() ? "" : " [" + failure->invariant + "]") << "\n"
            << failure->what << "\n";
  return 1;
}

void write_artifact(const std::string& dir, const exp::ShrinkResult& r) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open() reports
  const exp::FuzzCase& c = r.minimal;
  const std::string path = dir + "/fuzz-" + std::to_string(c.master_seed) + "-" +
                           std::to_string(c.index) + ".case";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "# " << exp::describe(c) << "\n"
      << "# invariant: " << (r.failure.invariant.empty() ? "<exception>" : r.failure.invariant)
      << "\n"
      << "# replay: mlfs_fuzz --replay " << path << "\n"
      << exp::serialize(c);
  std::cout << "  artifact: " << path << "\n";
}

bool parse(int argc, char** argv, Options& options, int& exit_code) {
  exit_code = 0;
  try {
    cli::Args args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return false;
      } else if (arg == "--list" || arg == "--list-schedulers") {
        for (const auto& name : exp::registered_scheduler_names()) std::cout << name << "\n";
        return false;
      } else if (arg == "--runs") {
        options.runs = args.number<std::size_t>();
      } else if (arg == "--seed") {
        options.seed = args.number<std::uint64_t>();
      } else if (arg == "--scheduler") {
        options.schedulers.push_back(args.value());
      } else if (arg == "--determinism") {
        options.determinism = true;
      } else if (arg == "--selftest") {
        options.selftest = true;
      } else if (arg == "--threads") {
        options.threads = args.number<unsigned>();
      } else if (arg == "--shrink-rounds") {
        options.shrink_rounds = args.number<int>();
      } else if (arg == "--max-failures") {
        options.max_failures = args.number<std::size_t>();
      } else if (arg == "--out-dir") {
        options.out_dir = args.value();
      } else if (arg == "--replay") {
        options.replay_file = args.value();
      } else if (arg == "--quiet") {
        options.quiet = true;
      } else {
        throw cli::UsageError("unknown argument: " + arg);
      }
    }
    for (const auto& name : options.schedulers) {
      if (!exp::is_registered_scheduler(name)) {
        throw cli::UsageError("unknown scheduler: " + name + " (see --list-schedulers)");
      }
    }
  } catch (const cli::UsageError& e) {
    std::cerr << "mlfs_fuzz: " << e.what() << " (see --help)\n";
    exit_code = 2;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    int exit_code = 0;
    if (!parse(argc, argv, options, exit_code)) return exit_code;
    if (!options.replay_file.empty()) return replay(options);

    exp::FuzzSweepOptions sweep;
    sweep.seed = options.seed;
    sweep.runs = options.runs;
    sweep.schedulers = options.schedulers;
    sweep.check_determinism = options.determinism;
    sweep.inject_slot_leak = options.selftest;
    sweep.shrink_rounds = options.shrink_rounds;
    sweep.max_failures = options.max_failures;
    sweep.threads = options.threads;
    if (!options.quiet) {
      sweep.progress = [](std::size_t, const exp::FuzzCase& c, bool failed) {
        std::cout << (failed ? "FAIL " : "ok   ") << exp::describe(c) << "\n";
      };
    }

    const exp::FuzzSweepOutcome outcome = exp::run_fuzz_sweep(sweep);
    std::cout << "\n" << outcome.runs << " cases, " << outcome.failures.size()
              << " failure(s)\n";
    for (const exp::ShrinkResult& r : outcome.failures) {
      std::cout << "\nFAILURE ["
                << (r.failure.invariant.empty() ? "<exception>" : r.failure.invariant)
                << "] shrunk from case " << r.failure.failing_case.master_seed << "/"
                << r.failure.failing_case.index << " (" << r.accepted << "/" << r.attempts
                << " transforms accepted)\n"
                << "  " << exp::describe(r.minimal) << "\n"
                << "  " << r.failure.what << "\n"
                << "  replay with --seed/--index via the serialized case:\n";
      std::istringstream dump(exp::serialize(r.minimal));
      for (std::string line; std::getline(dump, line);) std::cout << "    " << line << "\n";
      if (!options.out_dir.empty()) write_artifact(options.out_dir, r);
    }

    if (options.selftest) {
      // Self-test succeeds iff the injected bug was caught as a
      // conservation violation.
      bool caught = false;
      for (const exp::ShrinkResult& r : outcome.failures) {
        if (r.failure.invariant == "server-usage" || r.failure.invariant == "slot-conservation") {
          caught = true;
        }
      }
      std::cout << (caught ? "\nselftest: injected slot leak caught\n"
                           : "\nselftest: injected slot leak NOT caught\n");
      return caught ? 0 : 1;
    }
    return outcome.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
