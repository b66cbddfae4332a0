// Argument cursor shared by the command-line tools. Every malformed command
// line — an unknown flag, a missing value, a number that does not parse
// whole (parse_number), a bad --fsync policy — is a UsageError, which each
// tool reports and turns into exit code 2; --help and --list exit 0.
#pragma once

#include <stdexcept>
#include <string>

#include "common/parse.hpp"
#include "sim/journal.hpp"

namespace mlfs::cli {

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next flag; false past the last argument.
  bool next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    return true;
  }
  const std::string& flag() const { return flag_; }

  /// The current flag's value: the next argument.
  std::string value() {
    if (i_ + 1 >= argc_) throw UsageError("missing value for " + flag_);
    return argv_[++i_];
  }

  /// The current flag's value, parsed whole as a T.
  template <class T>
  T number() {
    const std::string text = value();
    try {
      return parse_number<T>(text, flag_);
    } catch (const ContractViolation& e) {
      throw UsageError(e.what());
    }
  }

  FsyncPolicy fsync() {
    const std::string policy = value();
    if (policy == "every") return FsyncPolicy::EveryRecord;
    if (policy == "group") return FsyncPolicy::GroupCommit;
    if (policy == "off") return FsyncPolicy::Off;
    throw UsageError(flag_ + " takes every | group | off");
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
};

}  // namespace mlfs::cli
