// The one command-line grammar shared by every bench and example binary.
//
//   ParseInt / ParseDouble  strict whole-token numbers: "5x", " 5", "",
//                           "nan", "inf" and out-of-range values throw
//                           std::invalid_argument naming the flag and
//                           the token.
//   ObsFlags                the five shared observability flags (see
//                           ObsFlags::kUsage), their activation, and the
//                           file writes on exit.
//   RunMain                 the one place a binary's exceptions end up:
//                           "prog: what" on one stderr line, exit 2.
//
// Failure contract: bad input (unknown flag, malformed or out-of-range
// value, a library precondition) exits 2; a requested output file that
// cannot be written exits 1.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace leosim::core {

// Parses all of `text` as a base-10 integer in [lo, hi].
int ParseInt(std::string_view flag, std::string_view text, int lo, int hi);
// Parses all of `text` as a finite decimal number in [lo, hi].
double ParseDouble(std::string_view flag, std::string_view text, double lo,
                   double hi);

// The VALUE of `arg` when it reads "<name>=VALUE", else nullopt.
std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view name);

class ObsFlags {
 public:
  static constexpr const char* kUsage =
      "--metrics-out=F --trace-out=F --timeseries-out=F --profile-out=F "
      "--progress[=SEC]";

  // Consumes `arg` when it is one of the five flags (throws on a bad
  // value); returns false for anything else.
  bool Take(std::string_view arg);
  // Arms tracing, timeseries, the profiler and progress as requested.
  // Call once, before the timed work.
  void Apply() const;
  // Writes every requested file, noting each on stderr as
  // "<note_prefix>wrote F" (so stdout does not depend on the paths) and
  // each failure as "cannot write F". Returns 1 if any write failed,
  // else 0.
  int WriteOutputs(std::string_view note_prefix) const;

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string timeseries_out_;
  std::string profile_out_;
  std::optional<double> progress_sec_;
};

// Returns body(argc, argv); an escaping std::exception is printed as
// "<basename of argv[0]>: <what>" on one stderr line and yields 2.
int RunMain(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace leosim::core
