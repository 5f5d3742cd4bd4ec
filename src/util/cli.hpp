// Minimal command-line flag parsing shared by examples and bench harnesses.
//
// Supports `--name=value`, `--name value`, and boolean `--name`.  Unknown
// flags abort with a usage listing so experiment sweeps fail loudly rather
// than silently running default parameters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace recover::util {

class Cli {
 public:
  /// `description` is printed at the top of --help output.
  Cli(std::string program, std::string description);

  /// Registers a flag; returns *this for chaining.  Must precede parse().
  Cli& flag(std::string name, std::string help, std::string default_value);

  /// Parses argv, prints a one-line `## program — description` banner
  /// (experiment outputs are routinely concatenated), and exits on
  /// --help (0) or unknown flags (2).
  void parse(int argc, const char* const* argv);

  /// Like parse(), but unknown `--flag[=value]` tokens are collected and
  /// returned instead of aborting — for binaries that forward leftovers
  /// to another flag parser (bench_microbench → google-benchmark).
  std::vector<std::string> parse_known(int argc, const char* const* argv);

  [[nodiscard]] std::string str(const std::string& name) const;
  /// Numeric flags must parse as a whole token: on a malformed or
  /// out-of-range value (`x`, `2abc`) they print `bad value '...' for
  /// --name` with the usage and exit 2, like an unknown flag.
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  [[nodiscard]] bool boolean(const std::string& name) const;

  /// Duration flag in milliseconds: `500ms`, `2s`, `1.5s`, `1m`, or a
  /// bare number (taken as ms).  Exits with usage (2) on a malformed
  /// value so --deadline/--duration typos fail loudly before a run.
  [[nodiscard]] std::int64_t duration_ms(const std::string& name) const;

  /// Comma-separated integer list, e.g. --sizes=64,128,256; a bad item
  /// exits like a bad integer().
  [[nodiscard]] std::vector<std::int64_t> int_list(
      const std::string& name) const;

  [[nodiscard]] std::string usage() const;

  [[nodiscard]] const std::string& program() const { return program_; }
  [[nodiscard]] const std::string& description() const {
    return description_;
  }

  /// Every registered flag with its current (post-parse) value, in
  /// registration order — recorded verbatim by the obs run recorder.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> entries()
      const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string value;
  };

  [[nodiscard]] const Flag* find(const std::string& name) const;
  Flag* find(const std::string& name);
  [[noreturn]] void bad_value(const std::string& name,
                              const std::string& text) const;
  [[nodiscard]] std::int64_t parse_integer(const std::string& name,
                                           const std::string& text) const;
  std::vector<std::string> parse_impl(int argc, const char* const* argv,
                                      bool collect_unknown);

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
};

/// Parses a human duration into milliseconds: `500ms`, `2s`, `1.5s`,
/// `1m`, or a bare (possibly fractional) number meaning ms.  Fractions
/// are rounded to the nearest millisecond.  False on malformed input,
/// negative values, or overflow; `out` is untouched then.
bool parse_duration_ms(const std::string& text, std::int64_t& out);

}  // namespace recover::util
