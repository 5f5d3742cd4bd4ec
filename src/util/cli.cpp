#include "src/util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/util/assert.hpp"

namespace recover::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Cli& Cli::flag(std::string name, std::string help, std::string default_value) {
  RL_REQUIRE(find(name) == nullptr);
  flags_.push_back({std::move(name), std::move(help),
                    std::move(default_value)});
  return *this;
}

const Cli::Flag* Cli::find(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Cli::Flag* Cli::find(const std::string& name) {
  return const_cast<Flag*>(static_cast<const Cli*>(this)->find(name));
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\nFlags:\n";
  for (const auto& f : flags_) {
    os << "  --" << f.name << "  " << f.help << " (default: " << f.value
       << ")\n";
  }
  return os.str();
}

std::vector<std::string> Cli::parse_impl(int argc, const char* const* argv,
                                         bool collect_unknown) {
  // Banner: experiment outputs are frequently concatenated (e.g.
  // `for b in build/bench/*; do $b; done | tee ...`), so each program
  // announces itself first.
  std::printf("## %s — %s\n", program_.c_str(), description_.c_str());
  std::vector<std::string> unknown;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      if (collect_unknown) {
        unknown.push_back(arg);
        continue;
      }
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage().c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool have_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    Flag* f = find(name);
    if (f == nullptr) {
      if (collect_unknown) {
        // Forwarded parsers use the --name=value form; the token is
        // passed through untouched.
        unknown.push_back(argv[i]);
        continue;
      }
      std::fprintf(stderr, "unknown flag '--%s'\n%s", name.c_str(),
                   usage().c_str());
      std::exit(2);
    }
    if (!have_value) {
      // `--name value` form, unless the next token is another flag (then
      // the flag is treated as boolean `true`).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    f->value = value;
  }
  return unknown;
}

void Cli::parse(int argc, const char* const* argv) {
  (void)parse_impl(argc, argv, /*collect_unknown=*/false);
}

std::vector<std::string> Cli::parse_known(int argc, const char* const* argv) {
  return parse_impl(argc, argv, /*collect_unknown=*/true);
}

std::vector<std::pair<std::string, std::string>> Cli::entries() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(flags_.size());
  for (const auto& f : flags_) out.emplace_back(f.name, f.value);
  return out;
}

std::string Cli::str(const std::string& name) const {
  const Flag* f = find(name);
  RL_REQUIRE(f != nullptr);
  return f->value;
}

void Cli::bad_value(const std::string& name, const std::string& text) const {
  std::fprintf(stderr, "bad value '%s' for --%s\n%s", text.c_str(),
               name.c_str(), usage().c_str());
  std::exit(2);
}

std::int64_t Cli::parse_integer(const std::string& name,
                                const std::string& text) const {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size()) {
    bad_value(name, text);
  }
  return value;
}

std::int64_t Cli::integer(const std::string& name) const {
  return parse_integer(name, str(name));
}

double Cli::real(const std::string& name) const {
  const std::string text = str(name);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size()) {
    bad_value(name, text);
  }
  return value;
}

bool Cli::boolean(const std::string& name) const {
  const std::string v = str(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::int64_t Cli::duration_ms(const std::string& name) const {
  std::int64_t out = 0;
  if (!parse_duration_ms(str(name), out)) {
    std::fprintf(stderr,
                 "bad duration '%s' for --%s (want e.g. 500ms, 2s, 1m)\n%s",
                 str(name).c_str(), name.c_str(), usage().c_str());
    std::exit(2);
  }
  return out;
}

bool parse_duration_ms(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  std::size_t suffix_start = text.size();
  double scale = 1.0;  // bare number = ms
  if (text.size() >= 2 && text.compare(text.size() - 2, 2, "ms") == 0) {
    suffix_start = text.size() - 2;
    scale = 1.0;
  } else if (text.back() == 's') {
    suffix_start = text.size() - 1;
    scale = 1000.0;
  } else if (text.back() == 'm') {
    suffix_start = text.size() - 1;
    scale = 60'000.0;
  }
  const std::string number = text.substr(0, suffix_start);
  if (number.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(number.c_str(), &end);
  if (errno != 0 || end != number.c_str() + number.size()) return false;
  if (value < 0.0 || !(value == value)) return false;  // negative or NaN
  const double ms = value * scale;
  if (ms > 9.2e18) return false;  // would overflow int64 ns-free math
  out = static_cast<std::int64_t>(ms + 0.5);
  return true;
}

std::vector<std::int64_t> Cli::int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(str(name));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_integer(name, item));
  }
  return out;
}

}  // namespace recover::util
