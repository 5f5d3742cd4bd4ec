// perfbench_harness — the benchmark's in-process side (perfbench/README.md).
//
//   perfbench_harness orient      n=10 trials=400 max_pairs=6 seed=5 out=F
//   perfbench_harness coalescence exp=exp01 grid=G seed=S threads=2 out=F
//   perfbench_harness kernel      exp=exp10 grid=G seed=S steps=N out=F
//   perfbench_harness client      port=P conns=2 seconds=10 ... out=F
//
// Each subcommand replays a workload's inputs through recoverlib's public
// functions and writes one JSON object to `out`: per-call timings of a
// layer (the traced run's per-layer numbers) and the raw data the output
// checks in perfbench/checks.py judge (per-replica meeting times,
// distances, reply bytes).  The harness judges nothing itself; it adds
// no instrumentation to the library and only reads what the library
// already returns.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/balls/grand_coupling.hpp"
#include "src/balls/rbb.hpp"
#include "src/balls/scenario_a.hpp"
#include "src/balls/scenario_b.hpp"
#include "src/cluster/cache.hpp"
#include "src/cluster/digest.hpp"
#include "src/core/coalescence.hpp"
#include "src/kernel/kernel.hpp"
#include "src/obs/json_writer.hpp"
#include "src/orient/coupling.hpp"
#include "src/rng/engines.hpp"
#include "src/serve/handlers.hpp"
#include "src/serve/protocol.hpp"
#include "src/sweep/grid.hpp"

namespace {

using namespace recover;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

/// key=value arguments; every value is validated where it is read.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos || eq == 0) die("bad argument '" + arg + "'");
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }

  [[nodiscard]] std::string str(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) die("missing argument " + name + "=");
    return it->second;
  }

  [[nodiscard]] std::int64_t integer(const std::string& name) const {
    const std::string text = str(name);
    std::int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) {
      die("argument " + name + "= wants an integer, got '" + text + "'");
    }
    return value;
  }

  [[nodiscard]] double real(const std::string& name) const {
    const std::string text = str(name);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !std::isfinite(value)) {
      die("argument " + name + "= wants a number, got '" + text + "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) die("cannot write " + path);
}

std::string num(double v) { return obs::json_number(v); }
std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += obs::json_escape(s);
  out += '"';
  return out;
}

// ---------------------------------------------------------------- orient

/// Shortest path from x to y over the Γ-graph of Definition 6.3, built
/// only from gbar_neighbors (weight 1) and sbar_neighbors (weight k);
/// -1 when it exceeds `limit`.  Written apart from
/// orient::orientation_distance so the two can be compared.
std::int64_t gamma_graph_distance(const orient::CountState& x,
                                  const orient::CountState& y,
                                  std::int64_t limit) {
  using Item = std::pair<std::int64_t, orient::CountState>;
  auto later = [](const Item& a, const Item& b) { return a.first > b.first; };
  std::priority_queue<Item, std::vector<Item>, decltype(later)> frontier(
      later);
  std::map<orient::CountState, std::int64_t> best;
  best.emplace(x, 0);
  frontier.emplace(0, x);
  while (!frontier.empty()) {
    auto [d, s] = frontier.top();
    frontier.pop();
    if (d > limit) return -1;
    if (s == y) return d;
    if (best.at(s) < d) continue;
    auto relax = [&](const orient::CountState& t, std::int64_t w) {
      const std::int64_t nd = d + w;
      if (nd > limit) return;
      const auto it = best.find(t);
      if (it != best.end() && it->second <= nd) return;
      best[t] = nd;
      frontier.emplace(nd, t);
    };
    for (const auto& t : orient::gbar_neighbors(s)) relax(t, 1);
    for (const auto& [t, k] : orient::sbar_neighbors(s)) relax(t, k);
  }
  return -1;
}

std::int64_t program_distance(const orient::CountState& x,
                              const orient::CountState& y,
                              std::int64_t limit) {
  const auto d = orient::orientation_distance(x, y, limit);
  return d.has_value() ? *d : -1;
}

/// One unit of exp05 (a single n), replayed in-process with exp05's own
/// seeding.  Every post-step distance is recomputed with the harness's
/// own Γ-graph search, so checks.py can rebuild exp05's printed rows from
/// the replay.  Times the coupled step and, separately, the distance
/// oracle on the very pairs the steps produced.
int run_orient(const Args& args) {
  const std::int64_t n = args.integer("n");
  const auto trials = args.integer("trials");
  const auto max_pairs = static_cast<std::size_t>(args.integer("max_pairs"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const auto samples = static_cast<std::size_t>(args.integer("samples"));
  if (n < 4 || trials < 1) die("orient wants n >= 4 and trials >= 1");

  rng::Xoshiro256PlusPlus eng(seed + static_cast<std::uint64_t>(n));
  std::vector<std::int64_t> diffs(static_cast<std::size_t>(n), 0);
  std::int64_t level = n / 2;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n) / 2 && level > 0;
       ++i, --level) {
    diffs[i] = level;
    diffs[static_cast<std::size_t>(n) - 1 - i] = -level;
  }
  const orient::CountState x0 = orient::CountState::from_diff_state(
      orient::DiffState::from_diffs(diffs), 3);

  struct Pair {
    const char* set;
    orient::CountState y0;
    std::int64_t k;
  };
  std::vector<Pair> pairs;
  for (const auto& y : orient::gbar_neighbors(x0)) {
    if (pairs.size() >= max_pairs) break;
    pairs.push_back(Pair{"Gbar", y, 1});
  }
  std::size_t sbar = 0;
  for (const auto& [y, k] : orient::sbar_neighbors(x0)) {
    if (sbar++ >= max_pairs) break;
    pairs.push_back(Pair{"Sbar", y, k});
  }

  struct After {
    orient::CountState x, y;
    std::int64_t k;
  };
  std::vector<After> after;
  after.reserve(pairs.size() * static_cast<std::size_t>(trials));
  const auto steps_begin = Clock::now();
  for (const auto& p : pairs) {
    for (std::int64_t t = 0; t < trials; ++t) {
      orient::CountState x = x0, y = p.y0;
      orient::coupled_step_orientation_traced(x, y, eng);
      after.push_back(After{std::move(x), std::move(y), p.k});
    }
  }
  const double steps_s = seconds_since(steps_begin);

  const auto dist_begin = Clock::now();
  for (const auto& a : after) program_distance(a.x, a.y, a.k + 2);
  const double dist_s = seconds_since(dist_begin);
  const auto steps = static_cast<double>(after.size());

  std::ostringstream out;
  out << "{\"n\":" << n << ",\"steps\":" << after.size()
      << ",\"coupled_step_ns\":" << num(steps_s * 1e9 / steps)
      << ",\"distance_ns\":" << num(dist_s * 1e9 / steps) << ",\"pairs\":[";
  // Post-step distances by the harness's own search, pair by pair in
  // exp05's order.
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    out << (p ? "," : "") << "{\"set\":\"" << pairs[p].set
        << "\",\"k\":" << pairs[p].k << ",\"d\":[";
    for (std::int64_t t = 0; t < trials; ++t) {
      const auto& a = after[p * static_cast<std::size_t>(trials) +
                            static_cast<std::size_t>(t)];
      out << (t ? "," : "") << gamma_graph_distance(a.x, a.y, a.k + 2);
    }
    out << "]}";
  }
  out << "],\"samples\":[";
  // The Γ-pairs themselves, then post-step pairs spread over the unit.
  std::vector<After> picked;
  for (const auto& p : pairs) picked.push_back(After{x0, p.y0, p.k});
  const std::size_t stride = std::max<std::size_t>(1, after.size() / samples);
  for (std::size_t i = 0; i < after.size(); i += stride) {
    picked.push_back(after[i]);
  }
  for (std::size_t i = 0; i < picked.size(); ++i) {
    const auto& a = picked[i];
    const std::int64_t limit = a.k + 2;
    out << (i ? "," : "") << "{\"k\":" << a.k
        << ",\"equal\":" << (a.x == a.y ? "true" : "false")
        << ",\"d_xy\":" << program_distance(a.x, a.y, limit)
        << ",\"d_yx\":" << program_distance(a.y, a.x, limit)
        << ",\"d_xx\":" << program_distance(a.x, a.x, limit)
        << ",\"own\":" << gamma_graph_distance(a.x, a.y, limit) << "}";
  }
  out << "]}";
  write_file(args.str("out"), out.str());
  return 0;
}

// ----------------------------------------------------------- coalescence

// The start pair and estimator options of the exp01 / exp22 sweep cells
// (src/sweep/cells_builtin.cpp), rebuilt here so each replica's meeting
// time is visible; checks.py confirms the summary equals sweep_runner's.
struct CellPlan {
  std::int64_t m = 0;
  std::int64_t n = 0;
  int d = 1;
  core::CoalescenceOptions opts;
};

CellPlan plan_cell(const std::string& exp, const sweep::Cell& cell,
                   std::uint64_t cell_seed) {
  CellPlan p;
  p.opts.replicas = static_cast<int>(cell.get("replicas", 8));
  p.opts.seed = cell_seed;
  p.opts.parallel = false;
  if (exp == "exp01") {
    p.m = cell.at("m");
    p.d = static_cast<int>(cell.at("d"));
    p.n = std::max<std::int64_t>(2, p.m / cell.get("density", 1));
    p.opts.max_steps =
        200 * p.m *
        (1 + static_cast<std::int64_t>(std::log(static_cast<double>(p.m))));
    p.opts.check_interval = std::max<std::int64_t>(1, p.m / 8);
  } else if (exp == "exp22") {
    p.n = cell.at("n");
    p.d = static_cast<int>(cell.get("d", 1));
    p.m = cell.get("density", 2) * p.n;
    const double nd = static_cast<double>(p.n);
    p.opts.max_steps =
        static_cast<std::int64_t>(400.0 * (nd * std::log(nd) + nd));
    p.opts.check_interval = std::max<std::int64_t>(1, p.n / 8);
  } else {
    die("coalescence supports exp01 and exp22, not " + exp);
  }
  return p;
}

std::vector<std::int64_t> replica_times(const std::string& exp,
                                        const CellPlan& p) {
  const auto n = static_cast<std::size_t>(p.n);
  if (exp == "exp01") {
    return core::run_coalescence_trials(
        [&](std::uint64_t) {
          return balls::GrandCouplingA<balls::AbkuRule>(
              balls::LoadVector::all_in_one(n, p.m),
              balls::LoadVector::balanced(n, p.m), balls::AbkuRule(p.d));
        },
        p.opts);
  }
  return core::run_coalescence_trials(
      [&](std::uint64_t) {
        return balls::GrandCouplingRBB<balls::AbkuRule>(
            balls::LoadVector::all_in_one(n, p.m),
            balls::LoadVector::balanced(n, p.m), balls::AbkuRule(p.d));
      },
      p.opts);
}

int run_coalescence(const Args& args) {
  const std::string exp = args.str("exp");
  const auto grid = sweep::GridSpec::parse(args.str("grid"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const auto threads = std::max<std::int64_t>(1, args.integer("threads"));
  const auto cells = grid.cells();

  std::vector<std::string> rows(cells);
  std::atomic<std::uint64_t> next{0};
  auto worker = [&] {
    for (std::uint64_t i = next++; i < cells; i = next++) {
      const sweep::Cell cell = grid.cell(i);
      const CellPlan p = plan_cell(exp, cell, rng::substream(seed, i));
      const auto times = replica_times(exp, p);
      const auto summary = core::summarize_coalescence(times, p.opts.max_steps);
      std::ostringstream row;
      row << "{\"key\":" << quoted(cell.key()) << ",\"m\":" << p.m
          << ",\"n\":" << p.n << ",\"d\":" << p.d
          << ",\"check_interval\":" << p.opts.check_interval
          << ",\"max_steps\":" << p.opts.max_steps
          << ",\"T_mean\":" << num(summary.steps.mean())
          << ",\"T_q50\":" << num(summary.q50)
          << ",\"T_q95\":" << num(summary.q95) << ",\"times\":[";
      for (std::size_t r = 0; r < times.size(); ++r) {
        row << (r ? "," : "") << times[r];
      }
      row << "]}";
      rows[i] = row.str();
    }
  };
  std::vector<std::thread> pool;
  for (std::int64_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();

  std::string out = "{\"cells\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ',';
    out += rows[i];
  }
  out += "]}";
  write_file(args.str("out"), out);
  return 0;
}

// ---------------------------------------------------------------- kernel

/// ns per step of kernel::advance on `obj` in scalar mode, advancing
/// `steps` steps in bursts of `burst` (the cell's own polling interval).
template <typename Obj>
double time_scalar_advance(Obj obj, std::uint64_t seed, std::int64_t steps,
                           std::int64_t burst) {
  const kernel::Mode previous = kernel::set_mode(kernel::Mode::kScalar);
  rng::Xoshiro256PlusPlus eng(seed);
  const auto begin = Clock::now();
  for (std::int64_t t = 0; t < steps; t += burst) {
    kernel::advance(obj, eng, std::min(burst, steps - t));
  }
  const double s = seconds_since(begin);
  kernel::set_mode(previous);
  return s * 1e9 / static_cast<double>(steps);
}

/// Scalar-mode cost of the chain step from the start states of a
/// workload's cells (exp01 / exp22 extremal pairs, exp10 balanced
/// chains), the baseline the batched kernel is read against.
int run_kernel(const Args& args) {
  const std::string exp = args.str("exp");
  const auto grid = sweep::GridSpec::parse(args.str("grid"));
  const auto seed = static_cast<std::uint64_t>(args.integer("seed"));
  const std::int64_t steps = args.integer("steps");
  if (steps < 1) die("kernel wants steps >= 1");
  double scalar_ns = 0;
  double probes = 0;
  for (std::uint64_t i = 0; i < grid.cells(); ++i) {
    const sweep::Cell cell = grid.cell(i);
    const std::uint64_t s = rng::substream(seed, i);
    auto probe = [&](const auto& obj, std::int64_t burst) {
      scalar_ns += time_scalar_advance(obj, s, steps, burst);
      ++probes;
    };
    if (exp == "exp01" || exp == "exp22") {
      const CellPlan p = plan_cell(exp, cell, s);
      const auto n = static_cast<std::size_t>(p.n);
      const auto x = balls::LoadVector::all_in_one(n, p.m);
      const auto y = balls::LoadVector::balanced(n, p.m);
      if (exp == "exp01") {
        probe(balls::GrandCouplingA<balls::AbkuRule>(x, y,
                                                    balls::AbkuRule(p.d)),
             p.opts.check_interval);
      } else {
        probe(balls::GrandCouplingRBB<balls::AbkuRule>(x, y,
                                                      balls::AbkuRule(p.d)),
             p.opts.check_interval);
      }
    } else if (exp == "exp10") {
      const std::int64_t n = cell.at("n");
      const auto d = static_cast<int>(cell.at("d"));
      const auto start =
          balls::LoadVector::balanced(static_cast<std::size_t>(n), n);
      const std::int64_t burst = std::max<std::int64_t>(1, n / 4);
      probe(balls::ScenarioAChain<balls::AbkuRule>(start, balls::AbkuRule(d)),
           burst);
      probe(balls::ScenarioBChain<balls::AbkuRule>(start, balls::AbkuRule(d)),
           burst);
    } else {
      die("kernel supports exp01, exp22 and exp10, not " + exp);
    }
  }
  std::ostringstream out;
  out << "{\"scalar_ns_per_step\":" << num(scalar_ns / probes) << "}";
  write_file(args.str("out"), out.str());
  return 0;
}

// ---------------------------------------------------------------- client

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The request mix of the serve workload: request i is a pure function
/// of (seed, i) — a run_cell whose cell seed is a Zipf rank over
/// `key_space` keys.
class RequestMix {
 public:
  RequestMix(const Args& args)
      : seed_(static_cast<std::uint64_t>(args.integer("seed"))),
        cell_(args.str("cell")) {
    const auto key_space = static_cast<std::size_t>(args.integer("key_space"));
    const double s = args.real("zipf");
    if (key_space < 1 || !(s > 0)) die("client wants key_space >= 1, zipf > 0");
    cdf_.resize(key_space);
    double mass = 0;
    for (std::size_t r = 0; r < key_space; ++r) {
      mass += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = mass;
    }
    for (double& c : cdf_) c /= mass;
  }

  /// The run_cell key (cell seed, >= 1) of request i.
  [[nodiscard]] std::uint64_t key(std::uint64_t i) const {
    const std::uint64_t draw = rng::substream(seed_, i);
    const double u =
        static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
    return static_cast<std::uint64_t>(
               std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()) +
           1;
  }

  /// The request line: a run_cell of `key`, or a ping for key 0.
  [[nodiscard]] std::string line(std::uint64_t id, std::uint64_t key) const {
    std::string out = "{\"schema\":\"recover.req/1\",\"id\":" +
                      std::to_string(id) + ",\"method\":";
    if (key == 0) return out + "\"ping\"}";
    return out + "\"run_cell\",\"params\":{\"exp\":\"exp01\",\"seed\":" +
           std::to_string(key) + ",\"params\":" + cell_ + "}}";
  }

 private:
  std::uint64_t seed_;
  std::string cell_;
  std::vector<double> cdf_;
};

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    die("cannot connect to port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One closed-loop connection: send a line, wait for its reply line.
class Conn {
 public:
  explicit Conn(int port) : fd_(connect_to(port)) {}
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// False on a transport failure.
  bool call(const std::string& request, std::string& reply) {
    const std::string framed = request + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t k = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return false;
      sent += static_cast<std::size_t>(k);
    }
    for (;;) {
      if (reader_.next_line(reply) == serve::LineReader::Next::kLine) {
        return true;
      }
      char buf[16384];
      const ssize_t k = ::recv(fd_, buf, sizeof buf, 0);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) return false;
      reader_.feed(buf, static_cast<std::size_t>(k));
    }
  }

 private:
  int fd_;
  serve::LineReader reader_;
};

struct Sample {
  std::uint64_t index;
  std::uint64_t key;
  double latency_us;
  double done_s;  // completion time since the timed phase began
  bool ok;
};

/// Closed loop over `conns` connections: a warm-up of `warmup` requests,
/// then a timed phase of `seconds`.  Afterwards every distinct run_cell
/// request is run through serve::dispatch in-process for the reply check
/// (timed: serve.dispatch_us).  With probes=1, `pings` pings follow on
/// one connection (the wire round trip of a request the router answers
/// itself), and the parse, ping and cache layers are timed in-process on
/// the run's request sequence.
int run_client(const Args& args) {
  const auto port = static_cast<int>(args.integer("port"));
  const auto conns = args.integer("conns");
  const double seconds = args.real("seconds");
  const auto warmup = static_cast<std::uint64_t>(args.integer("warmup"));
  const bool probes = args.integer("probes") != 0;
  const auto probe_pings = probes ? args.integer("pings") : 0;
  const RequestMix mix(args);
  if (conns < 1 || conns > 64) die("client wants 1..64 connections");

  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed_transport{false};
  std::mutex mutex;  // guards replies and samples
  std::map<std::uint64_t, std::set<std::string>> replies;
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t ok_total = 0;
  std::uint64_t run_cells = 0;

  auto loop = [&](Conn& conn, std::uint64_t end_index, double until_s,
                  Clock::time_point t0, bool timed) {
    std::string reply, result;
    std::vector<Sample> mine;
    std::map<std::uint64_t, std::set<std::string>> seen;
    std::uint64_t sent = 0, ok = 0;
    for (;;) {
      if (timed && seconds_since(t0) >= until_s) break;
      const std::uint64_t i = next++;
      if (!timed && i >= end_index) break;
      const std::uint64_t key = mix.key(i);
      const std::string line = mix.line(i, key);
      const std::uint64_t begin = now_ns();
      const bool delivered = conn.call(line, reply);
      const std::uint64_t end = now_ns();
      ++sent;
      if (!delivered) {
        failed_transport = true;
        break;
      }
      const bool is_ok = serve::extract_result(reply, result);
      if (is_ok) {
        ++ok;
        seen[key].insert(result);
      }
      if (timed) {
        mine.push_back(Sample{
            i, key, static_cast<double>(end - begin) / 1e3,
            std::chrono::duration<double>(Clock::now() - t0).count(), is_ok});
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    attempted += sent;
    ok_total += ok;
    run_cells += sent;
    for (auto& [k, v] : seen) replies[k].insert(v.begin(), v.end());
    samples.insert(samples.end(), mine.begin(), mine.end());
  };

  std::vector<std::unique_ptr<Conn>> connections;
  for (std::int64_t c = 0; c < conns; ++c) {
    connections.push_back(std::make_unique<Conn>(port));
  }
  auto phase = [&](bool timed) {
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (auto& c : connections) {
      threads.emplace_back(
          [&, conn = c.get()] { loop(*conn, warmup, seconds, t0, timed); });
    }
    for (auto& t : threads) t.join();
  };
  phase(false);
  phase(true);
  std::vector<double> ping_us;
  {
    std::string reply;
    const std::string ping = mix.line(0, 0);
    for (std::int64_t r = 0; r < probe_pings; ++r) {
      const std::uint64_t begin = now_ns();
      const bool delivered = connections[0]->call(ping, reply);
      const std::uint64_t end = now_ns();
      ++attempted;
      if (!delivered) {
        failed_transport = true;
        break;
      }
      if (reply.find("\"ok\":true") != std::string::npos) ++ok_total;
      ping_us.push_back(static_cast<double>(end - begin) / 1e3);
    }
  }
  connections.clear();

  // Reply check data: every distinct run_cell, dispatched in-process.
  serve::HandlerContext local;
  local.cells_parallel = false;
  std::ostringstream cells_json;
  double dispatch_s = 0;
  std::size_t dispatched = 0;
  for (const auto& [key, seen] : replies) {
    serve::Request req;
    if (!serve::parse_request(mix.line(0, key), req).ok) die("bad request");
    const auto begin = Clock::now();
    const serve::HandlerResult res = serve::dispatch(req, local);
    dispatch_s += seconds_since(begin);
    ++dispatched;
    cells_json << (dispatched > 1 ? "," : "") << "{\"key\":" << key
               << ",\"local\":" << quoted(res.ok ? res.result_json : "")
               << ",\"replies\":[";
    std::size_t r = 0;
    for (const auto& text : seen) cells_json << (r++ ? "," : "") << quoted(text);
    cells_json << "]}";
  }

  std::ostringstream out;
  out << "{\"attempted\":" << attempted << ",\"ok\":" << ok_total
      << ",\"run_cells\":" << run_cells
      << ",\"transport_failed\":" << (failed_transport ? "true" : "false")
      << ",\"distinct_keys\":" << replies.size() << ",\"dispatch_us\":"
      << num(dispatched ? dispatch_s * 1e6 / static_cast<double>(dispatched)
                        : 0.0);

  if (probes) {
    // Request lines of the timed phase, in index order.
    std::sort(samples.begin(), samples.end(),
              [](const Sample& a, const Sample& b) { return a.index < b.index; });
    std::vector<std::string> lines;
    for (const auto& s : samples) lines.push_back(mix.line(s.index, s.key));
    serve::Request req;
    auto begin = Clock::now();
    for (const auto& l : lines) {
      if (!serve::parse_request(l, req).ok) die("bad request line");
    }
    out << ",\"parse_ns\":"
        << num(seconds_since(begin) * 1e9 / static_cast<double>(lines.size()));
    serve::Request ping;
    serve::parse_request(mix.line(0, 0), ping);
    const int ping_reps = 20000;
    begin = Clock::now();
    for (int r = 0; r < ping_reps; ++r) serve::dispatch(ping, local);
    out << ",\"ping_dispatch_us\":"
        << num(seconds_since(begin) * 1e6 / ping_reps);
    std::sort(ping_us.begin(), ping_us.end());
    out << ",\"ping_p50_us\":"
        << num(ping_us.empty() ? 0.0 : ping_us[ping_us.size() / 2]);
    // The router's cache on the run_cell key sequence of the run.
    cluster::ResultCache cache(
        static_cast<std::size_t>(args.integer("cache_entries")));
    std::vector<std::string> keys;
    for (const auto& s : samples) {
      serve::parse_request(mix.line(s.index, s.key), req);
      serve::RunCellRequest parsed;
      std::string error;
      if (!serve::parse_run_cell(req.params, parsed, error)) die(error);
      keys.push_back(cluster::cache_key(parsed));
    }
    const std::string value = replies.empty() ? std::string(200, 'x')
                                              : *replies.begin()->second.begin();
    std::string got;
    double get_s = 0;
    for (const auto& k : keys) {
      const auto t = Clock::now();
      const bool hit = cache.get(k, got);
      get_s += seconds_since(t);
      if (!hit) cache.put(k, value);
    }
    out << ",\"cache_get_ns\":"
        << num(keys.empty() ? 0.0
                            : get_s * 1e9 / static_cast<double>(keys.size()));
  }

  out << ",\"latency_us\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << (i ? "," : "") << num(samples[i].latency_us);
  }
  out << "],\"done_s\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << (i ? "," : "") << num(samples[i].done_s);
  }
  out << "],\"sample_ok\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << (i ? "," : "") << (samples[i].ok ? 1 : 0);
  }
  out << "],\"cells\":[" << cells_json.str() << "]}";
  write_file(args.str("out"), out.str());
  return 0;
}

// ------------------------------------------------------------------ exec

/// perfbench_harness exec REPORT PROGRAM ARGS...: runs PROGRAM with the
/// harness's stdio and writes its wall time and peak RSS to REPORT.  A
/// child's peak RSS includes the image of the process that spawned it,
/// so the small harness spawns the programs whose RSS run.py reports.
int run_exec(int argc, char** argv) {
  if (argc < 4) die("usage: perfbench_harness exec REPORT PROGRAM ARGS...");
  const auto begin = Clock::now();
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[3], nullptr, nullptr, &argv[3], environ) != 0) {
    die(std::string("cannot start ") + argv[3]);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) die("wait4 failed");
  std::ostringstream out;
  out << "{\"wall_s\":" << num(seconds_since(begin))
      << ",\"maxrss_kb\":" << usage.ru_maxrss << "}";
  write_file(argv[2], out.str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    die("usage: perfbench_harness <orient|coalescence|kernel|client|exec> ...");
  }
  const std::string command = argv[1];
  if (command == "exec") return run_exec(argc, argv);
  const Args args(argc, argv);
  try {
    if (command == "orient") return run_orient(args);
    if (command == "coalescence") return run_coalescence(args);
    if (command == "kernel") return run_kernel(args);
    if (command == "client") return run_client(args);
  } catch (const std::exception& e) {
    die(e.what());
  }
  die("unknown command " + command);
}
