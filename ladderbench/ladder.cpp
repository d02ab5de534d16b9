// ladderbench — the layer-ladder benchmark of the gfor14 anonymous channel.
//
// One process runs one workload for a fixed time budget, checks every
// output it produces, and prints human-readable lines followed by ONE JSON
// object on the last line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without --trace the metrics are the end-to-end numbers a user of the
// channel sees (throughput, latency, CPU, memory, set-up time). With
// --trace 1 the metrics are per-layer numbers (ff kernels, Lagrange cache,
// network rounds and allocation, VSS, AnonChan phases, the supervised
// runtime, process faults and tracing overhead/coverage), taken from a
// traced segment that runs after an untraced one.
//
// Workloads (closed loop, one process, at most min(4, nproc) threads):
//   bulk-n12     one AnonChan::run at a time on a caller-built Network and
//                make_vss, n=12, kappa=2, RB scheme, receiver P11, 4 lanes;
//   churn-mixed  kappa=2 RB sessions through SupervisedRuntime with 4
//                strands, topped up with try_submit between run_wave calls,
//                n in {5,6,7}, a quarter of the sessions under an in-model
//                random FaultPlan and a quarter crashing once under chaos,
//                with retries on.
//
// README.md in this directory lists every metric with its unit and the
// end-to-end metric each per-layer number is expected to move.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "anonchan/params.hpp"
#include "common/alloc_stats.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/provenance.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "ff/batch.hpp"
#include "ff/kernel.hpp"
#include "ff/ops.hpp"
#include "math/lagrange_cache.hpp"
#include "net/faultplan.hpp"
#include "net/network.hpp"
#include "server/session.hpp"
#include "server/supervisor.hpp"
#include "vss/schemes.hpp"

namespace gfor14::ladder {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 on an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Process accounting

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double maxrss_mb = 0.0;
};

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

/// CPU brand string from cpuid (x86), "unknown" elsewhere.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, b = 0, c = 0, d = 0;
  __cpuid(0x80000000u, max_leaf, b, c, d);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __cpuid(0x80000002u + i, regs[4 * i], regs[4 * i + 1], regs[4 * i + 2],
            regs[4 * i + 3]);
  std::string m(reinterpret_cast<const char*>(regs), sizeof regs);
  m.erase(m.find_last_not_of(std::string(" \0", 2)) + 1);
  m.erase(0, m.find_first_not_of(' '));
  return m;
#else
  return "unknown";
#endif
}

std::uint64_t root_counter(std::string_view name) {
  return metrics::Registry::instance().counter(name).value();
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;      ///< directory for the span dump ("" = none)
  std::string source_digest;  ///< content digest of the built sources
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "ladderbench: %s\nusage: ladderbench --workload "
               "bulk-n12|churn-mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out DIR] [--source-digest HEX]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage_error("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0))
        usage_error("bad --seconds");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      usage_error("unknown flag " + key);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (a.workload != "bulk-n12" && a.workload != "churn-mixed")
    usage_error("unknown workload " + a.workload);
  return a;
}

// ---------------------------------------------------------------------------
// Output checks (run on every timed invocation / session)

/// Failure tally in units of operations (invocations or sessions) and of
/// honest input messages.
struct Tally {
  std::size_t ops = 0;
  std::size_t failed_ops = 0;
  std::size_t honest_msgs = 0;       ///< honest inputs attempted
  std::size_t undelivered_msgs = 0;  ///< honest inputs missing from Y
  std::size_t collision_drops = 0;   ///< ... of which lost to collisions
  std::vector<std::string> errors;   ///< first few check failures

  void fail(std::string why) {
    ++failed_ops;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  double failed_share() const {
    return ratio(static_cast<double>(undelivered_msgs),
                 static_cast<double>(honest_msgs));
  }
};

struct Checked {
  std::string violation;  ///< "" when the output meets the guarantee
  std::size_t delivered = 0;  ///< honest inputs in Y, receiver's excluded
  std::size_t collision_drops = 0;
};

/// Checks one channel output against the protocol's guarantee: every honest
/// party's input (the receiver's zero included: a zero message still
/// carries its tag) appears in Y exactly once, Y holds nothing beyond what
/// the corrupt parties could inject (one message each), every honest party
/// passes, and the run took exactly the protocol's round count.
///
/// The one allowed loss is Claim 2's collision event, which the practical
/// profile (d = 8 at kappa = 2) hits rarely but measurably at this volume:
/// a sender loses its message when fewer than threshold_factor * d of its d
/// copies (x, tag) in v survive the other senders' entries. Such a drop
/// counts as a collision drop (undelivered, but no violation) only when the
/// surviving copies are below the threshold AND the ground-truth collision
/// count (Output::pairwise_collisions, two per collided position) accounts
/// for every lost copy; any other missing input is a violation.
/// Copies of `message` left intact in the receiver's v: positions holding
/// it with its most frequent tag. A collision with a zero message keeps x
/// but changes the tag, so counting x alone would overcount.
std::size_t surviving_copies(const anonchan::Output& out, Fld message) {
  std::map<std::uint64_t, std::size_t> per_tag;
  std::size_t best = 0;
  for (std::size_t k : out.positions_of(message))
    best = std::max(best, ++per_tag[out.v_a[k].to_u64()]);
  return best;
}

Checked check_output(const anonchan::Output& out,
                     const anonchan::Params& params,
                     const std::vector<Fld>& inputs, net::PartyId receiver,
                     const std::set<net::PartyId>& corrupt,
                     std::size_t expected_rounds) {
  Checked c;
  std::map<std::uint64_t, std::size_t> y;
  for (const Fld& v : out.y) ++y[v.to_u64()];
  std::size_t honest_found = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (corrupt.count(static_cast<net::PartyId>(i))) continue;
    const auto it = y.find(inputs[i].to_u64());
    if (it != y.end() && it->second > 0) {
      --it->second;
      ++honest_found;
      if (i != receiver) ++c.delivered;
      continue;
    }
    const std::size_t copies = surviving_copies(out, inputs[i]);
    const bool collided =
        i != receiver &&
        static_cast<double>(copies) <
            params.threshold_factor * static_cast<double>(params.d) &&
        out.pairwise_collisions >= 2 * (params.d - copies);
    if (collided) {
      ++c.collision_drops;
    } else if (c.violation.empty()) {
      c.violation = "honest input of P" + std::to_string(i) +
                    " missing from Y (" + std::to_string(copies) + " of " +
                    std::to_string(params.d) + " copies in v)";
    }
  }
  if (!c.violation.empty()) return c;
  if (out.y.size() - honest_found > corrupt.size()) {
    c.violation = "Y holds " + std::to_string(out.y.size()) +
                  " entries for " + std::to_string(honest_found) +
                  " delivered honest and " + std::to_string(corrupt.size()) +
                  " corrupt senders";
  } else if (out.costs.rounds != expected_rounds) {
    c.violation = "rounds " + std::to_string(out.costs.rounds) +
                  " != expected " + std::to_string(expected_rounds);
  } else {
    for (std::size_t i = 0; i < out.pass.size(); ++i)
      if (!corrupt.count(static_cast<net::PartyId>(i)) && !out.pass[i]) {
        c.violation = "honest P" + std::to_string(i) + " failed PASS";
        break;
      }
  }
  return c;
}

/// Counts one checked operation with `honest` non-receiver honest inputs.
void tally_check(Tally& tally, const Checked& c, std::size_t honest,
                 const std::string& what) {
  ++tally.ops;
  tally.honest_msgs += honest;
  tally.undelivered_msgs += honest - c.delivered;
  tally.collision_drops += c.collision_drops;
  if (!c.violation.empty()) tally.fail(what + ": " + c.violation);
}

/// expected_rounds() of an AnonChan at this shape (cached per n).
std::size_t expected_rounds_for(std::size_t n, std::size_t kappa) {
  static std::map<std::pair<std::size_t, std::size_t>, std::size_t> cache;
  const auto key = std::make_pair(n, kappa);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  net::Network net(n, 1);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, kappa));
  return cache[key] = chan.expected_rounds();
}

/// Distinct non-zero inputs, one per party, except the receiver's, which is
/// the zero message.
std::vector<Fld> draw_inputs(Rng& rng, std::size_t n, net::PartyId receiver) {
  std::vector<Fld> x(n, Fld::zero());
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == receiver) continue;
    Fld v;
    do {
      v = Fld::random_nonzero(rng);
    } while (!seen.insert(v.to_u64()).second);
    x[i] = v;
  }
  return x;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: kept in memory, dumped at the end of a traced run.

struct BenchSpan {
  std::string name;
  double start_ms = 0.0;  ///< since the span log's epoch
  double end_ms = 0.0;
  long parent = -1;  ///< index into the log, -1 for a root
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  long open(std::string name, long parent = -1) {
    spans_.push_back({std::move(name), ms_between(epoch_, Clock::now()), 0.0,
                      parent});
    return static_cast<long>(spans_.size() - 1);
  }
  void close(long id) {
    spans_[static_cast<std::size_t>(id)].end_ms =
        ms_between(epoch_, Clock::now());
  }
  const std::vector<BenchSpan>& spans() const { return spans_; }
  /// Summed duration of every span with this name.
  double total_ms(std::string_view name) const {
    double t = 0.0;
    for (const auto& s : spans_)
      if (s.name == name) t += s.end_ms - s.start_ms;
    return t;
  }

 private:
  Clock::time_point epoch_;
  std::vector<BenchSpan> spans_;
};

/// Times each round of a caller-built Network: the interval between
/// consecutive round barriers (the first from attachment).
class RoundTimer : public net::RoundObserver {
 public:
  RoundTimer() : last_(Clock::now()) {}
  void on_round_end(const net::Network&, const net::CostReport&) override {
    const auto now = Clock::now();
    round_ms.push_back(ms_between(last_, now));
    last_ = now;
  }
  std::vector<double> round_ms;

 private:
  Clock::time_point last_;
};

// ---------------------------------------------------------------------------
// Tracer span trees -> per-layer times

/// Per protocol run (one anonchan.run root): duration of each named span
/// summed within the run, plus the run's own duration and the VSS time.
struct RunProfile {
  double run_ms = 0.0;
  double vss_ms = 0.0;  ///< time inside vss.* spans (children of phases)
  std::map<std::string, double> span_ms;
  std::size_t share_all_elems = 0;
};

void walk(const trace::SpanNode& node, RunProfile& p) {
  p.span_ms[node.name] += node.wall_us / 1000.0;
  if (node.name.rfind("vss.", 0) == 0) {
    p.vss_ms += node.wall_us / 1000.0;
    if (node.name == "vss.share_all")
      p.share_all_elems +=
          node.costs.p2p_elements + node.costs.broadcast_elements;
    return;  // vss internals count as VSS time
  }
  for (const auto& c : node.children) walk(*c, p);
}

/// Collects one RunProfile per anonchan.run span anywhere in the forest.
void collect_runs(const trace::SpanNode& node, std::vector<RunProfile>& out) {
  if (node.name == "anonchan.run") {
    RunProfile p;
    p.run_ms = node.wall_us / 1000.0;
    for (const auto& c : node.children) walk(*c, p);
    out.push_back(std::move(p));
    return;
  }
  for (const auto& c : node.children) collect_runs(*c, out);
}

std::vector<RunProfile> traced_runs() {
  std::vector<RunProfile> runs;
  for (const auto& root : trace::Tracer::instance().roots())
    collect_runs(*root, runs);
  return runs;
}

double median_span(const std::vector<RunProfile>& runs,
                   const std::string& name) {
  std::vector<double> v;
  for (const auto& r : runs) {
    const auto it = r.span_ms.find(name);
    v.push_back(it == r.span_ms.end() ? 0.0 : it->second);
  }
  return median(v);
}

// ---------------------------------------------------------------------------
// Segment results shared by all workloads

struct Segment {
  double wall_s = 0.0;
  Usage usage;  ///< delta over the segment
  std::size_t msgs = 0;  ///< honest inputs delivered into Y
  std::size_t p2p_elements = 0;
  std::vector<double> latency_ms;   ///< per invocation / per session
  std::vector<double> session_ms;   ///< execution wall of each attempt
  std::vector<double> wave_ms;
  std::vector<double> wave_straggler;  ///< max / median attempt wall per wave
  std::size_t rounds_total = 0;
  std::size_t runs = 0;  ///< completed protocol runs
  std::size_t attempts = 0;
  std::size_t retries = 0;
  std::size_t admitted = 0;
  std::size_t strands = 1;
  std::vector<double> round_ms;  ///< benchmark RoundObserver samples (bulk)

  double msgs_per_s() const { return ratio(static_cast<double>(msgs), wall_s); }
};

// ---------------------------------------------------------------------------
// bulk-n12

constexpr std::size_t kBulkN = 12;
constexpr std::size_t kBulkKappa = 2;
constexpr net::PartyId kBulkReceiver = 11;

std::size_t lane_count() {
  return std::min<std::size_t>(4, hardware_threads());
}

struct BulkRunner {
  BulkRunner(std::uint64_t seed_, std::size_t lanes_, Tally* tally_)
      : seed(seed_), lanes(lanes_), tally(tally_) {}

  std::uint64_t seed;
  std::size_t lanes;
  Tally* tally;
  std::size_t next = 0;  ///< invocation counter (input stream index)
  SpanLog* spans = nullptr;  ///< non-null in the traced segment

  /// One invocation: fresh Network + VSS, one AnonChan::run, checks.
  void invoke(Segment& seg) {
    Rng rng = Rng(seed).fork(0xB01C0000ULL + next++);
    const std::uint64_t net_seed = rng.next_u64();
    const auto inputs = draw_inputs(rng, kBulkN, kBulkReceiver);
    const auto t0 = Clock::now();
    const long span = spans ? spans->open("bench.invocation") : -1;
    Checked checked;
    std::size_t rounds = 0;
    std::size_t p2p = 0;
    {
      // The library's construction is timed on its own, so that coverage
      // can count it without the checks and the teardown.
      const long build = spans ? spans->open("bench.construct", span) : -1;
      auto timer = std::make_shared<RoundTimer>();
      net::Network net(kBulkN, net_seed);
      net.set_threads(lanes);
      net.attach_observer(timer);
      auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
      const auto params = anonchan::Params::practical(kBulkN, kBulkKappa);
      anonchan::AnonChan chan(net, *vss, params);
      if (spans) spans->close(build);
      const auto out = chan.run(kBulkReceiver, inputs);
      checked = check_output(out, params, inputs, kBulkReceiver, {},
                             chan.expected_rounds());
      rounds = out.costs.rounds;
      p2p = out.costs.p2p_elements;
      seg.round_ms.insert(seg.round_ms.end(), timer->round_ms.begin(),
                          timer->round_ms.end());
    }
    if (spans) spans->close(span);
    const double ms = ms_between(t0, Clock::now());
    tally_check(*tally, checked, kBulkN - 1,
                "bulk invocation " + std::to_string(next - 1));
    seg.msgs += checked.delivered;
    seg.p2p_elements += p2p;
    seg.latency_ms.push_back(ms);
    seg.session_ms.push_back(ms);
    seg.wave_ms.push_back(ms);
    seg.wave_straggler.push_back(1.0);
    seg.rounds_total += rounds;
    ++seg.runs;
    ++seg.attempts;
    ++seg.admitted;
  }

  Segment run_for(double seconds) {
    Segment seg;
    seg.strands = 1;
    const Usage u0 = read_usage();
    const auto t0 = Clock::now();
    do {
      invoke(seg);
    } while (seconds_since(t0) < seconds);
    seg.wall_s = seconds_since(t0);
    const Usage u1 = read_usage();
    seg.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                 u1.minflt - u0.minflt, u1.maxrss_mb};
    return seg;
  }
};

// ---------------------------------------------------------------------------
// churn-mixed

struct ServerShape {
  std::size_t strands = 4;
  std::size_t queue_capacity = 16;
  /// Sessions one runtime serves before it is drained and rebuilt: the
  /// runtime keeps every completed session's recording until drain (which
  /// copies them into the report), so an unbounded runtime would grow
  /// without limit.
  std::size_t epoch_sessions = 96;
};

struct ServerRunner {
  ServerRunner(std::uint64_t seed_, ServerShape shape_, Tally* tally_)
      : seed(seed_), shape(shape_), tally(tally_) {}

  std::uint64_t seed;
  ServerShape shape;
  Tally* tally;
  SpanLog* spans = nullptr;
  std::uint64_t next_id = 0;
  /// Seeded sample of completed sessions re-run solo after timing.
  std::vector<server::SessionResult> sample;
  std::size_t sample_every = 97;

  std::uint64_t master_seed() const {
    return Rng(seed).fork(0x5E4E0000ULL).next_u64();
  }

  server::SessionConfig make_config(std::uint64_t id) const {
    Rng rng = Rng(seed).fork(0xC0F16000ULL + id);
    server::SessionConfig cfg;
    cfg.id = id;
    cfg.scheme = vss::SchemeKind::kRB;
    cfg.kappa = 2;
    cfg.lanes = 1;
    // Header-and-digest recording: n=7 payload copies are ~78 MB a
    // session, too much to hold for a whole epoch.
    cfg.record_payloads = false;
    // Fixed mix in blocks of four ids per size (5, 6, 7, 5, ...): each
    // block has one session under faults (id % 4 == 2) and one crashing
    // once (chaos.every = 4 picks id % 4 == 0). Every wave holds mixed
    // sizes, and the strands regularly start four equal sizes together,
    // so each run reaches the same memory high-water.
    cfg.n = 5 + (id / 4) % 3;
    if (id % 4 == 2) {
      // In-model faults against the corrupt minority P0..P(t-1).
      net::FaultPlan::RandomSpec rs;
      const std::size_t t = (cfg.n - 1) / 2;
      for (std::size_t p = 0; p < t; ++p)
        rs.targets.push_back(static_cast<net::PartyId>(p));
      rs.n = cfg.n;
      rs.rounds = expected_rounds_for(cfg.n, cfg.kappa);
      rs.count = 3;
      rs.max_amount = 3;
      cfg.faults = net::FaultPlan::random(rng, rs);
    }
    cfg.inputs = draw_inputs(rng, cfg.n, cfg.effective_receiver());
    return cfg;
  }

  server::SupervisorOptions options() const {
    server::SupervisorOptions sup;
    sup.master_seed = master_seed();
    sup.threads = shape.strands;
    sup.queue_capacity = shape.queue_capacity;
    sup.retry.max_attempts = 3;
    sup.chaos.enabled = true;
    sup.chaos.every = 4;  // ids 0, 4, 8, ... crash on attempt 0
    sup.chaos.crash_attempts = 1;
    return sup;
  }

  /// Checks and tallies one drained runtime's report into the segment.
  void absorb(const server::RuntimeReport& rep, Segment& seg) {
    std::map<std::pair<std::uint64_t, std::size_t>, double> attempt_ms;
    for (const auto& f : rep.failures) {
      attempt_ms[{f.session_id, f.attempt}] = f.wall_ms;
      seg.session_ms.push_back(f.wall_ms);
    }
    for (const auto& r : rep.completed) {
      attempt_ms[{r.config.id, r.attempt}] = r.wall_ms;
      seg.session_ms.push_back(r.wall_ms);
      const auto senders = r.config.faults.senders();
      const std::set<net::PartyId> corrupt(senders.begin(), senders.end());
      const Checked checked = check_output(
          r.output, r.config.params(), r.config.effective_inputs(),
          r.config.effective_receiver(), corrupt,
          expected_rounds_for(r.config.n, r.config.kappa));
      tally_check(*tally, checked, r.config.n - 1 - corrupt.size(),
                  "session " + std::to_string(r.config.id));
      seg.msgs += checked.delivered;
      seg.p2p_elements += r.costs.p2p_elements;
      seg.rounds_total += r.costs.rounds;
      ++seg.runs;
      if (r.config.id % sample_every == seed % sample_every &&
          sample.size() < 4)
        sample.push_back(r);
    }
    // Straggler ratio per wave: slowest attempt over the median attempt.
    std::map<std::size_t, std::vector<double>> per_wave;
    for (const auto& ev : rep.schedule) {
      if (ev.kind == server::ScheduleEvent::Kind::kGiveUp) {
        // Every honest input of a session that gave up is undelivered.
        const auto cfg = make_config(ev.session_id);
        const std::size_t honest = cfg.n - 1 - cfg.faults.senders().size();
        ++tally->ops;
        tally->honest_msgs += honest;
        tally->undelivered_msgs += honest;
        tally->fail("session " + std::to_string(ev.session_id) +
                    " exhausted its retries");
      }
      if (ev.kind != server::ScheduleEvent::Kind::kComplete &&
          ev.kind != server::ScheduleEvent::Kind::kFail)
        continue;
      const auto it = attempt_ms.find({ev.session_id, ev.attempt});
      if (it != attempt_ms.end()) per_wave[ev.wave].push_back(it->second);
    }
    for (const auto& [wave, walls] : per_wave)
      seg.wave_straggler.push_back(
          ratio(*std::max_element(walls.begin(), walls.end()), median(walls)));
    seg.attempts += rep.completed.size() + rep.failures.size();
    seg.retries += rep.retries;
    seg.admitted += rep.admitted;
  }

  /// One epoch: a fresh runtime serves `sessions` sessions in a closed
  /// loop (queue topped up between waves), then runs dry and is drained.
  void epoch(std::size_t sessions, Segment& seg) {
    const long epoch_span = spans ? spans->open("bench.epoch") : -1;
    server::SupervisedRuntime rt(options());
    std::map<std::uint64_t, Clock::time_point> in_flight;
    std::size_t submitted = 0;
    for (;;) {
      const long admit_span = spans ? spans->open("bench.admit", epoch_span)
                                    : -1;
      while (submitted < sessions) {
        const std::uint64_t id = next_id;
        const auto t = Clock::now();
        if (!rt.try_submit(make_config(id))) break;
        in_flight[id] = t;
        ++next_id;
        ++submitted;
      }
      if (spans) spans->close(admit_span);
      if (rt.idle()) break;
      const long wave_span = spans ? spans->open("bench.wave", epoch_span)
                                   : -1;
      const auto w0 = Clock::now();
      const std::size_t ran = rt.run_wave();
      const auto w1 = Clock::now();
      if (spans) spans->close(wave_span);
      if (ran > 0) seg.wave_ms.push_back(ms_between(w0, w1));
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        const auto st = rt.state_of(it->first);
        if (st == server::SessionState::kCompleted) {
          seg.latency_ms.push_back(ms_between(it->second, w1));
          it = in_flight.erase(it);
        } else if (st == server::SessionState::kFailed) {
          it = in_flight.erase(it);
        } else {
          ++it;
        }
      }
    }
    const long drain_span = spans ? spans->open("bench.drain", epoch_span)
                                  : -1;
    {
      const server::RuntimeReport rep = rt.drain();
      absorb(rep, seg);
    }
    if (spans) spans->close(drain_span);
    if (spans) spans->close(epoch_span);
  }

  Segment run_for(double seconds) {
    Segment seg;
    seg.strands = shape.strands;
    const Usage u0 = read_usage();
    const auto t0 = Clock::now();
    do {
      epoch(shape.epoch_sessions, seg);
    } while (seconds_since(t0) < seconds);
    seg.wall_s = seconds_since(t0);
    const Usage u1 = read_usage();
    seg.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s,
                 u1.minflt - u0.minflt, u1.maxrss_mb};
    return seg;
  }

  /// Re-runs the sampled sessions solo (serial, no neighbours) and
  /// compares transcript digests with the co-scheduled executions
  /// (DESIGN.md §13). Outside timing. With the tracer on, also returns each
  /// re-run's whole run_attempt wall (set-up, collection, teardown
  /// included) minus its anonchan.run span.
  std::vector<double> verify_sample() {
    auto& tracer = trace::Tracer::instance();
    std::vector<double> overhead_ms;
    for (const auto& r : sample) {
      server::SessionConfig cfg = r.config;
      cfg.scope_label = "ladder-solo/" + std::to_string(cfg.id);
      server::AttemptSpec spec;
      spec.attempt = r.attempt;
      const std::size_t roots_before = tracer.roots().size();
      const auto t0 = Clock::now();
      {
        const auto solo = server::run_attempt(cfg, master_seed(), spec);
        if (!solo.ok()) {
          tally->fail("solo re-run of session " + std::to_string(cfg.id) +
                      " failed: " + solo.failure->describe());
        } else if (solo.result->transcript_digest != r.transcript_digest) {
          tally->fail("session " + std::to_string(cfg.id) +
                      " transcript digest differs from its solo re-run");
        }
      }
      const double wall_ms = ms_between(t0, Clock::now());
      for (std::size_t i = roots_before; i < tracer.roots().size(); ++i)
        if (tracer.roots()[i]->name == "anonchan.run")
          overhead_ms.push_back(wall_ms - tracer.roots()[i]->wall_us / 1000.0);
    }
    return overhead_ms;
  }
};

// ---------------------------------------------------------------------------
// Kernel rung: ff::batch::axpy/dot<64> against the scalar oracle

struct KernelRates {
  double axpy_elems_per_s = 0.0;
  double dot_elems_per_s = 0.0;
  std::size_t span_len = 0;
  std::size_t mismatches = 0;
};

/// zydd idiom: warm up, then loop until the time budget is spent, timing
/// only the batch kernel calls and checking every result bit-identical to
/// the scalar ff::axpy / ff::dot inside the loop.
KernelRates kernel_rung(std::uint64_t seed, std::size_t span_len,
                        double budget_s) {
  constexpr std::size_t kBlock = 32;  // spans per timed block
  Rng rng = Rng(seed).fork(0xFFBA7C4ULL);
  std::vector<F64> x(kBlock * span_len), y(kBlock * span_len),
      y_ref(kBlock * span_len), cs(kBlock);
  KernelRates out;
  out.span_len = span_len;
  double axpy_s = 0.0, dot_s = 0.0;
  std::size_t axpy_elems = 0, dot_elems = 0;
  std::vector<F64> dots(kBlock);
  const auto run_block = [&](bool timed) {
    for (auto& v : x) v = F64::random(rng);
    for (auto& v : y) v = F64::random(rng);
    for (auto& c : cs) c = F64::random_nonzero(rng);
    y_ref = y;
    const auto span_at = [&](std::vector<F64>& v, std::size_t b) {
      return std::span<F64>(v.data() + b * span_len, span_len);
    };
    const auto cspan_at = [&](const std::vector<F64>& v, std::size_t b) {
      return std::span<const F64>(v.data() + b * span_len, span_len);
    };
    auto t0 = Clock::now();
    for (std::size_t b = 0; b < kBlock; ++b)
      ff::batch::axpy<64>(cs[b], cspan_at(x, b), span_at(y, b));
    auto t1 = Clock::now();
    if (timed) {
      axpy_s += ms_between(t0, t1) / 1000.0;
      axpy_elems += kBlock * span_len;
    }
    t0 = Clock::now();
    for (std::size_t b = 0; b < kBlock; ++b)
      dots[b] = ff::batch::dot<64>(cspan_at(x, b), cspan_at(y_ref, b));
    t1 = Clock::now();
    if (timed) {
      dot_s += ms_between(t0, t1) / 1000.0;
      dot_elems += kBlock * span_len;
    }
    for (std::size_t b = 0; b < kBlock; ++b) {
      if (ff::dot<64>(cspan_at(x, b), cspan_at(y_ref, b)).to_u64() !=
          dots[b].to_u64())
        ++out.mismatches;
      ff::axpy<64>(cs[b], cspan_at(x, b), span_at(y_ref, b));
    }
    if (y != y_ref) ++out.mismatches;
  };
  for (int i = 0; i < 4; ++i) run_block(false);  // warm-up
  const auto t0 = Clock::now();
  do {
    run_block(true);
  } while (seconds_since(t0) < budget_s);
  out.axpy_elems_per_s = ratio(static_cast<double>(axpy_elems), axpy_s);
  out.dot_elems_per_s = ratio(static_cast<double>(dot_elems), dot_s);
  return out;
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note = "";  ///< printed after the unit on the human line
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("# %-36s %16.6g %s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.ops);
  line += ", \"failed\": " + std::to_string(tally.failed_ops);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Writes the traced segment's spans: benchmark-side spans, then every
/// tracer tree, one JSON object per line.
void dump_trace(const std::string& dir, const Args& args, const SpanLog& log) {
  if (dir.empty()) return;
  const std::string path = dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ladderbench: cannot write trace %s\n", path.c_str());
    return;
  }
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const auto& s = log.spans()[i];
    json::Value v = json::Value::object();
    v.set("kind", std::string("bench"));
    v.set("id", static_cast<std::size_t>(i));
    v.set("name", s.name);
    v.set("parent", static_cast<double>(s.parent));
    v.set("start_ms", s.start_ms);
    v.set("end_ms", s.end_ms);
    out << v.dump() << '\n';
  }
  for (const auto& root : trace::Tracer::instance().roots()) {
    json::Value v = root->to_json();
    v.set("kind", std::string("tracer"));
    out << v.dump() << '\n';
  }
  std::printf("# trace: %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Main run

struct Workload {
  bool bulk = false;
  ServerShape server;
  std::size_t setup_reps = 15;
};

Workload workload_of(const std::string& name) {
  Workload w;
  if (name == "bulk-n12") {
    w.bulk = true;
    w.setup_reps = 5;
  } else {
    // A queue four waves deep keeps uneven sessions from idling strands at
    // every barrier.
    w.server.strands = lane_count();
    w.server.queue_capacity = 4 * w.server.strands;
  }
  return w;
}

/// One set-up: Lagrange/encode-plan cache emptied, then the first untimed
/// invocation (bulk) or one full queue of sessions, run dry (servers).
/// The first set-up of the process also starts the thread pool.
double setup_once(const Workload& w, const Args& args, std::size_t rep,
                  Tally& tally) {
  LagrangeCache::instance().clear();
  const auto t0 = Clock::now();
  if (w.bulk) {
    BulkRunner b(args.seed ^ 0x5E7u, lane_count(), &tally);
    b.next = rep;
    Segment s;
    b.invoke(s);
  } else {
    ServerRunner r(args.seed, w.server, &tally);
    // Ids far above the timed ones, aligned to whole blocks of sizes.
    r.next_id = 3 * (std::uint64_t{1} << 40) + rep * 48;
    Segment s;
    r.epoch(w.server.queue_capacity, s);
  }
  return seconds_since(t0);
}

int run(const Args& args) {
  const Workload w = workload_of(args.workload);
  set_default_threads(lane_count());

  std::printf("# ladderbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# provenance %s\n", provenance::collect().dump().c_str());
  std::printf("# host cpu=\"%s\" threads=%zu ff.batch.kernel=%s "
              "source_digest=%s\n",
              cpu_model().c_str(), lane_count(), ff::active_span_kernel_name(),
              args.source_digest.empty() ? "unknown"
                                         : args.source_digest.c_str());

  // Set-up: several times, median reported.
  // The vss and recorder ledgers are charge-only (nothing is credited back),
  // so a domain's peak is the bytes one execution stages there. They are
  // read over the last set-up: one invocation (bulk) or one queue of
  // sessions (servers).
  // Every operation of the run, set-up and comparison segments included,
  // is checked and counted.
  Tally tally;
  std::vector<double> setups;
  double domain_peak_mb[3] = {0.0, 0.0, 0.0};
  for (std::size_t rep = 0; rep < w.setup_reps; ++rep) {
    const bool last = rep + 1 == w.setup_reps;
    if (last &&
        alloc::domain_stats(alloc::Domain::kNetQueue).bytes_live.load() == 0)
      alloc::reset_domains();
    setups.push_back(setup_once(w, args, rep, tally));
    if (last)
      for (std::size_t d = 0; d < 3; ++d)
        domain_peak_mb[d] =
            alloc::domain_stats(static_cast<alloc::Domain>(d))
                .bytes_peak.load() /
            (1024.0 * 1024.0);
  }
  const double setup_s = median(setups);
  std::printf("# setup_s per repetition:");
  for (double t : setups) std::printf(" %.4f", t);
  std::printf("\n");

  BulkRunner bulk(args.seed, lane_count(), &tally);
  ServerRunner srv(args.seed, w.server, &tally);
  const auto run_segment = [&](double seconds) {
    return w.bulk ? bulk.run_for(seconds) : srv.run_for(seconds);
  };

  // A traced run splits its budget: a third untraced (the baseline for the
  // tracing overhead), a third traced, then a 1-strand comparison.
  const double segment_s = args.trace ? args.seconds / 3 : args.seconds;
  const Segment e2e = run_segment(segment_s);
  if (!w.bulk) srv.verify_sample();

  const double msgs_per_s = e2e.msgs_per_s();
  const double cpu_s = e2e.usage.user_s + e2e.usage.sys_s;
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"msgs_per_s", msgs_per_s, "1/s"},
        {"p2p_elements_per_s",
         ratio(static_cast<double>(e2e.p2p_elements), e2e.wall_s), "1/s"},
        {"latency_ms.p50", median(e2e.latency_ms), "ms"},
        {"latency_ms.p90", quantile(e2e.latency_ms, 0.9), "ms",
         "(" + std::to_string(e2e.latency_ms.size()) + " samples)"},
        {"peak_rss_mb", read_usage().maxrss_mb, "MB"},
        {"cpu_ms_per_msg", ratio(cpu_s * 1000.0, static_cast<double>(e2e.msgs)),
         "ms"},
    };
    // Named end-to-end numbers that cannot carry a bound: failed_share is
    // 0 on a correct tree (failures gate through "correct"/"failed"),
    // retry_rate is 0 outside churn-mixed, and sys_share is too noisy on a
    // shared host. All three are printed here.
    std::printf("# failed_share=%.6g collision_drops=%zu retry_rate=%.6g "
                "sys_share=%.6g operations=%zu wall_s=%.3f\n",
                tally.failed_share(), tally.collision_drops,
                ratio(static_cast<double>(e2e.retries),
                      static_cast<double>(e2e.admitted)),
                ratio(e2e.usage.sys_s, e2e.wall_s), tally.ops, e2e.wall_s);
  } else {
    // Traced segment: library tracer spans + benchmark spans, in memory.
    auto& tracer = trace::Tracer::instance();
    tracer.reset();
    auto& round_hist = metrics::Registry::instance().histogram(
        "net.round_wall_us");
    round_hist.reset();
    const std::uint64_t t_hit0 = root_counter("math.lagrange_cache.hit");
    const std::uint64_t t_miss0 = root_counter("math.lagrange_cache.miss");
    const std::uint64_t alloc_b0 = root_counter("net.alloc.bytes");
    const std::uint64_t alloc_n0 = root_counter("net.alloc.count");
    const std::uint64_t vss_b0 = root_counter("vss.alloc.bytes");
    const auto trace_epoch = Clock::now();
    SpanLog log(trace_epoch);
    bulk.spans = &log;
    srv.spans = &log;
    tracer.set_enabled(true);
    const Segment tr = run_segment(segment_s);
    bulk.spans = nullptr;
    srv.spans = nullptr;
    const auto runs = traced_runs();
    const std::vector<double> solo_overhead_ms =
        w.bulk ? std::vector<double>{} : srv.verify_sample();
    tracer.set_enabled(false);
    const double hit = root_counter("math.lagrange_cache.hit") - t_hit0;
    const double miss = root_counter("math.lagrange_cache.miss") - t_miss0;
    const double alloc_b = root_counter("net.alloc.bytes") - alloc_b0;
    const double alloc_n = root_counter("net.alloc.count") - alloc_n0;
    const double vss_b = root_counter("vss.alloc.bytes") - vss_b0;
    const double n_runs = static_cast<double>(std::max<std::size_t>(tr.runs, 1));

    // Layer self-times on the blocking path and coverage of the wall.
    std::vector<double> self_ms;
    double run_total_ms = 0.0;
    for (const auto& r : runs) {
      self_ms.push_back(r.run_ms - r.vss_ms);
      run_total_ms += r.run_ms;
    }
    // Coverage counts library time only, never the benchmark's own input
    // drawing, output checks or bookkeeping. On bulk, one invocation runs
    // at a time on this thread: the library's Network/VSS/AnonChan
    // construction plus anonchan.run (its self time plus the VSS
    // children) over the wall. Teardown is left uncovered. On the server,
    // the runtime's own wall of every attempt (session set-up, the
    // protocol run, result collection) over the strands' capacity.
    const double coverage =
        w.bulk ? ratio(log.total_ms("bench.construct") + run_total_ms,
                       tr.wall_s * 1000.0)
               : ratio(sum(tr.session_ms),
                       static_cast<double>(tr.strands) * tr.wall_s * 1000.0);
    const double untraced_ms_per_msg =
        ratio(e2e.wall_s * 1000.0, static_cast<double>(e2e.msgs));
    const double traced_ms_per_msg =
        ratio(tr.wall_s * 1000.0, static_cast<double>(tr.msgs));
    const double overhead = ratio(traced_ms_per_msg, untraced_ms_per_msg) - 1.0;

    // Session overhead: the wall around the protocol run. On bulk, the
    // invocation spans minus anonchan.run (Network/VSS construction,
    // checks, teardown); on the servers, whole solo run_attempt calls minus
    // anonchan.run (scope, recorder and Network set-up, result collection
    // with the recording, teardown).
    const double overhead_ms =
        w.bulk ? ratio(log.total_ms("bench.invocation") - run_total_ms,
                       static_cast<double>(runs.size()))
               : median(solo_overhead_ms);

    // Round timings: benchmark RoundObserver on bulk; the Network's own
    // net.round_wall_us histogram inside server sessions (whose networks
    // the runtime builds internally).
    double round_p50 = 0.0, round_max = 0.0;
    if (w.bulk) {
      round_p50 = median(tr.round_ms);
      round_max = tr.round_ms.empty()
                      ? 0.0
                      : *std::max_element(tr.round_ms.begin(),
                                          tr.round_ms.end());
    } else {
      round_p50 = round_hist.quantile(0.5) / 1000.0;
      round_max = round_hist.summary().max() / 1000.0;
    }

    // VSS share throughput from the span cost deltas.
    double share_elems = 0.0, share_ms = 0.0;
    for (const auto& r : runs) {
      share_elems += static_cast<double>(r.share_all_elems);
      const auto it = r.span_ms.find("vss.share_all");
      if (it != r.span_ms.end()) share_ms += it->second;
    }

    dump_trace(args.trace_out, args, log);
    tracer.reset();

    // 1-strand (1-lane) comparison for parallel efficiency.
    double parallel_eff = 0.0;
    {
      double one_msgs_per_s = 0.0;
      if (w.bulk) {
        BulkRunner one(args.seed ^ 0x0E1u, 1, &tally);
        one_msgs_per_s = one.run_for(args.seconds / 6).msgs_per_s();
      } else {
        ServerShape shape = w.server;
        shape.queue_capacity /= shape.strands;
        shape.epoch_sessions /= shape.strands;
        shape.strands = 1;
        ServerRunner one(args.seed ^ 0x0E1u, shape, &tally);
        one_msgs_per_s = one.run_for(args.seconds / 6).msgs_per_s();
      }
      const double threads =
          static_cast<double>(w.bulk ? lane_count() : w.server.strands);
      parallel_eff = ratio(msgs_per_s, threads * one_msgs_per_s);
    }

    // Protocol-sized spans: one dealer's share batch at the bulk shape.
    const std::size_t span_len =
        anonchan::Params::practical(kBulkN, kBulkKappa).ell;
    const KernelRates k = kernel_rung(args.seed, span_len, 1.0);
    if (k.mismatches != 0)
      tally.fail(std::to_string(k.mismatches) +
                 " batch kernel results differ from the scalar oracle");

    const double tr_msgs = static_cast<double>(std::max<std::size_t>(tr.msgs, 1));
    metrics = {
        {"ff.span_axpy_elems_per_s", k.axpy_elems_per_s, "1/s"},
        {"ff.span_dot_elems_per_s", k.dot_elems_per_s, "1/s"},
        {"ff.kernel_gap",
         ratio(k.axpy_elems_per_s,
               ratio(static_cast<double>(e2e.p2p_elements), e2e.wall_s)),
         "x"},
        {"math.lagrange_cache.hit_share", ratio(hit, hit + miss), "share"},
        {"net.round_ms.p50", round_p50, "ms"},
        {"net.round_ms.max", round_max, "ms"},
        {"net.rounds", static_cast<double>(tr.rounds_total) / n_runs, "count"},
        {"net.alloc.bytes_per_msg", alloc_b / tr_msgs, "B"},
        {"net.alloc.count", alloc_n / n_runs, "count"},
        {"vss.share_all.ms", median_span(runs, "vss.share_all"), "ms"},
        {"vss.share_all.elems_per_s", ratio(share_elems, share_ms / 1000.0),
         "1/s"},
        {"vss.reconstruct_public.ms",
         median_span(runs, "vss.reconstruct_public"), "ms"},
        {"vss.reconstruct_private.ms",
         median_span(runs, "vss.reconstruct_private"), "ms"},
        {"vss.alloc.bytes", vss_b / n_runs, "B"},
        {"anonchan.commit.ms", median_span(runs, "commit"), "ms"},
        {"anonchan.challenge.ms", median_span(runs, "challenge"), "ms"},
        {"anonchan.cut_and_choose.open.ms",
         median_span(runs, "cut_and_choose.open"), "ms"},
        {"anonchan.cut_and_choose.check.ms",
         median_span(runs, "cut_and_choose.check"), "ms"},
        {"anonchan.deliver.permutations.ms",
         median_span(runs, "deliver.permutations"), "ms"},
        {"anonchan.deliver.private.ms", median_span(runs, "deliver.private"),
         "ms"},
        {"anonchan.self_ms", median(self_ms), "ms"},
        {"server.session_ms.p50", median(tr.session_ms), "ms"},
        {"server.session_overhead_ms", overhead_ms, "ms"},
        {"server.wave_ms.p50", median(tr.wave_ms), "ms"},
        {"server.wave_busy_share",
         ratio(sum(tr.session_ms),
               static_cast<double>(tr.strands) * sum(tr.wave_ms)),
         "share"},
        {"server.straggler_ratio", median(tr.wave_straggler), "x"},
        {"server.parallel_efficiency", parallel_eff, "share"},
        {"server.useful_attempt_share",
         ratio(static_cast<double>(tr.runs), static_cast<double>(tr.attempts)),
         "share"},
        {"server.retry_rate",
         ratio(static_cast<double>(tr.retries),
               static_cast<double>(tr.admitted)),
         "share"},
        {"proc.sys_share", ratio(e2e.usage.sys_s, e2e.wall_s), "share"},
        {"proc.minor_faults_per_msg",
         ratio(e2e.usage.minflt, static_cast<double>(e2e.msgs)), "count"},
        {"alloc.vss.peak_mb",
         domain_peak_mb[static_cast<int>(alloc::Domain::kVss)], "MB"},
        {"alloc.net_queue.peak_mb",
         domain_peak_mb[static_cast<int>(alloc::Domain::kNetQueue)], "MB"},
        {"alloc.recorder.peak_mb",
         domain_peak_mb[static_cast<int>(alloc::Domain::kRecorder)], "MB"},
        {"trace.overhead_share", overhead, "share"},
        {"trace.coverage_share", coverage, "share"},
    };
    std::printf("# traced runs=%zu attempts=%zu kernel span_len=%zu\n",
                tr.runs, tr.attempts, k.span_len);
  }

  for (const auto& e : tally.errors) std::printf("# CHECK FAILED: %s\n",
                                                 e.c_str());
  const bool correct = tally.failed_ops == 0;
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gfor14::ladder

int main(int argc, char** argv) {
  const auto args = gfor14::ladder::parse_args(argc, argv);
  try {
    return gfor14::ladder::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladderbench: %s\n", e.what());
    return 1;
  }
}
