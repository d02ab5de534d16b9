// Differential serial-vs-parallel suite for the deterministic round engine.
//
// Every scenario below — the anonymous channel over all three VSS schemes,
// all four baselines, the pseudosignature setup, and adversarial runs with
// a rushing share-corrupting adversary and a message-dropping adversary —
// is executed serially (threads = 1) and then re-executed on 2, 4 and
// hardware_threads() worker lanes for several seeds. The assertion is the
// strongest one the engine promises: the full delivered transcript (every
// field element on every channel in every round), the protocol outputs, the
// CostReport, and the net.* metrics counters are byte-identical. This is
// the executable form of the determinism contract in DESIGN.md §8.
//
// Transcript capture and comparison go through the flight-recorder
// subsystem (net/recorder.hpp + audit/replay.hpp): each run is recorded at
// full fidelity and audit::first_divergence pins any mismatch to its exact
// (round, channel, from, to, byte offset) — far better failure output than
// the string diff this suite originally used.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/replay.hpp"
#include "baselines/dcnet.hpp"
#include "baselines/pw96.hpp"
#include "baselines/vabh03.hpp"
#include "baselines/zhang11.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "net/adversary.hpp"
#include "net/recorder.hpp"
#include "pseudosig/broadcast_sim.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

void append_u64(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
  s += ' ';
}

// Two executions are transcript-identical iff no divergence exists between
// their flight recordings: every payload byte on every channel in every
// round, the per-round cost deltas, and the tamper/fault/blame logs.
::testing::AssertionResult identical(const net::Recording& a,
                                     const net::Recording& b) {
  if (const auto d = audit::first_divergence(a, b))
    return ::testing::AssertionFailure() << d->format();
  return ::testing::AssertionSuccess();
}

constexpr std::array<const char*, 6> kNetMetricNames = {
    "net.rounds",        "net.broadcast_rounds", "net.broadcast_invocations",
    "net.p2p_messages",  "net.p2p_elements",     "net.broadcast_elements"};

std::array<std::uint64_t, 6> net_metric_values() {
  std::array<std::uint64_t, 6> out{};
  for (std::size_t i = 0; i < kNetMetricNames.size(); ++i)
    out[i] = metrics::Registry::instance().counter(kNetMetricNames[i]).value();
  return out;
}

struct RunResult {
  net::Recording recording;  ///< full-fidelity transcript of the run
  std::string output;  ///< scenario-specific serialization of the results
  net::CostReport costs;
  std::array<std::uint64_t, 6> net_metrics{};  ///< deltas for this run
};

struct Scenario {
  const char* name;
  std::size_t n;
  /// Runs the protocol on `net` and returns its output serialization.
  std::string (*run)(net::Network& net);
};

RunResult execute(const Scenario& sc, std::uint64_t seed,
                  std::size_t threads) {
  net::Network net(sc.n, seed);
  net.set_threads(threads);
  const auto metrics_before = net_metric_values();
  const auto costs_before = net.cost_snapshot();
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  RunResult r;
  r.output = sc.run(net);
  r.recording = recorder->take();
  r.costs = net.costs() - costs_before;
  const auto metrics_after = net_metric_values();
  for (std::size_t i = 0; i < r.net_metrics.size(); ++i)
    r.net_metrics[i] = metrics_after[i] - metrics_before[i];
  return r;
}

// --- output serializers ----------------------------------------------------

std::string serialize_anonchan(const anonchan::Output& out) {
  std::string s = "y:";
  for (Fld f : out.y) append_u64(s, f.to_u64());
  s += " t:";
  for (const auto& [x, a] : out.t_pairs) {
    append_u64(s, x.to_u64());
    append_u64(s, a.to_u64());
  }
  s += " vx:";
  for (Fld f : out.v_x) append_u64(s, f.to_u64());
  s += " va:";
  for (Fld f : out.v_a) append_u64(s, f.to_u64());
  s += " pass:";
  for (bool p : out.pass) s += p ? '1' : '0';
  return s;
}

std::string run_anonchan(net::Network& net, vss::SchemeKind kind) {
  auto vss = vss::make_vss(kind, net);
  anonchan::AnonChan chan(net, *vss,
                          anonchan::Params::practical(net.n(), 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < net.n(); ++i)
    inputs.push_back(i + 1 < net.n() ? Fld::from_u64(100 + i) : Fld::zero());
  return serialize_anonchan(chan.run(net.n() - 1, inputs));
}

std::string run_anonchan_rb(net::Network& net) {
  return run_anonchan(net, vss::SchemeKind::kRB);
}
std::string run_anonchan_bgw(net::Network& net) {
  return run_anonchan(net, vss::SchemeKind::kBGW);
}
std::string run_anonchan_ggor(net::Network& net) {
  return run_anonchan(net, vss::SchemeKind::kGGOR13);
}

std::string run_dcnet_scenario(net::Network& net) {
  std::vector<Fld> inputs(net.n(), Fld::zero());
  inputs[1] = Fld::from_u64(41);
  inputs[3] = Fld::from_u64(42);
  // One jammer: exercises the pre-drawn adversary-stream garbage path.
  std::vector<bool> jammers(net.n(), false);
  jammers[0] = true;
  auto out = baselines::run_dcnet(net, 2 * net.n(), inputs, jammers);
  std::string s = "delivered:";
  for (Fld f : out.delivered) append_u64(s, f.to_u64());
  append_u64(s, out.collisions);
  return s;
}

std::string run_pw96_scenario(net::Network& net) {
  net.corrupt_first(1);
  std::vector<Fld> inputs(net.n(), Fld::zero());
  for (std::size_t i = 0; i < net.n(); ++i) inputs[i] = Fld::from_u64(i + 7);
  auto out =
      baselines::run_pw96(net, inputs, baselines::Pw96Adversary::kMaximal);
  std::string s = "delivered:";
  for (Fld f : out.delivered) append_u64(s, f.to_u64());
  append_u64(s, out.attempts);
  append_u64(s, out.pairs_burned);
  return s;
}

std::string run_vabh03_scenario(net::Network& net) {
  std::vector<Fld> inputs(net.n(), Fld::zero());
  inputs[0] = Fld::from_u64(9);
  inputs[net.n() - 1] = Fld::from_u64(11);
  auto out = baselines::run_vabh03(net, inputs, 3);
  std::string s = "delivered:";
  for (Fld f : out.delivered) append_u64(s, f.to_u64());
  append_u64(s, out.groups);
  append_u64(s, out.lost);
  return s;
}

std::string run_zhang11_scenario(net::Network& net) {
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < net.n(); ++i)
    inputs.push_back(Fld::from_u64(1000 + i));
  auto out = baselines::run_zhang11(net, *vss, 0, inputs);
  std::string s = "delivered:";
  for (Fld f : out.delivered) append_u64(s, f.to_u64());
  append_u64(s, out.modelled_rounds);
  return s;
}

std::string run_pseudosig_scenario(net::Network& net) {
  pseudosig::BroadcastSimulator sim(net, vss::SchemeKind::kGGOR13,
                                    anonchan::Params::practical(net.n(), 3),
                                    pseudosig::PsParams{5, 4, 2});
  sim.setup();
  auto r = sim.broadcast(0, pseudosig::Msg::from_u64(101));
  std::string s;
  s += r.agreement ? '1' : '0';
  s += r.validity ? '1' : '0';
  for (const auto& m : r.outputs) append_u64(s, m.to_u64());
  append_u64(s, sim.setup_costs().rounds);
  return s;
}

// Adversarial configurations: the rushing share-corrupting adversary
// rewrites corrupt parties' pending messages via replace_pending after
// seeing this round's honest traffic; the silent adversary drops them.
// Both decisions must be identical across thread counts.
std::string run_rushing_scenario(net::Network& net) {
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  return run_anonchan(net, vss::SchemeKind::kRB);
}

std::string run_drop_scenario(net::Network& net) {
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::SilentAdversary>());
  return run_anonchan(net, vss::SchemeKind::kRB);
}

// An inconsistent dealer who resolves: its garbage R1 slices make the R2
// cross-evaluation compare raise complaints, which it then answers. Its
// batch (1000) is not a multiple of the 512-index R2 evaluation block, so
// the sweep's partial tail block is on the complaint path too. The
// complaint, qualification and blame outcomes must match across lanes.
std::string run_inconsistent_dealer_scenario(net::Network& net) {
  net.set_corrupt(0, true);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  vss->set_dealer_behaviour(0, vss::DealerBehaviour::kInconsistentThenResolve);
  std::vector<std::vector<Fld>> batches(net.n());
  for (std::size_t d = 0; d < net.n(); ++d)
    for (std::size_t k = 0; k < (d == 0 ? 1000u : 300u + 7 * d); ++k)
      batches[d].push_back(Fld::from_u64(10000 * d + k));
  const auto result = vss->share_all(batches);
  std::string s = "qualified:";
  for (bool q : result.qualified) s += q ? '1' : '0';
  s += " blames:";
  for (const auto& b : net.blames()) {
    append_u64(s, b.accuser);
    append_u64(s, b.accused);
    s += b.reason + ' ';
  }
  std::vector<vss::LinComb> values;
  for (std::size_t k = 0; k < batches[0].size(); k += 37)
    values.push_back(vss::LinComb::of({0, k}));
  s += " recon:";
  for (Fld f : vss->reconstruct_public(values)) append_u64(s, f.to_u64());
  return s;
}

constexpr Scenario kScenarios[] = {
    {"anonchan_rb", 5, run_anonchan_rb},
    {"anonchan_bgw", 4, run_anonchan_bgw},
    {"anonchan_ggor", 5, run_anonchan_ggor},
    {"dcnet", 5, run_dcnet_scenario},
    {"pw96", 4, run_pw96_scenario},
    {"vabh03", 6, run_vabh03_scenario},
    {"zhang11", 4, run_zhang11_scenario},
    {"pseudosig_setup", 4, run_pseudosig_scenario},
    {"anonchan_rushing_adversary", 5, run_rushing_scenario},
    {"anonchan_drop_adversary", 5, run_drop_scenario},
    {"vss_inconsistent_dealer", 5, run_inconsistent_dealer_scenario},
};

constexpr std::uint64_t kSeeds[] = {1001, 20140715, 987654321};

class ParallelEngineTest : public ::testing::Test {
 protected:
  // Metric deltas below assume a quiescent registry; zero the process-wide
  // counters (keeping cached handles valid) so earlier tests can't skew a
  // before/after difference.
  void SetUp() override { metrics::Registry::reset_for_test(); }
};

TEST_F(ParallelEngineTest, SerialAndParallelExecutionsAreByteIdentical) {
  const std::size_t hw = hardware_threads();
  std::vector<std::size_t> thread_counts = {2, 4};
  // hw == 1 would just repeat the serial baseline; hw == 2 or 4 is covered.
  if (hw > 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);

  for (const Scenario& sc : kScenarios) {
    for (std::uint64_t seed : kSeeds) {
      const RunResult serial = execute(sc, seed, 1);
      ASSERT_FALSE(serial.recording.rounds.empty()) << sc.name;
      for (std::size_t threads : thread_counts) {
        const RunResult parallel = execute(sc, seed, threads);
        SCOPED_TRACE(std::string(sc.name) + " seed=" + std::to_string(seed) +
                     " threads=" + std::to_string(threads));
        EXPECT_TRUE(identical(serial.recording, parallel.recording));
        EXPECT_EQ(serial.output, parallel.output);
        EXPECT_EQ(serial.costs, parallel.costs);
        EXPECT_EQ(serial.net_metrics, parallel.net_metrics);
      }
    }
  }
}

TEST_F(ParallelEngineTest, RepeatedParallelRunsAreStable) {
  // Two parallel executions with the same seed and lane count must agree
  // with each other too (no hidden dependence on pool scheduling history).
  const Scenario& sc = kScenarios[0];
  const RunResult a = execute(sc, 4242, 4);
  const RunResult b = execute(sc, 4242, 4);
  EXPECT_TRUE(identical(a.recording, b.recording));
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.costs, b.costs);
}

TEST_F(ParallelEngineTest, OversubscribedLanesStayDeterministic) {
  // More lanes than parties (and than cores): the engine clamps strands to
  // the index range; results still match serial.
  const Scenario& sc = kScenarios[0];
  const RunResult serial = execute(sc, 555, 1);
  const RunResult wide = execute(sc, 555, 64);
  EXPECT_TRUE(identical(serial.recording, wide.recording));
  EXPECT_EQ(serial.output, wide.output);
  EXPECT_EQ(serial.costs, wide.costs);
}

TEST_F(ParallelEngineTest, ThreadSettingDoesNotLeakAcrossNetworks) {
  // set_threads is per network; a new network picks up the process default.
  net::Network a(4, 1);
  a.set_threads(8);
  net::Network b(4, 1);
  EXPECT_EQ(b.threads(), default_threads());
  EXPECT_EQ(a.threads(), 8u);
}

}  // namespace
}  // namespace gfor14
