// Pinned transcript digests. Each case runs a fixed seeded session with a
// headers-tier flight recorder attached and asserts the final transcript
// digest equals a recorded constant. The four AnonChan cases are the
// `gfor14_cli channel` invocations named in each test (same inputs, receiver
// and fault seed), so their digests equal the `final digest` the CLI prints
// under --record. The two VSS-level cases drive `share_all` with a dealer
// that hands out inconsistent slices, covering the garbage-slice,
// complaint, resolution and slice-opening paths of the sharing phase; the
// two mirror-claims cases add a rushing adversary that rewrites the corrupt
// parties' R2 cross-evaluation claims, so the consistency check has to
// tell a tampered sent claim from the value the party actually holds.
//
// The digests are lane-count and kernel independent (DESIGN §8), so every
// case runs at 1 and 4 lanes. A changed constant is a transcript change:
// it must come with a reason, never with a silent re-pin.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "anonchan/attacks.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

struct ChannelCase {
  vss::SchemeKind scheme;
  std::size_t n, kappa;
  std::uint64_t seed;
  std::string faults;  // CLI --faults spec, "" = none
  bool dense_attack;   // CLI --attack dense (party 0 corrupt)
};

/// `gfor14_cli channel` without the printing: same network, fault engine
/// (seeded with --seed), inputs 0xA0000 + i and receiver n - 1.
std::string channel_digest(const ChannelCase& c, std::size_t threads) {
  net::Network net(c.n, c.seed);
  net.set_threads(threads);
  if (!c.faults.empty()) {
    const auto plan = net::FaultPlan::parse(c.faults);
    EXPECT_TRUE(plan.has_value()) << c.faults;
    if (!plan) return "";
    for (net::PartyId p : plan->senders()) net.set_corrupt(p, true);
    net.attach_faults(std::make_shared<net::FaultEngine>(*plan, c.seed));
  }
  auto recorder =
      std::make_shared<net::Recorder>(net::Recorder::Options{false});
  net.attach_observer(recorder);
  auto vss = vss::make_vss(c.scheme, net);
  anonchan::AnonChan chan(net, *vss,
                          anonchan::Params::practical(c.n, c.kappa));
  if (c.dense_attack) {
    net.set_corrupt(0, true);
    chan.set_strategy(0, std::make_shared<anonchan::DenseVectorAttack>());
  }
  std::vector<Fld> inputs(c.n);
  for (std::size_t i = 0; i < c.n; ++i) inputs[i] = Fld::from_u64(0xA0000 + i);
  chan.run(c.n - 1, inputs);
  return net::hex_u64(recorder->recording().final_digest);
}

/// Rushing adversary on the sharing phase's R2 (round index 1): every
/// corrupt party c, in ascending order, sends each peer j as its claim
/// f_c(alpha_j) the claim pending from j to c at that moment. A later
/// corrupt party therefore mirrors an earlier one's already-mirrored claim.
std::shared_ptr<net::Adversary> mirror_claims() {
  return std::make_shared<net::CallbackAdversary>([](net::Network& net) {
    if (net.costs().rounds != 1) return;
    for (net::PartyId c = 0; c < net.n(); ++c) {
      if (!net.is_corrupt(c)) continue;
      std::vector<std::pair<net::PartyId, net::Payload>> mirror;
      for (const auto& view : net.pending_to_corrupt(c))
        mirror.emplace_back(view.peer, view.payload());
      for (auto& [j, payload] : mirror)
        net.replace_pending(c, j, {std::move(payload)});
    }
  });
}

/// RB sharing at n = 7 with dealer 0 corrupt and misbehaving: it holds a
/// batch spanning several slice blocks, next to two honest dealers; the
/// committed values are then opened publicly so they enter the digest.
/// With `mirror`, party 1 is corrupt too and both run mirror_claims().
std::string vss_digest(vss::DealerBehaviour behaviour, std::uint64_t seed,
                       std::size_t threads, bool mirror = false) {
  constexpr std::size_t n = 7;
  net::Network net(n, seed);
  net.set_threads(threads);
  net.set_corrupt(0, true);
  if (mirror) {
    net.set_corrupt(1, true);
    net.attach_adversary(mirror_claims());
  }
  auto recorder =
      std::make_shared<net::Recorder>(net::Recorder::Options{false});
  net.attach_observer(recorder);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  vss->set_dealer_behaviour(0, behaviour);
  std::vector<std::vector<Fld>> batches(n);
  const std::size_t sizes[n] = {1100, 0, 700, 0, 0, 3, 0};
  std::vector<vss::LinComb> values;
  for (net::PartyId d = 0; d < n; ++d)
    for (std::size_t k = 0; k < sizes[d]; ++k) {
      batches[d].push_back(Fld::from_u64(1000 * d + k));
      values.push_back(vss::LinComb::of({d, k}));
    }
  const auto result = vss->share_all(batches);
  EXPECT_EQ(result.qualified[0],
            behaviour == vss::DealerBehaviour::kInconsistentThenResolve);
  EXPECT_TRUE(result.qualified[2]);
  EXPECT_TRUE(result.qualified[5]);
  const auto opened = vss->reconstruct_public(values);
  std::size_t vi = 0;
  for (net::PartyId d = 0; d < n; ++d)
    for (std::size_t k = 0; k < sizes[d]; ++k, ++vi) {
      const Fld expect = d == 0 && !result.qualified[0]
                             ? Fld::zero()
                             : Fld::from_u64(1000 * d + k);
      EXPECT_EQ(opened[vi], expect) << "d=" << d << " k=" << k;
    }
  return net::hex_u64(recorder->recording().final_digest);
}

TEST(TranscriptPin, ChannelRbN8Seed7) {
  // gfor14_cli channel --n 8 --kappa 2 --seed 7
  const ChannelCase c{vss::SchemeKind::kRB, 8, 2, 7, "", false};
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(channel_digest(c, threads), "6fe888c0e33e190f") << threads;
}

TEST(TranscriptPin, ChannelBgwN7Seed3CorruptFault) {
  // gfor14_cli channel --scheme bgw --n 7 --kappa 2 --seed 3
  //   --faults "corrupt@2:1->*:3"
  const ChannelCase c{vss::SchemeKind::kBGW, 7, 2, 3, "corrupt@2:1->*:3",
                      false};
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(channel_digest(c, threads), "b138e1be328d2734") << threads;
}

TEST(TranscriptPin, ChannelGgorN6Seed5) {
  // gfor14_cli channel --scheme ggor --n 6 --kappa 2 --seed 5
  const ChannelCase c{vss::SchemeKind::kGGOR13, 6, 2, 5, "", false};
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(channel_digest(c, threads), "b755ca2f6a4e8d1b") << threads;
}

TEST(TranscriptPin, ChannelRbN8Seed9DenseAttack) {
  // gfor14_cli channel --n 8 --kappa 2 --seed 9 --attack dense
  const ChannelCase c{vss::SchemeKind::kRB, 8, 2, 9, "", true};
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(channel_digest(c, threads), "58a927fe59e8b74f") << threads;
}

TEST(TranscriptPin, ShareAllInconsistentDealerResolves) {
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(vss_digest(vss::DealerBehaviour::kInconsistentThenResolve, 21,
                         threads),
              "ebb23a830802b764")
        << threads;
}

TEST(TranscriptPin, ShareAllInconsistentDealerRefuses) {
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(
        vss_digest(vss::DealerBehaviour::kInconsistentRefuse, 23, threads),
        "ebdf65de27cbbafc")
        << threads;
}

TEST(TranscriptPin, ShareAllMirrorClaimsInconsistentDealerResolves) {
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(vss_digest(vss::DealerBehaviour::kInconsistentThenResolve, 21,
                         threads, true),
              "344658b2c1d9ab96")
        << threads;
}

TEST(TranscriptPin, ShareAllMirrorClaimsInconsistentDealerRefuses) {
  for (std::size_t threads : {1, 4})
    EXPECT_EQ(vss_digest(vss::DealerBehaviour::kInconsistentRefuse, 21,
                         threads, true),
              "4690cd781093467e")
        << threads;
}

}  // namespace
}  // namespace gfor14
