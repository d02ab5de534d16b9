// Differential suite for the span-kernel batch layer (ff/batch.hpp): every
// GF(2^64) batch operation must agree bit-for-bit with the scalar
// elementwise oracle across span lengths (including empty, odd, and
// unaligned) and every kernel configuration reachable on the host —
// scalar-kernel overrides (bitloop / table / hardware) crossed with the
// span-kernel override (scalar / wide). The SoA share containers ride the
// same contract, and a recorded adversarial AnonChan session replays
// byte-identically at 1 and 4 worker lanes under both span kernels,
// certifying that none of the wide paths leaks into the wire transcript.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/replay.hpp"
#include "common/rng.hpp"
#include "ff/batch.hpp"
#include "ff/gf2e.hpp"
#include "ff/kernel.hpp"
#include "ff/ops.hpp"
#include "math/bivariate.hpp"
#include "math/lagrange_cache.hpp"
#include "math/poly.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"
#include "vss/soa.hpp"

namespace gfor14 {
namespace {

/// Lengths that hit every vector-width boundary: empty, sub-lane, one lane,
/// 2 and 4 element SIMD groups, the 256-bit (4x64) groups plus remainders,
/// and longer spans with and without a remainder.
const std::size_t kLens[] = {0,  1,  2,  3,   7,   8,   15,  16,  17,
                             31, 32, 63, 64,  65,  255, 256, 257, 1000};

/// A kernel configuration under test: a scalar multiply kernel (the
/// dispatch the wide path degrades through) plus a span kernel.
struct KernelConfig {
  ff::Kernel scalar;
  ff::SpanKernel span;
};

std::vector<KernelConfig> host_configs() {
  std::vector<KernelConfig> configs = {
      {ff::Kernel::kBitloop, ff::SpanKernel::kScalar},
      {ff::Kernel::kBitloop, ff::SpanKernel::kWide},
      {ff::Kernel::kTable, ff::SpanKernel::kScalar},
      {ff::Kernel::kTable, ff::SpanKernel::kWide},
  };
  if (ff::hardware_available()) {
#if defined(__x86_64__) || defined(_M_X64)
    const ff::Kernel hw = ff::Kernel::kPclmul;
#else
    const ff::Kernel hw = ff::Kernel::kPmull;
#endif
    configs.push_back({hw, ff::SpanKernel::kScalar});
    configs.push_back({hw, ff::SpanKernel::kWide});
  }
  return configs;
}

/// RAII kernel override: applies a config, restores dispatch on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(KernelConfig c) {
    EXPECT_TRUE(ff::set_kernel(c.scalar));
    EXPECT_TRUE(ff::set_span_kernel(c.span));
  }
  ~ScopedKernels() {
    ff::reset_kernel();
    ff::reset_span_kernel();
  }
};

template <typename F>
class FfBatchTest : public ::testing::Test {};

using BatchFieldTypes = ::testing::Types<F64>;
TYPED_TEST_SUITE(FfBatchTest, BatchFieldTypes);

template <typename F>
std::vector<F> random_vec(Rng& rng, std::size_t len) {
  std::vector<F> v(len);
  for (auto& x : v) x = F::random(rng);
  return v;
}

TYPED_TEST(FfBatchTest, AxpyMatchesScalarOracleAcrossKernels) {
  constexpr unsigned kBits = TypeParam::kBits;
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    Rng rng(211);
    for (const std::size_t len : kLens) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        if (off > len) continue;
        const auto x = random_vec<TypeParam>(rng, len);
        auto y = random_vec<TypeParam>(rng, len);
        const TypeParam c = TypeParam::random(rng);
        auto expect = y;
        for (std::size_t i = off; i < len; ++i) expect[i] += c * x[i];
        ff::batch::axpy<kBits>(
            c, std::span<const TypeParam>(x.data() + off, len - off),
            std::span<TypeParam>(y.data() + off, len - off));
        ASSERT_EQ(y, expect)
            << "len=" << len << " off=" << off << " scalar_kernel="
            << ff::kernel_name(cfg.scalar)
            << " span=" << ff::span_kernel_name(cfg.span);
      }
    }
  }
}

TYPED_TEST(FfBatchTest, DotMatchesScalarOracleAcrossKernels) {
  constexpr unsigned kBits = TypeParam::kBits;
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    Rng rng(223);
    for (const std::size_t len : kLens) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        if (off > len) continue;
        const auto a = random_vec<TypeParam>(rng, len);
        const auto b = random_vec<TypeParam>(rng, len);
        const std::span<const TypeParam> sa(a.data() + off, len - off);
        const std::span<const TypeParam> sb(b.data() + off, len - off);
        // The oracle is ff::dot itself (Wide accumulation): the batch layer
        // promises identical bits, not merely an equal field value.
        const TypeParam expect = ff::dot(sa, sb);
        ASSERT_EQ(ff::batch::dot<kBits>(sa, sb), expect)
            << "len=" << len << " off=" << off << " scalar_kernel="
            << ff::kernel_name(cfg.scalar)
            << " span=" << ff::span_kernel_name(cfg.span);
      }
    }
  }
}

TYPED_TEST(FfBatchTest, ScaleAndHornerFoldMatchScalarOracle) {
  constexpr unsigned kBits = TypeParam::kBits;
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    Rng rng(227);
    for (const std::size_t len : kLens) {
      const TypeParam c = TypeParam::random(rng);
      auto y = random_vec<TypeParam>(rng, len);
      auto expect = y;
      for (auto& v : expect) v = c * v;
      ff::batch::scale<kBits>(c, std::span<TypeParam>(y));
      ASSERT_EQ(y, expect) << "scale len=" << len;

      const auto plane = random_vec<TypeParam>(rng, len);
      auto acc = random_vec<TypeParam>(rng, len);
      auto fold_expect = acc;
      for (std::size_t i = 0; i < len; ++i)
        fold_expect[i] = c * fold_expect[i] + plane[i];
      ff::batch::horner_fold<kBits>(c, std::span<TypeParam>(acc),
                                    std::span<const TypeParam>(plane));
      ASSERT_EQ(acc, fold_expect) << "horner_fold len=" << len;
      // Empty plane degrades to a pure scale step.
      auto acc2 = fold_expect;
      auto scale_expect = fold_expect;
      for (auto& v : scale_expect) v = c * v;
      ff::batch::horner_fold<kBits>(c, std::span<TypeParam>(acc2),
                                    std::span<const TypeParam>());
      ASSERT_EQ(acc2, scale_expect) << "horner_fold empty plane len=" << len;
    }
  }
}

TEST(SpanKernelDispatch, OverrideAndResetTrackKernels) {
  // An override is what active_span_kernel() reports until reset; a reset
  // re-resolves from GFOR14_FF_BATCH on next use.
  for (const ff::SpanKernel k : {ff::SpanKernel::kScalar,
                                 ff::SpanKernel::kWide}) {
    ScopedKernels guard({ff::Kernel::kTable, k});
    EXPECT_EQ(ff::active_span_kernel(), k);
    EXPECT_STREQ(ff::active_span_kernel_name(), ff::span_kernel_name(k));
  }
  EXPECT_NE(ff::active_span_kernel_name(), nullptr);
}

// --- SoA share containers (vss/soa.hpp) ------------------------------------

TEST(SoaContainers, SliceBlockMatchesPolyEvalAndWireRoundTrip) {
  Rng rng(239);
  const std::size_t m = 37, coeffs = 4;
  std::vector<Poly> polys;
  vss::SliceBlock block;
  block.assign(m, coeffs);
  for (std::size_t k = 0; k < m; ++k) {
    polys.push_back(Poly::random(rng, coeffs - 1));
    block.set_poly(k, polys.back());
  }
  for (const Fld x : {Fld::zero(), Fld::one(), Fld::random(rng)}) {
    std::vector<Fld> all(m);
    block.eval_range(x, 0, std::span<Fld>(all));
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_EQ(all[k], polys[k].eval(x)) << "k=" << k;
      EXPECT_EQ(block.eval_at(k, x), polys[k].eval(x)) << "k=" << k;
    }
    // An interior range (odd base, odd length) matches the same entries.
    std::vector<Fld> part(m - 12);
    block.eval_range(x, 5, std::span<Fld>(part));
    for (std::size_t i = 0; i < part.size(); ++i)
      EXPECT_EQ(part[i], polys[5 + i].eval(x)) << "i=" << i;
  }
  // k-major wire layout round-trips bit-for-bit: coefficient rows appended
  // as wire elements load back into the same planes; append_eval writes
  // exactly what eval_range computes.
  std::vector<Fld> rows;
  for (std::size_t c = 0; c < coeffs; ++c)
    rows.insert(rows.end(), block.plane(c).begin(), block.plane(c).end());
  std::vector<Fld> wire = {Fld::one()};  // appends after existing content
  vss::append_kmajor(std::span<const Fld>(rows), m, wire);
  ASSERT_EQ(wire.size(), 1 + m * coeffs);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t c = 0; c < coeffs; ++c)
      EXPECT_EQ(wire[1 + k * coeffs + c], block.plane(c)[k]);
  vss::SliceBlock back;
  back.load_kmajor(std::span<const Fld>(wire).subspan(1), coeffs);
  ASSERT_EQ(back.size(), m);
  ASSERT_EQ(back.coeffs_per_poly(), coeffs);
  for (std::size_t c = 0; c < coeffs; ++c) {
    const auto a = block.plane(c);
    const auto b = back.plane(c);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  const Fld x = Fld::random(rng);
  std::vector<Fld> ranged(m - 12), appended = {Fld::one()};
  block.eval_range(x, 5, std::span<Fld>(ranged));
  block.append_eval(x, 5, m - 12, appended);
  ASSERT_EQ(appended.size(), 1 + ranged.size());
  EXPECT_TRUE(std::equal(ranged.begin(), ranged.end(), appended.begin() + 1));
}

TEST(SoaContainers, DealerPlanesMatchSymmetricBivariateOracle) {
  // Across block boundaries: the planes hold exactly the polynomials that
  // successive SymmetricBivariate::random_with_secret calls on the same
  // stream draw, and slices / point values read from them agree bit-for-bit.
  const std::size_t b = vss::kDealBlock;
  for (const std::size_t deg : {1u, 2u, 5u})
    for (const std::size_t m : {std::size_t{1}, b - 1, b + 1, 3 * b + 7}) {
      Rng draw(600 + deg), oracle_rng(600 + deg), secrets_rng(9);
      const auto secrets = random_vec<Fld>(secrets_rng, m);
      vss::DealerPlanes planes;
      planes.deal(draw, deg, std::span<const Fld>(secrets));
      ASSERT_EQ(planes.size(), m);
      std::vector<SymmetricBivariate> oracle;
      for (std::size_t k = 0; k < m; ++k)
        oracle.push_back(SymmetricBivariate::random_with_secret(
            oracle_rng, deg, secrets[k]));
      EXPECT_EQ(draw.next_u64(), oracle_rng.next_u64()) << "draw count";
      const Fld y0 = eval_point<64>(3), x0 = eval_point<64>(1);
      // An interior block range (odd base) and the full batch.
      for (const auto& [lo, len] : {std::pair{std::size_t{0}, m},
                                   std::pair{m / 3, m - m / 3}}) {
        std::vector<Fld> rows((deg + 1) * len);
        planes.slice_rows(y0, lo, len, std::span<Fld>(rows));
        for (std::size_t i = 0; i < len; ++i) {
          const Poly slice = oracle[lo + i].slice(y0);
          const auto& ec = slice.coeffs();
          for (std::size_t c = 0; c <= deg; ++c)
            ASSERT_EQ(rows[c * len + i], c < ec.size() ? ec[c] : Fld::zero())
                << "deg=" << deg << " m=" << m << " k=" << lo + i;
        }
      }
      for (std::size_t k = 0; k < m; k += 17)
        ASSERT_EQ(planes.eval(k, x0, y0), oracle[k].eval(x0, y0)) << k;
    }
}

TEST(SoaContainers, SliceBlockAppendZeroGrowsAPool) {
  // A dealer's share pool grows by zero columns per sharing phase; earlier
  // columns survive and ranges past the first block evaluate like eval_at.
  Rng rng(251);
  vss::SliceBlock pool;
  pool.assign(0, 3);
  EXPECT_EQ(pool.append_zero(8), 0u);
  std::vector<Poly> polys;
  for (std::size_t k = 0; k < 8; ++k) {
    polys.push_back(Poly::random(rng, 2));
    pool.set_poly(k, polys.back());
  }
  EXPECT_EQ(pool.append_zero(5), 8u);
  ASSERT_EQ(pool.size(), 13u);
  for (std::size_t k = 8; k < 13; ++k) {
    EXPECT_EQ(pool.eval_at(k, Fld::one()), Fld::zero());
    polys.push_back(Poly::random(rng, 2));
    pool.set_poly(k, polys.back());
  }
  const Fld alpha = eval_point<64>(2);
  std::vector<Fld> ranged(5);
  pool.eval_range(alpha, 8, std::span<Fld>(ranged));
  for (std::size_t i = 0; i < ranged.size(); ++i)
    EXPECT_EQ(ranged[i], pool.eval_at(8 + i, alpha)) << "i=" << i;
  for (std::size_t k = 0; k < pool.size(); ++k)
    EXPECT_EQ(pool.eval_at(k, alpha), polys[k].eval(alpha)) << "k=" << k;
}

// --- end-to-end byte identity ----------------------------------------------

/// Records the RB anonymous channel at n = 5 under a fault plan and a
/// rushing share-corrupting adversary (the audit_replay_test configuration:
/// the richest wire transcript the protocol produces).
net::Recording record_run(std::uint64_t seed, std::size_t threads) {
  net::Network net(5, seed);
  net.set_threads(threads);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  net::FaultPlan plan;
  plan.corrupt_element(2, 0, net::kAllReceivers, 2).drop(4, 0, 2);
  net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
  auto recorder =
      std::make_shared<net::Recorder>(net::Recorder::Options{true});
  net.attach_observer(recorder);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  chan.run(4, inputs);
  return recorder->take();
}

std::optional<audit::Divergence> replay_run(const net::Recording& reference,
                                            std::uint64_t seed,
                                            std::size_t threads) {
  net::Network net(5, seed);
  net.set_threads(threads);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  net::FaultPlan plan;
  plan.corrupt_element(2, 0, net::kAllReceivers, 2).drop(4, 0, 2);
  net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
  auto verifier = std::make_shared<audit::ReplayVerifier>(reference);
  net.attach_observer(verifier);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  chan.run(4, inputs);
  return verifier->finish();
}

TEST(BatchByteIdentity, ReplayHoldsAcrossLanesAndSpanKernels) {
  // Record under the default (wide) span kernel at one lane, then certify
  // the transcript byte-for-byte at 1 and 4 lanes, and again with the span
  // layer forced scalar: the SoA/batch hot paths must be invisible on the
  // wire regardless of lane count or kernel choice.
  LagrangeCache::instance().clear();
  const net::Recording reference = record_run(4241, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LagrangeCache::instance().clear();
    const auto divergence = replay_run(reference, 4241, threads);
    EXPECT_FALSE(divergence.has_value())
        << "diverged at " << threads << " lanes: round "
        << divergence->round;
  }
  {
    ScopedKernels guard({ff::Kernel::kTable, ff::SpanKernel::kScalar});
    LagrangeCache::instance().clear();
    const auto divergence = replay_run(reference, 4241, 4);
    EXPECT_FALSE(divergence.has_value())
        << "scalar span kernel diverged: round " << divergence->round;
  }
  LagrangeCache::instance().clear();
}

}  // namespace
}  // namespace gfor14
