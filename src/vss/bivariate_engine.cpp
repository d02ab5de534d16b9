#include "vss/bivariate_engine.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <set>
#include <type_traits>

#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "ff/batch.hpp"
#include "ff/ops.hpp"
#include "math/berlekamp_welch.hpp"
#include "math/lagrange_cache.hpp"

namespace gfor14::vss {

namespace {

Fld enc(std::size_t v) { return Fld::from_u64(static_cast<std::uint64_t>(v)); }

/// Slice indices per cache block of the R2 cross-evaluation sweep: t + 1
/// planes of this many elements fit L1 while all n - 1 peer points are
/// evaluated over them.
constexpr std::size_t kEvalBlock = 512;

/// Values per lane task in the reconstruction decode (both the IC
/// accept-set walk and the Berlekamp-Welch span decode).
constexpr std::size_t kDecodeChunk = 2048;

/// Decodes a size_t that was encoded with enc(); nullopt when out of range.
std::optional<std::size_t> dec(Fld f, std::size_t bound) {
  const std::uint64_t v = f.to_u64();
  if (f != Fld::from_u64(v) || v >= bound) return std::nullopt;
  return static_cast<std::size_t>(v);
}

}  // namespace

BivariateEngine::BivariateEngine(net::Network& net, EngineProfile profile)
    : net_(net),
      vss_alloc_count_(&net.registry().counter("vss.alloc.count")),
      vss_alloc_bytes_(&net.registry().counter("vss.alloc.bytes")),
      profile_(profile),
      behaviour_(net.n(), DealerBehaviour::kHonest),
      qualified_(net.n(), true),
      pools_(net.n()) {
  GFOR14_EXPECTS(profile_.t < net.n());
}

void BivariateEngine::set_dealer_behaviour(net::PartyId dealer,
                                           DealerBehaviour b) {
  GFOR14_EXPECTS(dealer < net_.n());
  behaviour_[dealer] = b;
}

std::size_t BivariateEngine::count(net::PartyId dealer) const {
  GFOR14_EXPECTS(dealer < net_.n());
  return pools_[dealer].size();
}

std::size_t BivariateEngine::share_rounds() const {
  // R1 slices, R2 cross-evaluations, 6 publish steps (complaints,
  // resolutions, accusations x2, slice openings x2) costing 1 round under
  // physical broadcast or 2 under echo, the vote broadcast (always
  // physical), the GGOR confirmation broadcast, and padding.
  if (profile_.publish == PublishMode::kPhysicalBroadcast)
    return 2 + 6 + 1 + profile_.pad_rounds;
  return 2 + 6 * 2 + 1 + 1 + profile_.pad_rounds;
}

std::size_t BivariateEngine::share_broadcast_rounds() const {
  // Echo profile: only the vote round and the dealer confirmation touch the
  // physical broadcast channel — the two broadcasts of GGOR13.
  return profile_.publish == PublishMode::kPhysicalBroadcast ? 7 : 2;
}

// ---------------------------------------------------------------------------
// Sharing phase
// ---------------------------------------------------------------------------

struct BivariateEngine::ShareCtx {
  const std::vector<std::vector<Fld>>* batches = nullptr;
  std::vector<net::PartyId> dealers;  // dealers with non-empty batches
  std::size_t total_m = 0;            // sum of batch sizes

  // Hoisted evaluation points alpha[i] = eval_point<64>(i) — the SoA
  // context shared by every round so no payload loop recomputes them.
  std::vector<Fld> alpha;

  // Ground truth polynomials per dealer (indexed like batches): the
  // dealer's upper-triangular coefficient planes, the only copy.
  std::vector<DealerPlanes> dealt;
  // recv[i][d]: the slice block party i currently holds for dealer d
  // (plane(c)[k] = x^c coefficient of the k-th slice); evolves as published
  // slices are adopted. Dealer d fills recv[d][d] in R1; party i fills the
  // rest of recv[i] from its R1 inbox.
  std::vector<std::vector<SliceBlock>> recv;

  struct Complaint {
    std::size_t d, k, lo, hi;  // pair {lo, hi}, lo < hi
    auto operator<=>(const Complaint&) const = default;
  };
  std::set<Complaint> complaints;
  // Published resolution values keyed by complaint.
  std::map<Complaint, Fld> resolutions;
  // Public fault flags per dealer (missing/inconsistent publications).
  std::vector<bool> public_fault;
  // Everything the dealer has published so far: party -> slices per k.
  std::vector<std::map<net::PartyId, std::vector<Poly>>> published;
  // Current accuser set per dealer (level being processed).
  std::vector<std::set<net::PartyId>> accusers;
  // Private conflict flag per (party, dealer).
  std::vector<std::vector<bool>> conflicted;
};

void BivariateEngine::round_distribute_slices(ShareCtx& ctx) {
  const std::size_t n = net_.n();
  const std::size_t t = profile_.t;
  const auto m_of = [&](net::PartyId d) { return (*ctx.batches)[d].size(); };
  // Dealer work, before the round: out[d][i] is dealer d's slice payload
  // for party i. Dealer d only touches rng_of(d), dealt[d], out[d] and its
  // own recv[d][d] slot, so dealers are independent tasks; the largest
  // batches start first so no lane idles behind one at the end.
  std::vector<std::vector<net::Payload>> out(n, std::vector<net::Payload>(n));
  std::vector<net::PartyId> by_size = ctx.dealers;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](net::PartyId a, net::PartyId b) {
                     return m_of(a) > m_of(b);
                   });
  ThreadPool::instance().parallel_for(
      0, by_size.size(), net_.threads(), [&](std::size_t x) {
        const net::PartyId d = by_size[x];
        const std::size_t m = m_of(d);
        // Polynomial generation: the draws land straight in the
        // coefficient planes, in SymmetricBivariate's order (per k, storage
        // order, then the secret overwrites (0, 0)).
        ctx.dealt[d].deal(net_.rng_of(d), t, (*ctx.batches)[d]);
        const DealerBehaviour b = behaviour_[d];
        if (b == DealerBehaviour::kSilent) {
          ctx.recv[d][d].assign(m, t + 1);
          return;
        }
        // A misbehaving dealer hands garbage slices to every second party
        // (other than itself) — enough to exercise complaint/resolution.
        // The per-(i, k) RNG draw order is part of the transcript contract,
        // so they are drawn in i order by the scalar loop (honest slices
        // draw nothing).
        const bool inconsistent =
            b == DealerBehaviour::kInconsistentThenResolve ||
            b == DealerBehaviour::kInconsistentRefuse;
        std::vector<net::PartyId> honest;
        for (net::PartyId i = 0; i < n; ++i) {
          out[d][i].reserve(i == d ? 0 : m * (t + 1));
          if (!(inconsistent && i != d && i % 2 == 1)) {
            honest.push_back(i);
            continue;
          }
          for (std::size_t k = 0; k < m; ++k) {
            const Poly slice = Poly::random(net_.rng_of(d), t);
            for (std::size_t c = 0; c <= t; ++c)
              out[d][i].push_back(c < slice.coeffs().size() ? slice.coeffs()[c]
                                                            : Fld::zero());
          }
        }
        // Honest slices, one cache block of indices at a time: every
        // peer's slice rows are computed while the block's planes stay
        // resident, then appended to that peer's k-major payload (the
        // dealer's own rows go to its slice block; no self-message).
        const DealerPlanes& planes = ctx.dealt[d];
        ctx.recv[d][d].reserve(m, t + 1);
        std::vector<Fld> rows((t + 1) * std::min(m, kDealBlock));
        for (std::size_t lo = 0; lo < m; lo += kDealBlock) {
          const std::size_t len = std::min(kDealBlock, m - lo);
          const std::span<Fld> block(rows.data(), (t + 1) * len);
          for (net::PartyId i : honest) {
            planes.slice_rows(ctx.alpha[i], lo, len, block);
            if (i == d)
              ctx.recv[d][d].append_rows(block, len);
            else
              append_kmajor(block, len, out[d][i]);
          }
        }
      });
  net_.run_round([&](net::PartyId d, net::RoundLane& lane) {
    const std::size_t m = m_of(d);
    if (m == 0 || behaviour_[d] == DealerBehaviour::kSilent) return;
    for (net::PartyId i = 0; i < n; ++i) {
      charge_share_buffer(m * (t + 1));
      if (i != d) lane.send(i, std::move(out[d][i]));
    }
  });
  // Parse: each party sizes and fills its own slice blocks from its inbox.
  // Wrong-size or missing payloads leave the default zero slices (the
  // paper's default-message convention) and earn the dealer a blame
  // record. Party i only writes recv[i] and its own blame bucket.
  net_.for_each_party([&](net::PartyId i) {
    for (net::PartyId d : ctx.dealers) {
      if (i == d) continue;
      const std::size_t m = (*ctx.batches)[d].size();
      const auto& msgs = net_.delivered().p2p[i][d];
      const char* fault = msgs.empty() ? "vss.slices.missing"
                          : msgs.front().size() != m * (t + 1)
                              ? "vss.slices.malformed"
                              : nullptr;
      if (fault) {
        net_.blame(i, d, fault);
        ctx.recv[i][d].assign(m, t + 1);
        continue;
      }
      ctx.recv[i][d].load_kmajor(msgs.front(), t + 1);
    }
    // The slice blocks now own every R1 value; the inbox is dead weight
    // through R2.
    net_.release_inbox(i);
  });
}

void BivariateEngine::round_cross_evaluations(ShareCtx& ctx) {
  const std::size_t n = net_.n();
  // Walks party i's slice blocks in cache blocks of kEvalBlock indices,
  // dealer by dealer: fn(d, block, lo, len, pos) covers indices
  // [lo, lo + len) of dealer d's block, which sit at [pos, pos + len) of
  // the concatenated cross-evaluation payload. The caller evaluates each
  // block at every peer point while its t + 1 planes stay in L1.
  const auto for_each_block = [&](net::PartyId i, const auto& fn) {
    std::size_t pos = 0;
    for (net::PartyId d : ctx.dealers) {
      const SliceBlock& block = ctx.recv[i][d];
      for (std::size_t lo = 0; lo < block.size(); lo += kEvalBlock)
        fn(d, block, lo, std::min(kEvalBlock, block.size() - lo), pos + lo);
      pos += block.size();
    }
  };
  net_.run_round([&](net::PartyId i, net::RoundLane& lane) {
    std::vector<net::Payload> out(n);
    for (net::PartyId j = 0; j < n; ++j) {
      if (i == j) continue;
      out[j].reserve(ctx.total_m);
      charge_share_buffer(ctx.total_m);
    }
    // Blocks arrive in payload order, so each claim payload is built by
    // appending: every element is written once.
    for_each_block(i, [&](net::PartyId, const SliceBlock& block,
                          std::size_t lo, std::size_t len, std::size_t) {
      for (net::PartyId j = 0; j < n; ++j)
        if (i != j) block.append_eval(ctx.alpha[j], lo, len, out[j]);
    });
    for (net::PartyId j = 0; j < n; ++j)
      if (i != j) lane.send(j, std::move(out[j]));
  });
  // Compare: j's claimed f_j(alpha_i) against my f_i(alpha_j) (a missing
  // or malformed claim reads as zeros). If channel i -> j delivered my one
  // claim payload as sent, that payload is my f_i(alpha_j): one range
  // compare settles the pair, and only a mismatch is walked to name the
  // (d, k). For a rewritten channel my values are recomputed block by
  // block. Party i reads j's inbox here, read-only (DESIGN §8). Each party
  // buffers its own complaints; the merge into the (deduplicating,
  // ordered) set is order-insensitive, so neither the block order nor the
  // parallel schedule can show through.
  static_assert(std::has_unique_object_representations_v<Fld>);
  if (ctx.total_m == 0) return;  // no values (and memcmp wants non-null)
  std::vector<std::vector<ShareCtx::Complaint>> found(n);
  net_.for_each_party([&](net::PartyId i) {
    const auto& inbox = net_.delivered().p2p;
    const auto complain = [&](net::PartyId j, net::PartyId d, std::size_t k) {
      found[i].push_back(
          {d, k, std::min<std::size_t>(i, j), std::max<std::size_t>(i, j)});
    };
    std::vector<const Fld*> claims(n, nullptr);
    const auto claim_at = [&](net::PartyId j, std::size_t pos) {
      return claims[j] ? claims[j][pos] : Fld::zero();
    };
    std::vector<net::PartyId> recompute;
    for (net::PartyId j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto& msgs = inbox[i][j];
      if (!msgs.empty() && msgs.front().size() == ctx.total_m)
        claims[j] = msgs.front().data();
      const auto& sent = inbox[j][i];
      if (!net_.delivered_as_sent(i, j) || sent.size() != 1 ||
          sent.front().size() != ctx.total_m) {
        recompute.push_back(j);
        continue;
      }
      const Fld* mine = sent.front().data();
      if (claims[j] && std::memcmp(mine, claims[j],
                                   ctx.total_m * sizeof(Fld)) == 0)
        continue;
      for_each_block(i, [&](net::PartyId d, const SliceBlock&, std::size_t lo,
                            std::size_t len, std::size_t pos) {
        for (std::size_t k = 0; k < len; ++k)
          if (claim_at(j, pos + k) != mine[pos + k]) complain(j, d, lo + k);
      });
    }
    if (recompute.empty()) return;
    std::array<Fld, kEvalBlock> mine;
    for_each_block(i, [&](net::PartyId d, const SliceBlock& block,
                          std::size_t lo, std::size_t len, std::size_t pos) {
      for (net::PartyId j : recompute) {
        block.eval_range(ctx.alpha[j], lo, std::span<Fld>(mine.data(), len));
        for (std::size_t k = 0; k < len; ++k)
          if (claim_at(j, pos + k) != mine[k]) complain(j, d, lo + k);
      }
    });
  });
  for (const auto& per_party : found)
    ctx.complaints.insert(per_party.begin(), per_party.end());
}

void BivariateEngine::publish_round(const std::vector<net::Payload>& per_party,
                                    std::vector<net::Payload>& received,
                                    bool force_physical) {
  const std::size_t n = net_.n();
  received = per_party;  // the logical result every party derives
  if (force_physical ||
      profile_.publish == PublishMode::kPhysicalBroadcast) {
    net_.begin_round();
    for (net::PartyId p = 0; p < n; ++p) net_.broadcast(p, per_party[p]);
    net_.end_round();
    return;
  }
  // Echo-based virtual broadcast: senders multicast over private channels,
  // then every party echoes everything it received; receivers take the
  // majority view per sender. With static corruption and honest senders the
  // majority equals the original payload, which is the value we return.
  net_.begin_round();
  for (net::PartyId p = 0; p < n; ++p)
    for (net::PartyId q = 0; q < n; ++q)
      if (p != q) net_.send(p, q, per_party[p]);
  net_.end_round();
  net_.begin_round();
  for (net::PartyId p = 0; p < n; ++p) {
    net::Payload echo;
    for (net::PartyId s = 0; s < n; ++s) {
      echo.push_back(enc(per_party[s].size()));
      echo.insert(echo.end(), per_party[s].begin(), per_party[s].end());
    }
    for (net::PartyId q = 0; q < n; ++q)
      if (p != q) net_.send(p, q, echo);
  }
  net_.end_round();
}

void BivariateEngine::run_padding_rounds() {
  for (std::size_t r = 0; r < profile_.pad_rounds; ++r) {
    net_.begin_round();
    net_.end_round();
  }
}

ShareResult BivariateEngine::share_all(
    const std::vector<std::vector<Fld>>& batches) {
  const std::size_t n = net_.n();
  const std::size_t t = profile_.t;
  GFOR14_EXPECTS(batches.size() == n);

  trace::Span span("vss.share_all", net_);
  std::size_t total_secrets = 0;
  for (const auto& b : batches) total_secrets += b.size();
  span.metric("secrets", static_cast<double>(total_secrets));

  ShareCtx ctx;
  ctx.batches = &batches;
  ctx.alpha.resize(n);
  for (net::PartyId i = 0; i < n; ++i) ctx.alpha[i] = eval_point<64>(i);
  ctx.dealt.resize(n);
  ctx.recv.assign(n, std::vector<SliceBlock>(n));
  ctx.public_fault.assign(n, false);
  ctx.published.resize(n);
  ctx.accusers.resize(n);
  ctx.conflicted.assign(n, std::vector<bool>(n, false));
  for (net::PartyId d = 0; d < n; ++d) {
    if (batches[d].empty()) continue;
    ctx.dealers.push_back(d);
    ctx.total_m += batches[d].size();
  }
  // R1 + R2.
  round_distribute_slices(ctx);
  round_cross_evaluations(ctx);

  // Corrupt parties may raise spurious complaints (attack switch): they
  // complain about index 0 of every other dealer's batch.
  if (false_complaints_) {
    for (net::PartyId p = 0; p < n; ++p) {
      if (!net_.is_corrupt(p)) continue;
      for (net::PartyId d : ctx.dealers) {
        if (d == p) continue;
        const net::PartyId other = (p + 1) % n;
        if (other == p) continue;
        ctx.complaints.insert({d, 0, std::min<std::size_t>(p, other),
                               std::max<std::size_t>(p, other)});
      }
    }
  }

  // R3: publish complaints. Every party publishes the complaints it is part
  // of (ownership by the lower-numbered party avoids double publication).
  {
    std::vector<net::Payload> out(n);
    for (const auto& c : ctx.complaints) {
      auto& payload = out[c.lo];
      payload.push_back(enc(c.d));
      payload.push_back(enc(c.k));
      payload.push_back(enc(c.lo));
      payload.push_back(enc(c.hi));
    }
    std::vector<net::Payload> seen;
    publish_round(out, seen);
    // Parse the public complaint set (validating every field).
    ctx.complaints.clear();
    for (net::PartyId p = 0; p < n; ++p) {
      const auto& payload = seen[p];
      for (std::size_t pos = 0; pos + 4 <= payload.size(); pos += 4) {
        auto d = dec(payload[pos], n);
        auto lo = dec(payload[pos + 2], n);
        auto hi = dec(payload[pos + 3], n);
        if (!d || !lo || !hi || batches[*d].empty()) continue;
        auto k = dec(payload[pos + 1], batches[*d].size());
        if (!k || *lo >= *hi) continue;
        ctx.complaints.insert({*d, *k, *lo, *hi});
      }
    }
  }

  // R4: dealers publish resolutions F(alpha_lo, alpha_hi) per complaint.
  {
    std::vector<net::Payload> out(n);
    for (const auto& c : ctx.complaints) {
      const DealerBehaviour b = behaviour_[c.d];
      if (b == DealerBehaviour::kSilent ||
          b == DealerBehaviour::kInconsistentRefuse)
        continue;
      auto& payload = out[c.d];
      payload.push_back(enc(c.k));
      payload.push_back(enc(c.lo));
      payload.push_back(enc(c.hi));
      payload.push_back(
          ctx.dealt[c.d].eval(c.k, ctx.alpha[c.lo], ctx.alpha[c.hi]));
    }
    std::vector<net::Payload> seen;
    publish_round(out, seen);
    for (net::PartyId d = 0; d < n; ++d) {
      const auto& payload = seen[d];
      for (std::size_t pos = 0; pos + 4 <= payload.size(); pos += 4) {
        if (batches[d].empty()) break;
        auto k = dec(payload[pos], batches[d].size());
        auto lo = dec(payload[pos + 1], n);
        auto hi = dec(payload[pos + 2], n);
        if (!k || !lo || !hi || *lo >= *hi) continue;
        ctx.resolutions[{d, *k, *lo, *hi}] = payload[pos + 3];
      }
    }
    // Unresolved complaints are a public fault of the dealer.
    for (const auto& c : ctx.complaints)
      if (!ctx.resolutions.contains(c)) ctx.public_fault[c.d] = true;
    // Parties whose slices conflict with a resolution accuse (level 1).
    for (const auto& [c, value] : ctx.resolutions) {
      for (net::PartyId p : {c.lo, c.hi}) {
        const net::PartyId other = (p == c.lo) ? c.hi : c.lo;
        if (ctx.recv[p][c.d].eval_at(c.k, ctx.alpha[other]) != value)
          ctx.accusers[c.d].insert(p);
      }
    }
  }

  // Two rounds of (accusation publication, slice opening). Level 1 handles
  // resolution conflicts; level 2 handles conflicts with slices opened at
  // level 1 (see the class comment for why two levels suffice here).
  for (int level = 0; level < 2; ++level) {
    // Publish accusations.
    {
      std::vector<net::Payload> out(n);
      for (net::PartyId d : ctx.dealers)
        for (net::PartyId a : ctx.accusers[d]) out[a].push_back(enc(d));
      std::vector<net::Payload> seen;
      publish_round(out, seen);
      for (net::PartyId d : ctx.dealers) ctx.accusers[d].clear();
      for (net::PartyId a = 0; a < n; ++a)
        for (Fld f : seen[a])
          if (auto d = dec(f, n); d && !batches[*d].empty())
            ctx.accusers[*d].insert(a);
    }
    // Dealers open the accusers' full slices.
    {
      std::vector<net::Payload> out(n);
      for (net::PartyId d : ctx.dealers) {
        const DealerBehaviour b = behaviour_[d];
        if (b == DealerBehaviour::kSilent ||
            b == DealerBehaviour::kInconsistentRefuse)
          continue;
        const std::size_t m = batches[d].size();
        std::vector<Fld> rows((t + 1) * std::min(m, kDealBlock));
        for (net::PartyId a : ctx.accusers[d]) {
          auto& payload = out[d];
          payload.push_back(enc(a));
          for (std::size_t lo = 0; lo < m; lo += kDealBlock) {
            const std::size_t len = std::min(kDealBlock, m - lo);
            const std::span<Fld> block(rows.data(), (t + 1) * len);
            ctx.dealt[d].slice_rows(ctx.alpha[a], lo, len, block);
            append_kmajor(block, len, payload);
          }
        }
      }
      std::vector<net::Payload> seen;
      publish_round(out, seen);
      std::vector<std::set<net::PartyId>> next_accusers(n);
      for (net::PartyId d : ctx.dealers) {
        const std::size_t m = batches[d].size();
        const std::size_t stride = 1 + m * (t + 1);
        const auto& payload = seen[d];
        std::set<net::PartyId> opened;
        for (std::size_t pos = 0; pos + stride <= payload.size();
             pos += stride) {
          auto a = dec(payload[pos], n);
          if (!a) continue;
          std::vector<Poly> slices(m);
          for (std::size_t k = 0; k < m; ++k) {
            std::vector<Fld> coeffs(
                payload.begin() + pos + 1 + k * (t + 1),
                payload.begin() + pos + 1 + (k + 1) * (t + 1));
            slices[k] = Poly{std::move(coeffs)};
          }
          // Public cross-checks: opened slices must agree with previously
          // opened slices and with published resolutions.
          for (const auto& [b_party, b_slices] : ctx.published[d]) {
            for (std::size_t k = 0; k < m; ++k) {
              if (slices[k].eval(eval_point<64>(b_party)) !=
                  b_slices[k].eval(eval_point<64>(*a)))
                ctx.public_fault[d] = true;
            }
          }
          for (const auto& [c, value] : ctx.resolutions) {
            if (c.d != d) continue;
            if (c.lo == *a && slices[c.k].eval(eval_point<64>(c.hi)) != value)
              ctx.public_fault[d] = true;
            if (c.hi == *a && slices[c.k].eval(eval_point<64>(c.lo)) != value)
              ctx.public_fault[d] = true;
          }
          // The accuser adopts the opened slice; everyone else privately
          // cross-checks it against their own slices.
          for (std::size_t k = 0; k < m; ++k)
            ctx.recv[*a][d].set_poly(k, slices[k]);
          for (net::PartyId p = 0; p < n; ++p) {
            if (p == *a || ctx.accusers[d].contains(p)) continue;
            for (std::size_t k = 0; k < m; ++k) {
              if (ctx.recv[p][d].eval_at(k, ctx.alpha[*a]) !=
                  slices[k].eval(ctx.alpha[p])) {
                if (level == 0) {
                  next_accusers[d].insert(p);
                } else {
                  ctx.conflicted[p][d] = true;
                }
              }
            }
          }
          ctx.published[d].emplace(*a, std::move(slices));
          opened.insert(*a);
        }
        // Ignoring an accuser is a public fault.
        for (net::PartyId a : ctx.accusers[d])
          if (!opened.contains(a)) ctx.public_fault[d] = true;
      }
      for (net::PartyId d : ctx.dealers) ctx.accusers[d] = next_accusers[d];
    }
  }

  // R9: votes. A party accepts a dealer unless there is a public fault or a
  // private conflict; corrupt parties additionally reject everyone when the
  // false-complaint attack is active.
  std::vector<std::size_t> accepts(n, 0);
  {
    std::vector<net::Payload> out(n);
    for (net::PartyId p = 0; p < n; ++p) {
      for (net::PartyId d : ctx.dealers) {
        bool accept = !ctx.public_fault[d] && !ctx.conflicted[p][d];
        if (false_complaints_ && net_.is_corrupt(p)) accept = false;
        out[p].push_back(enc(accept ? 1 : 0));
      }
    }
    std::vector<net::Payload> seen;
    publish_round(out, seen, /*force_physical=*/true);
    for (net::PartyId p = 0; p < n; ++p) {
      const auto& payload = seen[p];
      for (std::size_t idx = 0; idx < ctx.dealers.size(); ++idx) {
        if (idx < payload.size() && payload[idx] == Fld::from_u64(1))
          accepts[ctx.dealers[idx]] += 1;
      }
    }
  }

  // GGOR13 profile: a final dealer confirmation on the second of its two
  // physical-broadcast rounds (the "moderator finalization").
  if (profile_.publish == PublishMode::kEcho) {
    net_.begin_round();
    for (net::PartyId d : ctx.dealers) net_.broadcast(d, {Fld::one()});
    net_.end_round();
  }
  run_padding_rounds();

  // Finalize: append sharings, derive committed share polynomials. The
  // qualification flags live in vector<bool> (adjacent bits share a byte),
  // so they are set serially; the pool growth and the interpolation work —
  // all of the cost — then run per dealer, each writing only its own pool.
  ShareResult result;
  result.qualified.assign(n, true);
  for (net::PartyId d : ctx.dealers) {
    const bool ok = accepts[d] >= n - profile_.t;
    result.qualified[d] = ok;
    if (!ok) qualified_[d] = false;
  }
  // Finalize faults found on the worker lanes (one byte per dealer slot, so
  // concurrent writers never share a byte): 1 = too few content parties,
  // 2 = a content share off the interpolated polynomial. Either one means
  // the sharing is unusable; the dealer is disqualified below and every
  // affected share polynomial stays the default zero — degradation instead
  // of an abort, per the paper's convention.
  std::vector<std::uint8_t> finalize_fault(n, 0);
  net_.for_each_party([&](net::PartyId d) {
    const std::size_t m = batches[d].size();
    if (m == 0) return;
    // New pool columns start zero: the default of a disqualified sharing,
    // and the accumulator of the interpolation below.
    SliceBlock& pool = pools_[d];
    if (pool.coeffs_per_poly() == 0) pool.assign(0, t + 1);
    const std::size_t base = pool.append_zero(m);
    if (!result.qualified[d]) return;
    const auto column = [&](std::size_t c) {
      return pool.plane(c).subspan(base, m);
    };
    // The content honest parties (those without a private conflict) are
    // the same for every index k of this dealer's batch, so the Lagrange
    // basis polynomials L_p(y) of the first t + 1 of them are computed
    // once: g(y) = sum_p y_p * L_p(y).
    std::vector<net::PartyId> content;
    std::vector<Fld> xs;
    for (net::PartyId p = 0; p < n; ++p) {
      if (net_.is_corrupt(p) || ctx.conflicted[p][d]) continue;
      content.push_back(p);
      xs.push_back(eval_point<64>(p));
    }
    if (content.size() < t + 1) {
      finalize_fault[d] = 1;
      return;
    }
    std::vector<Fld> denoms(t + 1, Fld::one());
    for (std::size_t i = 0; i <= t; ++i)
      for (std::size_t jj = 0; jj <= t; ++jj)
        if (jj != i) denoms[i] *= xs[i] - xs[jj];
    ff::batch_inverse(std::span<Fld>(denoms));  // one inversion for the basis
    std::vector<Poly> basis;
    basis.reserve(t + 1);
    for (std::size_t i = 0; i <= t; ++i) {
      Poly b = Poly::constant(Fld::one());
      for (std::size_t jj = 0; jj <= t; ++jj) {
        if (jj == i) continue;
        b = b * Poly{{xs[jj], Fld::one()}};
      }
      basis.push_back(denoms[i] * b);
    }
    // Interpolate the committed share polynomials g(y) = F(0, y) for the
    // whole batch at once: a party's final share of index k is its slice
    // evaluated at y = 0 — exactly the x^0 coefficient plane of its slice
    // block — so g's coefficient planes are t + 1 span axpys, and the
    // consistency sweep (every other content honest share lies on g, the
    // qualification invariant) is one batched Horner per tail party. g's
    // planes accumulate in the new pool columns themselves.
    for (std::size_t i = 0; i <= t; ++i) {
      const std::span<const Fld> yrow = ctx.recv[content[i]][d].plane(0);
      const auto& bc = basis[i].coeffs();
      for (std::size_t c = 0; c < bc.size(); ++c)
        ff::batch::axpy<64>(bc[c], yrow, column(c));
    }
    std::vector<std::uint8_t> ok_k(m, 1);
    std::vector<Fld> pred;
    for (std::size_t i = t + 1; i < content.size(); ++i) {
      pred.assign(column(t).begin(), column(t).end());
      for (std::size_t c = t; c-- > 0;)
        ff::batch::horner_fold<64>(xs[i], std::span<Fld>(pred), column(c));
      const std::span<const Fld> yrow = ctx.recv[content[i]][d].plane(0);
      for (std::size_t k = 0; k < m; ++k)
        if (pred[k] != yrow[k]) ok_k[k] = 0;
    }
    // Inconsistent columns go back to the default zero and mark the dealer
    // faulty (same degradation as before).
    for (std::size_t k = 0; k < m; ++k) {
      if (ok_k[k]) continue;
      finalize_fault[d] = 2;
      for (std::size_t c = 0; c <= t; ++c) column(c)[k] = Fld::zero();
    }
  });
  for (net::PartyId d : ctx.dealers) {
    if (finalize_fault[d] == 0) continue;
    result.qualified[d] = false;
    qualified_[d] = false;
    net_.blame(net::kPublicBlame, d,
               finalize_fault[d] == 1 ? "vss.finalize.too_few_content_parties"
                                      : "vss.finalize.inconsistent_shares");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reconstruction
// ---------------------------------------------------------------------------

Fld BivariateEngine::committed_share_of(const LinComb& v,
                                        net::PartyId party) const {
  Fld acc = v.constant_term();
  const Fld alpha = eval_point<64>(party);
  for (const auto& [ref, coeff] : v.terms()) {
    GFOR14_EXPECTS(ref.dealer < net_.n());
    GFOR14_EXPECTS(ref.index < pools_[ref.dealer].size());
    acc += coeff * pools_[ref.dealer].eval_at(ref.index, alpha);
  }
  return acc;
}

void BivariateEngine::committed_shares_into(std::span<const LinComb> values,
                                           net::PartyId party,
                                           std::span<Fld> out) const {
  GFOR14_EXPECTS(out.size() == values.size());
  const std::size_t n = net_.n();
  const Fld alpha = eval_point<64>(party);
  // Stats pass: find, per dealer, the index range the requests touch and the
  // total reference count. Dense-enough dealers get their whole range
  // evaluated in one batched Horner sweep (span kernels over the pool
  // planes); sparse dealers fall back to per-index Horner. Either way each
  // share value is the same Horner recurrence, so the sums below are
  // bit-identical to the scalar committed_share_of path.
  struct DealerStats {
    std::size_t refs = 0;
    std::size_t lo = ~std::size_t{0};
    std::size_t hi = 0;
  };
  std::vector<DealerStats> stats(n);
  for (const LinComb& v : values)
    for (const auto& [ref, coeff] : v.terms()) {
      GFOR14_EXPECTS(ref.dealer < n);
      GFOR14_EXPECTS(ref.index < pools_[ref.dealer].size());
      DealerStats& s = stats[ref.dealer];
      ++s.refs;
      s.lo = std::min(s.lo, ref.index);
      s.hi = std::max(s.hi, ref.index + 1);
    }
  std::vector<std::vector<Fld>> table(n);
  for (net::PartyId d = 0; d < n; ++d) {
    const DealerStats& s = stats[d];
    if (s.refs == 0) continue;
    const std::size_t width = s.hi - s.lo;
    if (s.refs >= 16 && s.refs * 4 >= width) {
      table[d].resize(width);
      pools_[d].eval_range(alpha, s.lo, std::span<Fld>(table[d]));
    }
  }
  for (std::size_t vi = 0; vi < values.size(); ++vi) {
    Fld acc = values[vi].constant_term();
    for (const auto& [ref, coeff] : values[vi].terms()) {
      const Fld share =
          table[ref.dealer].empty()
              ? pools_[ref.dealer].eval_at(ref.index, alpha)
              : table[ref.dealer][ref.index - stats[ref.dealer].lo];
      acc += coeff * share;
    }
    out[vi] = acc;
  }
}

Fld BivariateEngine::committed_value(const LinComb& v) const {
  Fld acc = v.constant_term();
  for (const auto& [ref, coeff] : v.terms()) {
    GFOR14_EXPECTS(ref.dealer < net_.n());
    GFOR14_EXPECTS(ref.index < pools_[ref.dealer].size());
    // The committed secret is g(0) — the x^0 pool plane, no Horner needed.
    acc += coeff * pools_[ref.dealer].plane(0)[ref.index];
  }
  return acc;
}

std::vector<Fld> BivariateEngine::decode_received(
    const std::vector<LinComb>& values, std::span<const Reveal> per_sender) {
  const std::size_t n = net_.n();
  const std::size_t t = profile_.t;
  std::vector<Fld> out(values.size(), Fld::zero());

  if (profile_.recon == ReconMode::kAuthenticated) {
    // Filter each revealed share through the information-checking layer,
    // then interpolate t + 1 accepted shares. Lagrange coefficients come
    // from the process-wide cache keyed by the accepted point set (the
    // common case is a single set across all values and rounds).
    if (profile_.forgery_success_prob > 0.0) {
      // The forgery coin draws from the shared adversary stream in (value,
      // sender) order — that order is part of the determinism contract, so
      // this path stays serial and per-value regardless of kernels.
      for (std::size_t vi = 0; vi < values.size(); ++vi) {
        std::vector<net::PartyId> accepted;
        std::vector<Fld> accepted_vals;
        for (net::PartyId i = 0; i < n && accepted.size() < t + 1; ++i) {
          if (!per_sender[i]) continue;
          const Fld revealed = (*per_sender[i])[vi];
          const Fld expected = committed_share_of(values[vi], i);
          bool accept = revealed == expected;
          if (!accept) {
            const double coin =
                static_cast<double>(net_.adversary_rng().next_u64()) /
                static_cast<double>(~0ULL);
            accept = coin < profile_.forgery_success_prob;
          }
          if (accept) {
            accepted.push_back(i);
            accepted_vals.push_back(revealed);
          }
        }
        if (accepted.size() < t + 1) continue;  // default 0 (cannot happen
                                                // with an honest majority)
        std::vector<Fld> xs(accepted.size());
        for (std::size_t i = 0; i < accepted.size(); ++i)
          xs[i] = eval_point<64>(accepted[i]);
        const auto& lambda = LagrangeCache::instance().coefficients(
            std::span<const Fld>(xs), Fld::zero());
        out[vi] = ff::dot(std::span<const Fld>(lambda),
                          std::span<const Fld>(accepted_vals));
      }
      return out;
    }
    // Idealized IC (the default): acceptance is the pure predicate
    // revealed == committed share, so the values split into chunks that run
    // on the lanes. Each chunk walks the senders in index order, stops once
    // all its values hold t + 1 accepts, and evaluates committed shares for
    // its own value sub-span only: every value keeps exactly the accept set
    // the per-value walk would build. Accept sets land in flat
    // value x (t + 1) arrays.
    const std::size_t w = t + 1;
    const std::size_t nchunks =
        (values.size() + kDecodeChunk - 1) / kDecodeChunk;
    std::vector<net::PartyId> acc_who(values.size() * w);
    std::vector<Fld> acc_vals(values.size() * w);
    std::vector<std::size_t> acc_n(values.size(), 0);
    ThreadPool::instance().parallel_for(
        0, nchunks, net_.threads(), [&](std::size_t ci) {
          const std::size_t lo = ci * kDecodeChunk;
          const std::size_t len = std::min(kDecodeChunk, values.size() - lo);
          std::vector<Fld> expected(len);
          std::size_t unfinished = len;
          for (net::PartyId i = 0; i < n && unfinished > 0; ++i) {
            if (!per_sender[i]) continue;
            committed_shares_into(
                std::span<const LinComb>(values.data() + lo, len), i,
                std::span<Fld>(expected));
            const std::span<const Fld> revealed = per_sender[i]->subspan(lo);
            for (std::size_t k = 0; k < len; ++k) {
              std::size_t& cnt = acc_n[lo + k];
              if (cnt == w || revealed[k] != expected[k]) continue;
              acc_who[(lo + k) * w + cnt] = i;
              acc_vals[(lo + k) * w + cnt] = expected[k];
              if (++cnt == w) --unfinished;
            }
          }
        });
    // Accept sets repeat massively across values (usually one distinct set
    // per call), so resolve each distinct set's Lagrange row once, serially
    // and in first-occurrence order — the per-value work then collapses to
    // a t+1-wide dot with no cache-key allocation or lock traffic inside
    // the parallel section.
    constexpr std::size_t kNoSet = ~std::size_t{0};
    auto& lcache = LagrangeCache::instance();
    std::vector<std::span<const net::PartyId>> distinct_sets;
    std::vector<std::size_t> set_of(values.size(), kNoSet);
    for (std::size_t vi = 0; vi < values.size(); ++vi) {
      if (acc_n[vi] < w) continue;  // default 0
      const std::span<const net::PartyId> who(acc_who.data() + vi * w, w);
      std::size_t s = 0;
      while (s < distinct_sets.size() &&
             !std::ranges::equal(distinct_sets[s], who))
        ++s;
      if (s == distinct_sets.size()) distinct_sets.push_back(who);
      set_of[vi] = s;
    }
    std::vector<const std::vector<Fld>*> set_lambda(distinct_sets.size());
    for (std::size_t s = 0; s < distinct_sets.size(); ++s) {
      std::vector<Fld> xs(w);
      for (std::size_t i = 0; i < w; ++i)
        xs[i] = eval_point<64>(distinct_sets[s][i]);
      set_lambda[s] =
          &lcache.coefficients(std::span<const Fld>(xs), Fld::zero());
    }
    ThreadPool::instance().parallel_for(
        0, nchunks, net_.threads(), [&](std::size_t ci) {
          const std::size_t lo = ci * kDecodeChunk;
          const std::size_t hi = std::min(lo + kDecodeChunk, values.size());
          for (std::size_t vi = lo; vi < hi; ++vi) {
            const std::size_t s = set_of[vi];
            if (s == kNoSet) continue;
            const std::span<const Fld> ys(acc_vals.data() + vi * w, w);
            out[vi] = ff::dot(std::span<const Fld>(*set_lambda[s]), ys);
          }
        });
    return out;
  }

  // Error-correction mode (t < n/3): Berlekamp–Welch with a fast path that
  // first tries plain interpolation through the first t + 1 present shares.
  std::vector<Fld> xs;
  std::vector<net::PartyId> present;
  for (net::PartyId i = 0; i < n; ++i) {
    if (!per_sender[i]) continue;
    present.push_back(i);
    xs.push_back(eval_point<64>(i));
  }
  const std::size_t navail = present.size();
  if (navail < t + 1) {
    // Fewer shares than the degree bound: no interpolation is possible, so
    // every value degrades to the canonical default (zero) instead of
    // aborting the honest viewer; the absent senders earn blame records.
    for (net::PartyId i = 0; i < n; ++i)
      if (!per_sender[i])
        net_.blame(net::kPublicBlame, i, "vss.recon.missing_share");
    return out;
  }
  const std::size_t max_errors = navail > t ? (navail - t - 1) / 2 : 0;
  // Precompute, once per call, the Lagrange evaluation rows of the head
  // interpolation at zero and at every tail point: head(x_i) and head(0)
  // are then inner products with the received shares (no per-value
  // interpolation or field inversions).
  const std::span<const Fld> head_x(xs.data(), t + 1);
  auto& lcache = LagrangeCache::instance();
  const auto& lambda0 = lcache.coefficients(head_x, Fld::zero());
  std::vector<const std::vector<Fld>*> tail_rows;
  tail_rows.reserve(navail - (t + 1));
  for (std::size_t i = t + 1; i < navail; ++i)
    tail_rows.push_back(&lcache.coefficients(head_x, xs[i]));
  // Chunked span decode: each sender's revealed vector is contiguous over
  // the value index, so the head interpolation at zero and at every tail
  // point are t + 1 span-axpys per chunk instead of per-value dots — the
  // same field operations in the same Horner/accumulation order, evaluated
  // column-wise (exact arithmetic: bit-identical results, see
  // tests/ff_batch_test.cpp). Chunks split across lanes; without that the
  // serial decode would Amdahl-cap reconstruction speedups.
  const std::size_t nchunks =
      (values.size() + kDecodeChunk - 1) / kDecodeChunk;
  ThreadPool::instance().parallel_for(
      0, nchunks, net_.threads(), [&](std::size_t ci) {
        const std::size_t lo = ci * kDecodeChunk;
        const std::size_t hi = std::min(lo + kDecodeChunk, values.size());
        const std::size_t len = hi - lo;
        const std::span<Fld> dst(out.data() + lo, len);
        const auto row = [&](std::size_t i) {
          return std::span<const Fld>(per_sender[present[i]]->data() + lo,
                                      len);
        };
        // Fast path for the whole chunk: interpolate the head senders at 0.
        for (std::size_t i = 0; i <= t; ++i)
          ff::batch::axpy<64>(lambda0[i], row(i), dst);
        // Consistency sweep: every tail share must lie on the head
        // interpolation; failures fall back to Berlekamp-Welch per value.
        std::vector<std::uint8_t> ok(len, 1);
        std::vector<Fld> pred(len);
        for (std::size_t j = 0; t + 1 + j < navail; ++j) {
          std::fill(pred.begin(), pred.end(), Fld::zero());
          for (std::size_t i = 0; i <= t; ++i)
            ff::batch::axpy<64>((*tail_rows[j])[i], row(i),
                                std::span<Fld>(pred));
          const std::span<const Fld> tail = row(t + 1 + j);
          for (std::size_t k = 0; k < len; ++k)
            if (pred[k] != tail[k]) ok[k] = 0;
        }
        for (std::size_t k = 0; k < len; ++k) {
          if (ok[k]) continue;
          std::vector<Fld> ys(navail);
          for (std::size_t i = 0; i < navail; ++i)
            ys[i] = (*per_sender[present[i]])[lo + k];
          auto decoded = berlekamp_welch(xs, ys, t, max_errors);
          // Overwrites the fast-path accumulation; no decode keeps the
          // canonical default (zero), matching the per-value code.
          dst[k] = decoded ? decoded->eval(Fld::zero()) : Fld::zero();
        }
      });
  return out;
}

std::vector<Fld> BivariateEngine::reconstruct_public(
    const std::vector<LinComb>& values) {
  const std::size_t n = net_.n();
  trace::Span span("vss.reconstruct_public", net_);
  span.metric("values", static_cast<double>(values.size()));
  // Decode from the viewpoint of the lowest-indexed honest party (all honest
  // parties derive the same values — equivocated or corrupted shares are
  // rejected receiver-side).
  net::PartyId viewer = 0;
  while (viewer < n && net_.is_corrupt(viewer)) ++viewer;
  GFOR14_EXPECTS(viewer < n);
  // The n× committed_share_of evaluations per sender are the hot path of
  // reconstruction; each sender computes and queues independently. The
  // viewer keeps its own payload as its local share vector.
  std::vector<Fld> own;
  net_.run_round([&](net::PartyId i, net::RoundLane& lane) {
    net::Payload payload(values.size());
    charge_share_buffer(values.size());
    committed_shares_into(std::span<const LinComb>(values.data(),
                                                   values.size()),
                          i, std::span<Fld>(payload.data(), payload.size()));
    for (net::PartyId j = 0; j < n; ++j)
      if (i != j) lane.send(j, payload);
    if (i == viewer) own = std::move(payload);
  });
  // Views into the viewer's inbox: nothing delivered is copied.
  std::vector<Reveal> per_sender(n);
  for (net::PartyId i = 0; i < n; ++i) {
    if (i == viewer) {
      per_sender[i] = std::span<const Fld>(own);
      continue;
    }
    const auto& msgs = net_.delivered().p2p[viewer][i];
    if (!msgs.empty() && msgs.front().size() == values.size())
      per_sender[i] = std::span<const Fld>(msgs.front());
  }
  return decode_received(values, per_sender);
}

std::vector<Fld> BivariateEngine::reconstruct_private(
    net::PartyId receiver, const std::vector<LinComb>& values) {
  return reconstruct_private_multi({{receiver, values}})[0];
}

std::vector<std::vector<Fld>> BivariateEngine::reconstruct_private_multi(
    const std::vector<PrivateRequest>& requests) {
  const std::size_t n = net_.n();
  trace::Span span("vss.reconstruct_private", net_);
  span.metric("requests", static_cast<double>(requests.size()));
  for (const auto& req : requests) GFOR14_EXPECTS(req.receiver < n);
  // Sender-major iteration (each sender walks the requests in order) keeps
  // every (sender, receiver) channel's message sequence in request order —
  // exactly what the slot-indexed inbox reads below rely on — while letting
  // each sender evaluate its committed shares on its own lane. A receiver
  // evaluates its own shares of its requests on its lane too (own[r] has
  // the single writer requests[r].receiver).
  std::vector<std::vector<Fld>> own(requests.size());
  net_.run_round([&](net::PartyId i, net::RoundLane& lane) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const auto& req = requests[r];
      const std::span<const LinComb> values(req.values.data(),
                                            req.values.size());
      if (i == req.receiver) {
        own[r].resize(values.size());
        committed_shares_into(values, i, std::span<Fld>(own[r]));
        continue;
      }
      net::Payload payload(values.size());
      charge_share_buffer(values.size());
      committed_shares_into(values, i,
                            std::span<Fld>(payload.data(), payload.size()));
      lane.send(req.receiver, std::move(payload));
    }
  });
  // Per receiver, messages arrive in request order (FIFO per channel), so
  // the r-th request toward a receiver reads that receiver's r-th inbox
  // entry from each sender — as a view, without copying it.
  std::vector<std::size_t> seen_for_receiver(n, 0);
  std::vector<std::vector<Fld>> out;
  out.reserve(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto& req = requests[r];
    const std::size_t slot = seen_for_receiver[req.receiver]++;
    std::vector<Reveal> per_sender(n);
    for (net::PartyId i = 0; i < n; ++i) {
      if (i == req.receiver) {
        per_sender[i] = std::span<const Fld>(own[r]);
        continue;
      }
      const auto& msgs = net_.delivered().p2p[req.receiver][i];
      if (slot < msgs.size() && msgs[slot].size() == req.values.size())
        per_sender[i] = std::span<const Fld>(msgs[slot]);
    }
    out.push_back(decode_received(req.values, per_sender));
  }
  return out;
}

}  // namespace gfor14::vss
