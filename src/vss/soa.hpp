// Structure-of-arrays share containers for the VSS hot path.
//
// The bivariate engine's dealing, cross-evaluation and reconstruction loops
// all iterate "for every batch index k, do a tiny polynomial operation" —
// with t + 1 only 2-4 coefficients and k running into the tens of
// thousands. Stored as vector<Poly> (one heap allocation per k), that shape
// is allocation- and dispatch-bound. These containers transpose it:
// coefficient-major planes, each plane a contiguous span over k, so a batch
// of m Horner evaluations becomes `coeffs_per_poly` calls into the wide
// span kernels of ff/batch.hpp instead of m scalar Poly::eval calls.
//
// Equivalence contract: GF(2^k) arithmetic is exact and Horner order is
// preserved plane-by-plane, so every value produced here is bit-identical
// to the per-Poly code it replaced — including the zero coefficients that
// Poly's normalized representation strips (a plane stores them explicitly,
// a payload writes them explicitly; both spell zero). The replay verifier,
// the differential suites in tests/ff_batch_test.cpp and
// tests/vss_engine_test.cpp and the pinned digests in
// tests/transcript_pin_test.cpp enforce this.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ff/gf2e.hpp"
#include "math/poly.hpp"

namespace gfor14::vss {

/// Indices per cache block of the write-once sharing sweeps: R1 slice
/// dealing and the receiver-side load of a dealing payload. A dealer's
/// coefficient planes and one peer's slice rows for a block stay L1/L2
/// resident while they are computed and appended to the outputs.
inline constexpr std::size_t kDealBlock = 256;

/// A batch of m univariate polynomials, each with a fixed coefficient count,
/// stored coefficient-major: plane(c)[k] is the x^c coefficient of
/// polynomial k. The SoA replacement for vector<Poly>: a party's slices of
/// one dealer's batch, and a dealer's growing pool of committed share
/// polynomials. Each plane is its own vector, so a block is built by
/// appending to every plane in turn: nothing is zero-filled before it is
/// written.
class SliceBlock {
 public:
  /// Resets to m zero polynomials of `coeffs_per_poly` coefficients each
  /// (the default slices of a missing or malformed dealing).
  void assign(std::size_t m, std::size_t coeffs_per_poly);
  /// Resets to an empty block with capacity for m polynomials.
  void reserve(std::size_t m, std::size_t coeffs_per_poly);
  /// Appends m zero polynomials; returns the index of the first.
  std::size_t append_zero(std::size_t m);

  std::size_t size() const { return planes_.empty() ? 0 : planes_[0].size(); }
  std::size_t coeffs_per_poly() const { return planes_.size(); }

  std::span<Fld> plane(std::size_t c) { return planes_[c]; }
  std::span<const Fld> plane(std::size_t c) const { return planes_[c]; }

  /// Appends `len` polynomials given as coefficient rows:
  /// rows[c * len + i] is the x^c coefficient of the i-th new polynomial.
  void append_rows(std::span<const Fld> rows, std::size_t len);

  /// Resets and fills from the wire layout wire[k * coeffs_per_poly + c]
  /// (wire.size() must be a multiple of coeffs_per_poly), in cache blocks.
  void load_kmajor(std::span<const Fld> wire, std::size_t coeffs_per_poly);

  /// Horner evaluation of polynomial k at x (cold complaint/accusation
  /// paths and sparse share lookups; the hot paths use eval_range).
  Fld eval_at(std::size_t k, Fld x) const;

  /// out[i] = polynomial (base + i) evaluated at x, for i < out.size();
  /// requires base + out.size() <= size(). One batched Horner sweep, so a
  /// cache-sized range can be evaluated at many points while its planes
  /// stay resident.
  void eval_range(Fld x, std::size_t base, std::span<Fld> out) const;
  /// eval_range over [base, base + len), appended to `out` (written once,
  /// in place, with no staging copy).
  void append_eval(Fld x, std::size_t base, std::size_t len,
                   std::vector<Fld>& out) const;

  /// Overwrites polynomial k from a normalized Poly (zero-extends).
  void set_poly(std::size_t k, const Poly& p);

 private:
  std::vector<std::vector<Fld>> planes_;  // planes_[c][k]
};

/// Appends `len` polynomials given as coefficient rows (rows[c * len + i],
/// rows.size() a multiple of len) to `out` in the k-major wire layout
/// out[i * coeffs + c]. The interleave runs through an L1 staging block,
/// so `out` only grows by appends.
void append_kmajor(std::span<const Fld> rows, std::size_t len,
                   std::vector<Fld>& out);

/// A dealer's batch of m random symmetric bivariate polynomials F_k of
/// degree <= deg in each variable, stored as (deg + 1)(deg + 2) / 2
/// upper-triangular coefficient planes: plane (i, j), i <= j, holds the
/// x^i y^j (= x^j y^i) coefficient of every F_k. The planes are the only
/// copy of the dealer's polynomials; slices, resolution values and opened
/// slices are all read from them.
class DealerPlanes {
 public:
  /// Draws the batch exactly as m successive
  /// SymmetricBivariate::random_with_secret(rng, deg, secrets[k]) calls
  /// would: per k, one Fld::random per coefficient in that class's
  /// (row-major upper-triangle) storage order, then (0, 0) is overwritten
  /// by the secret. The draws go straight into the planes by cache block.
  void deal(Rng& rng, std::size_t deg, std::span<const Fld> secrets);

  std::size_t size() const { return planes_.size(); }

  /// Slice coefficients F_k(x, y0) for k in [lo, lo + len), as rows:
  /// rows[c * len + i] is the x^c coefficient of F_{lo + i}(x, y0);
  /// rows.size() must be (deg + 1) * len. Span Horner over j per row.
  void slice_rows(Fld y0, std::size_t lo, std::size_t len,
                  std::span<Fld> rows) const;

  /// F_k(x, y), by Horner over the slice at y.
  Fld eval(std::size_t k, Fld x, Fld y) const;

 private:
  /// Storage index of (i, j), i <= j: SymmetricBivariate's row-major order.
  std::size_t tri(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    return i * (deg_ + 1) - i * (i - 1) / 2 + (j - i);
  }

  std::size_t deg_ = 0;
  SliceBlock planes_;  // planes_.plane(tri(i, j))[k]
};

}  // namespace gfor14::vss
