#include "math/bivariate.hpp"

#include "common/expect.hpp"
#include "ff/ops.hpp"

namespace gfor14 {

SymmetricBivariate::SymmetricBivariate(std::size_t deg)
    : deg_(deg), coeffs_((deg + 1) * (deg + 2) / 2) {}

std::size_t SymmetricBivariate::index(std::size_t i, std::size_t j) const {
  if (i > j) std::swap(i, j);
  GFOR14_EXPECTS(j <= deg_);
  // Row-major over the upper triangle: row i starts after i rows of lengths
  // (deg+1), (deg), ..., (deg+2-i).
  return i * (deg_ + 1) - i * (i - 1) / 2 + (j - i);
}

SymmetricBivariate SymmetricBivariate::random_with_secret(Rng& rng,
                                                          std::size_t deg,
                                                          Fld secret) {
  SymmetricBivariate f(deg);
  for (auto& c : f.coeffs_) c = Fld::random(rng);
  f.coeffs_[f.index(0, 0)] = secret;
  return f;
}

Fld SymmetricBivariate::coeff(std::size_t i, std::size_t j) const {
  return coeffs_[index(i, j)];
}

Fld SymmetricBivariate::eval(Fld x, Fld y) const {
  return slice(y).eval(x);
}

Poly SymmetricBivariate::slice(Fld y0) const {
  // F(x, y0) = sum_i x^i * (sum_j c_{ij} y0^j). The triangular storage keeps
  // row r (entries c_{r,j}, j >= r) contiguous, so the upper-triangle part
  // of out[r] is one fused inner product with y0^r..y0^deg, and the mirrored
  // lower-triangle contributions (c_{j,r} = c_{r,j}) are one fused
  // multiply-accumulate of the same row into out[r+1..].
  std::vector<Fld> ypow(deg_ + 1);
  ypow[0] = Fld::one();
  for (std::size_t j = 1; j <= deg_; ++j) ypow[j] = ypow[j - 1] * y0;
  std::vector<Fld> out(deg_ + 1, Fld::zero());
  std::size_t row_start = 0;
  for (std::size_t r = 0; r <= deg_; ++r) {
    const std::size_t len = deg_ + 1 - r;
    const std::span<const Fld> row(&coeffs_[row_start], len);
    out[r] += ff::dot(row, std::span<const Fld>(&ypow[r], len));
    ff::axpy(ypow[r], row.subspan(1), std::span<Fld>(out).subspan(r + 1));
    row_start += len;
  }
  return Poly{std::move(out)};
}

}  // namespace gfor14
