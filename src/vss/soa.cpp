#include "vss/soa.hpp"

#include <algorithm>
#include <array>

#include "common/expect.hpp"
#include "ff/batch.hpp"

namespace gfor14::vss {

// --- SliceBlock ------------------------------------------------------------

void SliceBlock::assign(std::size_t m, std::size_t coeffs_per_poly) {
  planes_.assign(coeffs_per_poly, std::vector<Fld>(m, Fld::zero()));
}

void SliceBlock::reserve(std::size_t m, std::size_t coeffs_per_poly) {
  planes_.clear();
  planes_.resize(coeffs_per_poly);
  for (auto& p : planes_) p.reserve(m);
}

std::size_t SliceBlock::append_zero(std::size_t m) {
  const std::size_t base = size();
  for (auto& p : planes_) p.resize(base + m, Fld::zero());
  return base;
}

void SliceBlock::append_rows(std::span<const Fld> rows, std::size_t len) {
  GFOR14_EXPECTS(rows.size() == planes_.size() * len);
  for (std::size_t c = 0; c < planes_.size(); ++c)
    planes_[c].insert(planes_[c].end(), rows.begin() + c * len,
                      rows.begin() + (c + 1) * len);
}

void SliceBlock::load_kmajor(std::span<const Fld> wire,
                             std::size_t coeffs_per_poly) {
  GFOR14_EXPECTS(coeffs_per_poly > 0 && wire.size() % coeffs_per_poly == 0);
  const std::size_t s = coeffs_per_poly;
  const std::size_t m = wire.size() / s;
  reserve(m, s);
  std::vector<Fld> rows(s * std::min(m, kDealBlock));
  for (std::size_t lo = 0; lo < m; lo += kDealBlock) {
    const std::size_t len = std::min(kDealBlock, m - lo);
    const Fld* src = wire.data() + lo * s;
    for (std::size_t i = 0; i < len; ++i)
      for (std::size_t c = 0; c < s; ++c) rows[c * len + i] = src[i * s + c];
    append_rows(std::span<const Fld>(rows.data(), s * len), len);
  }
}

Fld SliceBlock::eval_at(std::size_t k, Fld x) const {
  GFOR14_EXPECTS(k < size());
  Fld acc = Fld::zero();
  for (std::size_t c = planes_.size(); c-- > 0;) acc = acc * x + planes_[c][k];
  return acc;
}

void SliceBlock::eval_range(Fld x, std::size_t base,
                            std::span<Fld> out) const {
  GFOR14_EXPECTS(base + out.size() <= size());
  if (out.empty()) return;  // also covers a block with no planes
  const std::size_t top = planes_.size() - 1;
  std::copy_n(planes_[top].begin() + base, out.size(), out.begin());
  for (std::size_t c = top; c-- > 0;)
    ff::batch::horner_fold<64>(x, out, plane(c).subspan(base, out.size()));
}

void SliceBlock::append_eval(Fld x, std::size_t base, std::size_t len,
                             std::vector<Fld>& out) const {
  GFOR14_EXPECTS(!planes_.empty() && base + len <= size());
  const std::size_t pos = out.size();
  const std::size_t top = planes_.size() - 1;
  out.insert(out.end(), planes_[top].begin() + base,
             planes_[top].begin() + base + len);
  const std::span<Fld> acc(out.data() + pos, len);
  for (std::size_t c = top; c-- > 0;)
    ff::batch::horner_fold<64>(x, acc, plane(c).subspan(base, len));
}

void SliceBlock::set_poly(std::size_t k, const Poly& p) {
  GFOR14_EXPECTS(k < size());
  const auto& coeffs = p.coeffs();
  for (std::size_t c = 0; c < planes_.size(); ++c)
    planes_[c][k] = c < coeffs.size() ? coeffs[c] : Fld::zero();
}

void append_kmajor(std::span<const Fld> rows, std::size_t len,
                   std::vector<Fld>& out) {
  if (len == 0) return;
  GFOR14_EXPECTS(rows.size() % len == 0);
  const std::size_t s = rows.size() / len;
  std::array<Fld, 512> stage;
  GFOR14_EXPECTS(s <= stage.size());
  // Whole polynomials per staging pass, so each pass appends one
  // contiguous run of the wire layout.
  const std::size_t per_pass = stage.size() / s;
  for (std::size_t lo = 0; lo < len; lo += per_pass) {
    const std::size_t cnt = std::min(per_pass, len - lo);
    for (std::size_t i = 0; i < cnt; ++i)
      for (std::size_t c = 0; c < s; ++c)
        stage[i * s + c] = rows[c * len + lo + i];
    out.insert(out.end(), stage.begin(), stage.begin() + cnt * s);
  }
}

// --- DealerPlanes ----------------------------------------------------------

void DealerPlanes::deal(Rng& rng, std::size_t deg,
                        std::span<const Fld> secrets) {
  const std::size_t m = secrets.size();
  deg_ = deg;
  const std::size_t np = (deg + 1) * (deg + 2) / 2;
  planes_.reserve(m, np);
  // Each block is drawn in RNG order (per k, every coefficient) into
  // coefficient rows, then appended plane by plane.
  std::vector<Fld> rows(np * std::min(m, kDealBlock));
  for (std::size_t lo = 0; lo < m; lo += kDealBlock) {
    const std::size_t len = std::min(kDealBlock, m - lo);
    for (std::size_t i = 0; i < len; ++i) {
      for (std::size_t c = 0; c < np; ++c) rows[c * len + i] = Fld::random(rng);
      rows[tri(0, 0) * len + i] = secrets[lo + i];
    }
    planes_.append_rows(std::span<const Fld>(rows.data(), np * len), len);
  }
}

void DealerPlanes::slice_rows(Fld y0, std::size_t lo, std::size_t len,
                              std::span<Fld> rows) const {
  GFOR14_EXPECTS(lo + len <= size() && rows.size() == (deg_ + 1) * len);
  // F(x, y0) = sum_i x^i * (sum_j c_{ij} y0^j): row i is a Horner sweep
  // over j of the planes (i, j), read through the symmetric index.
  for (std::size_t i = 0; i <= deg_; ++i) {
    const std::span<Fld> row = rows.subspan(i * len, len);
    const auto src = [&](std::size_t j) {
      return planes_.plane(tri(i, j)).subspan(lo, len);
    };
    std::copy_n(src(deg_).begin(), len, row.begin());
    for (std::size_t j = deg_; j-- > 0;)
      ff::batch::horner_fold<64>(y0, row, src(j));
  }
}

Fld DealerPlanes::eval(std::size_t k, Fld x, Fld y) const {
  GFOR14_EXPECTS(k < size());
  Fld acc = Fld::zero();
  for (std::size_t i = deg_ + 1; i-- > 0;) {
    Fld row = Fld::zero();
    for (std::size_t j = deg_ + 1; j-- > 0;)
      row = row * y + planes_.plane(tri(i, j))[k];
    acc = acc * x + row;
  }
  return acc;
}

}  // namespace gfor14::vss
