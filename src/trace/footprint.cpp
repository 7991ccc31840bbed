#include "trace/footprint.hpp"

#include <stdexcept>

#include "core/bilinear.hpp"
#include "layout/bits.hpp"

namespace rla::trace {

namespace {

/// Element of the dependence semiring: which A / B origins fed this value.
struct Cell {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  Cell operator*(const Cell& other) const { return {a | other.a, b | other.b}; }
  Cell& operator+=(const Cell& other) {
    a |= other.a;
    b |= other.b;
    return *this;
  }
};

/// Square matrix of Cells with quadrant views.
struct SetMat {
  std::vector<Cell>* store;
  std::uint32_t ld;
  std::uint32_t off_i, off_j, size;

  Cell& at(std::uint32_t i, std::uint32_t j) const {
    return (*store)[static_cast<std::size_t>(off_i + i) * ld + (off_j + j)];
  }
  SetMat quad(std::uint32_t qi, std::uint32_t qj) const {
    return {store, ld, off_i + qi * size / 2, off_j + qj * size / 2, size / 2};
  }
};

struct Owner {
  std::vector<Cell> cells;
  SetMat mat;
  explicit Owner(std::uint32_t n) : cells(static_cast<std::size_t>(n) * n) {
    mat = {&cells, n, 0, 0, n};
  }
};

void acc(const SetMat& d, const SetMat& x) {
  for (std::uint32_t i = 0; i < d.size; ++i) {
    for (std::uint32_t j = 0; j < d.size; ++j) d.at(i, j) += x.at(i, j);
  }
}

/// Quadrant q (0 NW, 1 NE, 2 SW, 3 SE) of m.
SetMat quadrant(const SetMat& m, std::size_t q) {
  return m.quad(static_cast<std::uint32_t>(q >> 1), static_cast<std::uint32_t>(q & 1));
}

void mul_std(const SetMat& c, const SetMat& a, const SetMat& b) {
  if (c.size == 1) {
    c.at(0, 0) += a.at(0, 0) * b.at(0, 0);
    return;
  }
  for (std::uint32_t qi = 0; qi < 2; ++qi) {
    for (std::uint32_t qj = 0; qj < 2; ++qj) {
      for (std::uint32_t ql = 0; ql < 2; ++ql) {
        mul_std(c.quad(qi, qj), a.quad(qi, ql), b.quad(ql, qj));
      }
    }
  }
}

/// A fast algorithm's row evaluated over the semiring: each product reads
/// the union of its operands' terms, each C quadrant the union of its Ps.
/// Signs and the add schedule do not change a union, so the term lists are
/// the whole dependence structure.
void mul_row(const bilinear::Row& row, const SetMat& c, const SetMat& a,
              const SetMat& b) {
  using bilinear::idx, bilinear::Slot;
  if (c.size == 1) {
    c.at(0, 0) += a.at(0, 0) * b.at(0, 0);
    return;
  }
  const std::uint32_t h = c.size / 2;
  for (std::size_t i = 0; i < 7; ++i) {
    Owner x(h), y(h), p(h);
    for (const bilinear::Term& t : row.a[i]) {
      acc(x.mat, quadrant(a, idx(t.x) - idx(Slot::A11)));
    }
    for (const bilinear::Term& t : row.b[i]) {
      acc(y.mat, quadrant(b, idx(t.x) - idx(Slot::B11)));
    }
    mul_row(row, p.mat, x.mat, y.mat);
    for (std::size_t q = 0; q < 4; ++q) {
      for (const bilinear::Term& t : row.c[q]) {
        if (t.x == bilinear::nth(Slot::P1, i)) acc(quadrant(c, q), p.mat);
      }
    }
  }
}

}  // namespace

std::uint64_t FootprintResult::total_a_reads() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t m : a_reads) total += static_cast<std::uint64_t>(__builtin_popcountll(m));
  return total;
}

std::uint64_t FootprintResult::total_b_reads() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t m : b_reads) total += static_cast<std::uint64_t>(__builtin_popcountll(m));
  return total;
}

FootprintResult footprint(Algorithm alg, std::uint32_t n) {
  if (n == 0 || n > 8 || !bits::is_pow2(n)) {
    throw std::invalid_argument("footprint: n must be 1, 2, 4 or 8");
  }
  Owner a(n), b(n), c(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      a.mat.at(i, j) = {std::uint64_t{1} << (i * n + j), 0};
      b.mat.at(i, j) = {0, std::uint64_t{1} << (i * n + j)};
    }
  }
  switch (alg) {
    case Algorithm::Standard:
      mul_std(c.mat, a.mat, b.mat);
      break;
    case Algorithm::Strassen:
    case Algorithm::Winograd:
      mul_row(*bilinear::row_for(alg), c.mat, a.mat, b.mat);
      break;
  }
  FootprintResult result;
  result.n = n;
  result.a_reads.resize(static_cast<std::size_t>(n) * n);
  result.b_reads.resize(static_cast<std::size_t>(n) * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      result.a_reads[i * n + j] = c.mat.at(i, j).a;
      result.b_reads[i * n + j] = c.mat.at(i, j).b;
    }
  }
  return result;
}

std::string render_footprint(const FootprintResult& fp, bool operand_a) {
  const std::uint32_t n = fp.n;
  const auto& masks = operand_a ? fp.a_reads : fp.b_reads;
  std::string out;
  for (std::uint32_t box_r = 0; box_r < n; ++box_r) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t box_c = 0; box_c < n; ++box_c) {
        const std::uint64_t mask = masks[box_r * n + box_c];
        for (std::uint32_t j = 0; j < n; ++j) {
          out.push_back((mask >> (i * n + j)) & 1 ? '*' : '.');
        }
        out.push_back(box_c + 1 == n ? ' ' : '|');
      }
      out.push_back('\n');
    }
    if (box_r + 1 < n) {
      out.append(static_cast<std::size_t>(n) * (n + 1), '-');
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace rla::trace
