#include "modeler/region.hpp"

#include <algorithm>
#include <cmath>

namespace dlap {

Region::Region(std::vector<index_t> lo, std::vector<index_t> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  DLAP_REQUIRE(lo_.size() == hi_.size() && !lo_.empty(),
               "region bounds dimension mismatch");
  for (std::size_t d = 0; d < lo_.size(); ++d) {
    DLAP_REQUIRE(lo_[d] <= hi_[d], "region with empty dimension " +
                                       std::to_string(d));
  }
}

bool Region::contains(const std::vector<index_t>& p) const {
  DLAP_REQUIRE(static_cast<int>(p.size()) == dims(), "point dim mismatch");
  for (int d = 0; d < dims(); ++d) {
    if (p[d] < lo_[d] || p[d] > hi_[d]) return false;
  }
  return true;
}

bool Region::contains(const std::vector<double>& p) const {
  DLAP_REQUIRE(static_cast<int>(p.size()) == dims(), "point dim mismatch");
  for (int d = 0; d < dims(); ++d) {
    if (p[d] < static_cast<double>(lo_[d]) ||
        p[d] > static_cast<double>(hi_[d])) {
      return false;
    }
  }
  return true;
}

bool Region::intersects(const Region& other) const {
  DLAP_REQUIRE(other.dims() == dims(), "region dim mismatch");
  for (int d = 0; d < dims(); ++d) {
    if (other.hi_[d] < lo_[d] || other.lo_[d] > hi_[d]) return false;
  }
  return true;
}

bool Region::covers(const Region& other) const {
  if (other.dims() != dims()) return false;
  for (int d = 0; d < dims(); ++d) {
    if (lo_[d] > other.lo_[d] || hi_[d] < other.hi_[d]) return false;
  }
  return true;
}

double Region::volume() const {
  double v = 1.0;
  for (int d = 0; d < dims(); ++d) {
    v *= static_cast<double>(extent(d) + 1);
  }
  return v;
}

double Region::distance(const std::vector<double>& p) const {
  double dist = 0.0;
  for (int d = 0; d < dims(); ++d) {
    double excess = 0.0;
    if (p[d] < static_cast<double>(lo_[d])) {
      excess = static_cast<double>(lo_[d]) - p[d];
    } else if (p[d] > static_cast<double>(hi_[d])) {
      excess = p[d] - static_cast<double>(hi_[d]);
    }
    dist = std::max(dist, excess);
  }
  return dist;
}

std::vector<double> Region::clamp(const std::vector<double>& p) const {
  DLAP_REQUIRE(static_cast<int>(p.size()) == dims(), "point dim mismatch");
  std::vector<double> c = p;
  for (int d = 0; d < dims(); ++d) {
    c[d] = std::clamp(c[d], static_cast<double>(lo_[d]),
                      static_cast<double>(hi_[d]));
  }
  return c;
}

std::vector<double> Region::center() const {
  std::vector<double> c(static_cast<std::size_t>(dims()));
  for (int d = 0; d < dims(); ++d) {
    c[d] = 0.5 * static_cast<double>(lo_[d] + hi_[d]);
  }
  return c;
}

index_t snap_to_grid(index_t x, index_t g, index_t lo, index_t hi) {
  DLAP_REQUIRE(g >= 1 && lo <= hi, "bad snap arguments");
  index_t snapped = ((x + g / 2) / g) * g;
  snapped = std::clamp(snapped, lo, hi);
  return snapped;
}

Region region_union(const Region& a, const Region& b) {
  DLAP_REQUIRE(a.dims() == b.dims(), "region_union: dimension mismatch");
  std::vector<index_t> lo(a.lo()), hi(a.hi());
  for (int d = 0; d < a.dims(); ++d) {
    lo[static_cast<std::size_t>(d)] = std::min(a.lo(d), b.lo(d));
    hi[static_cast<std::size_t>(d)] = std::max(a.hi(d), b.hi(d));
  }
  return Region(std::move(lo), std::move(hi));
}

std::vector<Region> Region::split(index_t min_size,
                                  index_t granularity) const {
  std::vector<int> split_dims;
  std::vector<index_t> mid(static_cast<std::size_t>(dims()));
  for (int d = 0; d < dims(); ++d) {
    if (extent(d) >= 2 * min_size) {
      index_t m = snap_to_grid(lo_[d] + extent(d) / 2, granularity, lo_[d],
                               hi_[d]);
      // Guard against degenerate children after snapping.
      if (m > lo_[d] && m < hi_[d]) {
        split_dims.push_back(d);
        mid[d] = m;
      }
    }
  }
  if (split_dims.empty()) return {*this};

  std::vector<Region> children;
  const std::size_t combos = std::size_t{1} << split_dims.size();
  for (std::size_t mask = 0; mask < combos; ++mask) {
    std::vector<index_t> clo = lo_;
    std::vector<index_t> chi = hi_;
    for (std::size_t b = 0; b < split_dims.size(); ++b) {
      const int d = split_dims[b];
      if (mask & (std::size_t{1} << b)) {
        clo[d] = mid[d];  // upper half (midpoint shared: cheap sample reuse)
      } else {
        chi[d] = mid[d];
      }
    }
    children.emplace_back(std::move(clo), std::move(chi));
  }
  return children;
}

std::vector<std::vector<index_t>> Region::sample_grid(
    index_t points_per_dim, index_t granularity) const {
  DLAP_REQUIRE(points_per_dim >= 2, "need at least endpoint samples");
  std::vector<std::vector<index_t>> axes(static_cast<std::size_t>(dims()));
  for (int d = 0; d < dims(); ++d) {
    std::vector<index_t>& axis = axes[d];
    const index_t npts = std::min<index_t>(
        points_per_dim, std::max<index_t>(2, extent(d) / granularity + 1));
    for (index_t i = 0; i < npts; ++i) {
      const double frac =
          static_cast<double>(i) / static_cast<double>(npts - 1);
      const index_t raw =
          lo_[d] + static_cast<index_t>(std::llround(
                       frac * static_cast<double>(extent(d))));
      const index_t snapped = snap_to_grid(raw, granularity, lo_[d], hi_[d]);
      if (axis.empty() || axis.back() != snapped) axis.push_back(snapped);
    }
    if (axis.empty()) axis.push_back(lo_[d]);
  }

  // Cartesian product.
  std::vector<std::vector<index_t>> grid;
  std::vector<std::size_t> idx(axes.size(), 0);
  for (;;) {
    std::vector<index_t> p(axes.size());
    for (std::size_t d = 0; d < axes.size(); ++d) p[d] = axes[d][idx[d]];
    grid.push_back(std::move(p));
    std::size_t d = 0;
    while (d < axes.size()) {
      if (++idx[d] < axes[d].size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == axes.size()) break;
  }
  return grid;
}

std::string Region::to_string() const {
  std::string s = "[";
  for (int d = 0; d < dims(); ++d) {
    if (d) s += " x ";
    s += std::to_string(lo_[d]) + ".." + std::to_string(hi_[d]);
  }
  return s + "]";
}

}  // namespace dlap
