#pragma once
// The iostream text codecs the journal and model formats were defined
// by, kept as the oracles the to_chars/from_chars codecs
// (common/number_text.hpp) are checked against: sample journal lines
// must be written byte for byte as these write them and parse to the
// same bits wherever these accept them, and model text must be
// serialized byte for byte the same.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iterator>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "modeler/repository.hpp"
#include "sampler/stats.hpp"

namespace dlap::reference {

/// One journal line through an ostream with precision 17.
inline std::string format_journal_line(const std::vector<index_t>& point,
                                       const SampleStats& stats) {
  std::ostringstream os;
  os << "p " << point.size();
  for (const index_t c : point) os << ' ' << c;
  os << std::setprecision(17);
  os << ' ' << stats.min << ' ' << stats.median << ' ' << stats.mean << ' '
     << stats.max << ' ' << stats.stddev << ' ' << stats.count << '\n';
  return os.str();
}

/// One journal line through istringstream extraction; false on content
/// the extraction cannot read. Text after the count is ignored.
inline bool parse_journal_line(const std::string& line,
                               std::vector<index_t>* point,
                               SampleStats* stats) {
  std::istringstream is(line);
  std::string tag;
  std::size_t dims = 0;
  if (!(is >> tag >> dims) || tag != "p" || dims == 0 || dims > 8) {
    return false;
  }
  point->resize(dims);
  for (index_t& c : *point) {
    if (!(is >> c)) return false;
  }
  return static_cast<bool>(is >> stats->min >> stats->median >>
                           stats->mean >> stats->max >> stats->stddev >>
                           stats->count);
}

/// Model text through an ostream with precision 17.
inline std::string serialize_model(const RoutineModel& m) {
  const auto write_doubles = [](std::ostream& os, std::span<const double> v) {
    os << std::setprecision(17);
    for (double x : v) os << ' ' << x;
  };
  std::ostringstream os;
  os << "dlaperf-model v1\n";
  os << "routine " << m.key.routine << '\n';
  os << "backend " << m.key.backend << '\n';
  os << "locality " << locality_name(m.key.locality) << '\n';
  os << "flags " << (m.key.flags.empty() ? "-" : m.key.flags) << '\n';
  os << "strategy " << (m.strategy.empty() ? "-" : m.strategy) << '\n';
  os << "unique_samples " << m.unique_samples << '\n';
  os << std::setprecision(17);
  os << "average_error " << m.average_error << '\n';

  const PiecewiseModel& pm = m.model;
  os << "dims " << pm.dims() << '\n';
  os << "domain";
  for (int d = 0; d < pm.dims(); ++d) {
    os << ' ' << pm.domain().lo(d) << ' ' << pm.domain().hi(d);
  }
  os << '\n';
  os << "pieces " << pm.pieces().size() << '\n';
  for (const RegionModel& p : pm.pieces()) {
    os << "piece\n";
    os << "  bounds";
    for (int d = 0; d < pm.dims(); ++d) {
      os << ' ' << p.region.lo(d) << ' ' << p.region.hi(d);
    }
    os << '\n';
    os << "  fit_error " << p.fit_error << '\n';
    os << "  mean_error " << p.mean_error << '\n';
    os << "  samples " << p.samples_used << '\n';
    os << "  degree " << p.poly.degree() << '\n';
    os << "  shift";
    write_doubles(os, p.poly.normalization().shift);
    os << '\n';
    os << "  scale";
    write_doubles(os, p.poly.normalization().scale);
    os << '\n';
    for (int s = 0; s < kStatCount; ++s) {
      os << "  coef " << stat_name(static_cast<Stat>(s));
      write_doubles(os, p.poly.coefficients(static_cast<Stat>(s)));
      os << '\n';
    }
  }
  return os.str();
}

/// A finite double that stresses a %.17g codec: random bit patterns,
/// signed zeros, subnormals, DBL_MAX/DBL_MIN, 2^53 and integers around
/// the writer's 1e17 exact-integer cutoff, either sign.
inline double stress_double(std::mt19937_64& rng) {
  static constexpr double kSpecial[] = {
      0.0, -0.0, 4.9406564584124654e-324, 2.2250738585072009e-308,
      DBL_MIN, DBL_MAX, 9007199254740992.0, 9007199254740993.0,
      1e17, 99999999999999984.0, 1e16, 0.1, 1.0 / 3.0, 1e-13, 123.456};
  const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
  switch (rng() % 5) {
    case 0:
      return sign * kSpecial[rng() % std::size(kSpecial)];
    case 1:  // subnormal
      return sign *
             std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1));
    case 2: {  // integer within +-2^12 of 1e17 or of 2^53
      const auto offset = static_cast<std::int64_t>(rng() % 8193) - 4096;
      return sign * ((rng() & 1) != 0 ? 1e17 : 9007199254740992.0) +
             static_cast<double>(offset);
    }
    case 3:  // a measurement-like value
      return sign * std::ldexp(static_cast<double>(rng() % 1000000) + 0.5,
                               static_cast<int>(rng() % 40) - 20);
    default: {  // any finite bit pattern
      double v = 0.0;
      do {
        v = std::bit_cast<double>(rng());
      } while (!std::isfinite(v));
      return v;
    }
  }
}

/// An index that stresses an integer codec: small, negative, or extreme.
inline std::int64_t stress_index(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return static_cast<std::int64_t>(rng() % 4096);
    case 1: return -static_cast<std::int64_t>(rng() % 4096);
    case 2: return (rng() & 1) != 0 ? INT64_MAX : INT64_MIN;
    default: return static_cast<std::int64_t>(rng());
  }
}

}  // namespace dlap::reference
