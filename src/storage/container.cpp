#include "storage/container.hpp"

#include <cstring>
#include <fstream>
#include <thread>

#include "modeler/polynomial.hpp"

namespace dlap::storage {

namespace {

constexpr std::size_t kHeaderSize = 80;
constexpr std::size_t kModelEntrySize = 72;
constexpr std::size_t kSampleEntrySize = 32;

// ------------------------------------------------------------- emitters

void put_u32(std::vector<std::byte>& out, std::uint32_t v, bool swap) {
  if (swap) v = byteswap32(v);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v, bool swap) {
  if (swap) v = byteswap64(v);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_i64(std::vector<std::byte>& out, std::int64_t v, bool swap) {
  put_u64(out, static_cast<std::uint64_t>(v), swap);
}

void put_f64(std::vector<std::byte>& out, double v, bool swap) {
  put_u64(out, std::bit_cast<std::uint64_t>(v), swap);
}

/// Deduplicating string-table builder; refs are (offset, length) pairs.
class StringTable {
 public:
  std::pair<std::uint32_t, std::uint32_t> ref(std::string_view s) {
    const auto it = offsets_.find(s);
    if (it != offsets_.end()) {
      return {it->second, static_cast<std::uint32_t>(s.size())};
    }
    DLAP_REQUIRE(blob_.size() + s.size() <= UINT32_MAX,
                 "container string table exceeds 4 GiB");
    const auto off = static_cast<std::uint32_t>(blob_.size());
    blob_.append(s);
    offsets_.emplace(std::string(s), off);
    return {off, static_cast<std::uint32_t>(s.size())};
  }

  [[nodiscard]] const std::string& blob() const noexcept { return blob_; }

 private:
  std::string blob_;
  std::map<std::string, std::uint32_t, std::less<>> offsets_;
};

}  // namespace

// ------------------------------------------------------------------ writer

void ContainerWriter::add_model(const RoutineModel& model) {
  const PiecewiseModel& pm = model.model;
  DLAP_REQUIRE(!pm.empty(), "cannot pack a model with no pieces");
  DLAP_REQUIRE(pm.dims() >= 1 && pm.dims() <= kMaxDims,
               "cannot pack a model with implausible dims");
  for (const RegionModel& p : pm.pieces()) {
    DLAP_REQUIRE(p.poly.dims() == pm.dims() &&
                     p.region.dims() == pm.dims() &&
                     p.poly.normalization().shift.size() ==
                         static_cast<std::size_t>(pm.dims()) &&
                     p.poly.normalization().scale.size() ==
                         static_cast<std::size_t>(pm.dims()),
                 "piece dimensionality disagrees with the model domain");
    DLAP_REQUIRE(p.poly.degree() >= 0 &&
                     p.poly.degree() <= kMaxDegree,
                 "cannot pack a polynomial of implausible degree");
  }
  models_[model.key] = model;
}

void ContainerWriter::add_samples(const std::string& engine_key,
                                  std::vector<SamplePoint> entries) {
  if (!entries.empty()) {
    const std::size_t dims = entries.front().point.size();
    DLAP_REQUIRE(dims >= 1 && dims <= static_cast<std::size_t>(kMaxDims),
                 "cannot pack sample points of implausible dims");
    for (const SamplePoint& e : entries) {
      DLAP_REQUIRE(e.point.size() == dims,
                   "sample points of one key must share a dimensionality");
    }
  }
  samples_[engine_key] = std::move(entries);
}

std::vector<std::byte> ContainerWriter::serialize() const {
  const bool swap = options_.byte_swap;
  StringTable strings;

  // Model payloads, recording each model's (offset, size) relative to
  // the payload base (the header end, so everything stays 8-aligned).
  std::vector<std::byte> payload;
  struct ModelLoc {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };
  std::vector<ModelLoc> model_locs;
  model_locs.reserve(models_.size());
  for (const auto& [key, model] : models_) {
    const PiecewiseModel& pm = model.model;
    const int dims = pm.dims();
    ModelLoc loc;
    loc.offset = payload.size();
    put_u64(payload, pm.pieces().size(), swap);
    for (int d = 0; d < dims; ++d) {
      put_i64(payload, pm.domain().lo(d), swap);
      put_i64(payload, pm.domain().hi(d), swap);
    }
    for (const RegionModel& p : pm.pieces()) {
      for (int d = 0; d < dims; ++d) {
        put_i64(payload, p.region.lo(d), swap);
        put_i64(payload, p.region.hi(d), swap);
      }
      put_f64(payload, p.fit_error, swap);
      put_f64(payload, p.mean_error, swap);
      put_i64(payload, p.samples_used, swap);
      put_u32(payload, static_cast<std::uint32_t>(p.poly.degree()), swap);
      const std::size_t ncoef = p.poly.coefficients(Stat::Min).size();
      put_u32(payload, static_cast<std::uint32_t>(ncoef), swap);
      const Normalization& norm = p.poly.normalization();
      for (int d = 0; d < dims; ++d) put_f64(payload, norm.shift[d], swap);
      for (int d = 0; d < dims; ++d) put_f64(payload, norm.scale[d], swap);
      for (int s = 0; s < kStatCount; ++s) {
        for (const double c : p.poly.coefficients(static_cast<Stat>(s))) {
          put_f64(payload, c, swap);
        }
      }
    }
    loc.size = payload.size() - loc.offset;
    model_locs.push_back(loc);
  }

  // Sample payloads (journal order preserved within each key).
  std::vector<std::uint64_t> sample_offsets;
  sample_offsets.reserve(samples_.size());
  for (const auto& [key, entries] : samples_) {
    sample_offsets.push_back(payload.size());
    for (const SamplePoint& e : entries) {
      for (const index_t c : e.point) put_i64(payload, c, swap);
      put_f64(payload, e.stats.min, swap);
      put_f64(payload, e.stats.median, swap);
      put_f64(payload, e.stats.mean, swap);
      put_f64(payload, e.stats.max, swap);
      put_f64(payload, e.stats.stddev, swap);
      put_i64(payload, e.stats.count, swap);
    }
  }

  const std::uint64_t payload_base = kHeaderSize;
  const std::uint64_t model_index_offset = payload_base + payload.size();
  const std::uint64_t sample_index_offset =
      model_index_offset + kModelEntrySize * models_.size();
  const std::uint64_t string_table_offset =
      sample_index_offset + kSampleEntrySize * samples_.size();

  // Indexes (string refs interned as they are emitted).
  std::vector<std::byte> model_index;
  std::size_t mi = 0;
  for (const auto& [key, model] : models_) {
    const auto [r_off, r_len] = strings.ref(key.routine);
    const auto [b_off, b_len] = strings.ref(key.backend);
    const auto [f_off, f_len] = strings.ref(key.flags);
    const auto [s_off, s_len] = strings.ref(model.strategy);
    put_u32(model_index, r_off, swap);
    put_u32(model_index, r_len, swap);
    put_u32(model_index, b_off, swap);
    put_u32(model_index, b_len, swap);
    put_u32(model_index, f_off, swap);
    put_u32(model_index, f_len, swap);
    put_u32(model_index, s_off, swap);
    put_u32(model_index, s_len, swap);
    put_u32(model_index, static_cast<std::uint32_t>(key.locality), swap);
    put_u32(model_index, static_cast<std::uint32_t>(model.model.dims()),
            swap);
    put_u64(model_index, payload_base + model_locs[mi].offset, swap);
    put_u64(model_index, model_locs[mi].size, swap);
    put_i64(model_index, model.unique_samples, swap);
    put_f64(model_index, model.average_error, swap);
    ++mi;
  }

  std::vector<std::byte> sample_index;
  std::size_t si = 0;
  for (const auto& [key, entries] : samples_) {
    const auto [k_off, k_len] = strings.ref(key);
    const std::uint32_t dims =
        entries.empty() ? 1 : static_cast<std::uint32_t>(
                                  entries.front().point.size());
    put_u32(sample_index, k_off, swap);
    put_u32(sample_index, k_len, swap);
    put_u32(sample_index, dims, swap);
    put_u32(sample_index, 0, swap);
    put_u64(sample_index, payload_base + sample_offsets[si], swap);
    put_u64(sample_index, entries.size(), swap);
    ++si;
  }

  const std::uint64_t file_size = string_table_offset + strings.blob().size();

  std::vector<std::byte> out;
  out.reserve(static_cast<std::size_t>(file_size));
  const auto* magic = reinterpret_cast<const std::byte*>(kContainerMagic);
  out.insert(out.end(), magic, magic + sizeof kContainerMagic);
  put_u32(out, kEndianTag, swap);
  put_u32(out, kContainerVersion, swap);
  put_u64(out, file_size, swap);
  put_u64(out, string_table_offset, swap);
  put_u64(out, strings.blob().size(), swap);
  put_u64(out, model_index_offset, swap);
  put_u64(out, models_.size(), swap);
  put_u64(out, sample_index_offset, swap);
  put_u64(out, samples_.size(), swap);
  put_u64(out, 0, swap);  // reserved
  DLAP_ASSERT(out.size() == kHeaderSize);

  out.insert(out.end(), payload.begin(), payload.end());
  out.insert(out.end(), model_index.begin(), model_index.end());
  out.insert(out.end(), sample_index.begin(), sample_index.end());
  const auto* sp = reinterpret_cast<const std::byte*>(strings.blob().data());
  out.insert(out.end(), sp, sp + strings.blob().size());
  DLAP_ASSERT(out.size() == file_size);
  return out;
}

void ContainerWriter::write(const std::filesystem::path& path) const {
  const std::vector<std::byte> image = serialize();
  const auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::filesystem::path tmp =
      path.string() + ".tmp" + std::to_string(tid);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw container_error("cannot write container: " + tmp.string());
    }
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out.good()) {
      throw container_error("cannot write container: " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

// ------------------------------------------------------------------ reader

std::shared_ptr<const ContainerReader> ContainerReader::open(
    const std::filesystem::path& path) {
  try {
    return from_file(MappedFile::open(path));
  } catch (const container_error& e) {
    throw container_error(path.string() + ": " + e.what());
  }
}

std::shared_ptr<const ContainerReader> ContainerReader::from_file(
    std::shared_ptr<const MappedFile> file) {
  auto reader = std::shared_ptr<ContainerReader>(new ContainerReader());
  reader->parse(std::move(file));
  return reader;
}

void ContainerReader::parse(std::shared_ptr<const MappedFile> file) {
  file_ = std::move(file);
  const std::byte* data = file_->data();
  const std::size_t size = file_->size();

  if (size < kHeaderSize) {
    throw container_error("truncated container header (" +
                          std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kContainerMagic, sizeof kContainerMagic) != 0) {
    throw container_error("not a dlapc container (bad magic)");
  }
  std::uint32_t tag;
  std::memcpy(&tag, data + sizeof kContainerMagic, sizeof tag);
  if (tag == kEndianTag) {
    swap_ = false;
  } else if (byteswap32(tag) == kEndianTag) {
    swap_ = true;
  } else {
    throw container_error("bad endianness tag");
  }

  Cursor cur(data, size, swap_, "container header");
  cur.seek(sizeof kContainerMagic + sizeof tag);
  version_ = cur.u32();
  if (version_ != kContainerVersion) {
    throw container_error("unsupported container version " +
                          std::to_string(version_) + " (expected " +
                          std::to_string(kContainerVersion) + ")");
  }
  const std::uint64_t file_size = cur.u64();
  if (file_size != size) {
    throw container_error("container size mismatch: header says " +
                          std::to_string(file_size) + " bytes, file holds " +
                          std::to_string(size) + " (truncated?)");
  }
  const std::uint64_t str_off = cur.u64();
  const std::uint64_t str_size = cur.u64();
  const std::uint64_t model_off = cur.u64();
  const std::uint64_t model_count = cur.u64();
  const std::uint64_t sample_off = cur.u64();
  const std::uint64_t sample_count = cur.u64();

  const auto check_section = [&](std::uint64_t off, std::uint64_t count,
                                 std::uint64_t entry_size, const char* what) {
    if (off > size || count > (size - off) / entry_size) {
      throw container_error(std::string(what) +
                            " index out of bounds (offset " +
                            std::to_string(off) + ", " +
                            std::to_string(count) + " entries)");
    }
  };
  if (str_off > size || str_size > size - str_off) {
    throw container_error("string table out of bounds");
  }
  strings_ = reinterpret_cast<const char*>(data + str_off);
  strings_size_ = static_cast<std::size_t>(str_size);
  check_section(model_off, model_count, kModelEntrySize, "model");
  check_section(sample_off, sample_count, kSampleEntrySize, "sample");

  const auto checked_str = [&](std::uint32_t off,
                               std::uint32_t len) -> std::string_view {
    if (off > strings_size_ || len > strings_size_ - off) {
      throw container_error("string reference past end of string table");
    }
    return {strings_ + off, len};
  };

  Cursor mcur(data, size, swap_, "model index");
  mcur.seek(model_off);
  models_.reserve(static_cast<std::size_t>(model_count));
  for (std::uint64_t i = 0; i < model_count; ++i) {
    ModelEntry e;
    const std::uint32_t r_off = mcur.u32(), r_len = mcur.u32();
    const std::uint32_t b_off = mcur.u32(), b_len = mcur.u32();
    const std::uint32_t f_off = mcur.u32(), f_len = mcur.u32();
    const std::uint32_t s_off = mcur.u32(), s_len = mcur.u32();
    e.key.routine = std::string(checked_str(r_off, r_len));
    e.key.backend = std::string(checked_str(b_off, b_len));
    e.key.flags = std::string(checked_str(f_off, f_len));
    e.strategy = std::string(checked_str(s_off, s_len));
    const std::uint32_t locality = mcur.u32();
    if (locality > 1) {
      throw container_error("model index entry " + std::to_string(i) +
                            ": bad locality " + std::to_string(locality));
    }
    e.key.locality = static_cast<Locality>(locality);
    const std::uint32_t dims = mcur.u32();
    if (dims < 1 || dims > static_cast<std::uint32_t>(kMaxDims)) {
      throw container_error("model index entry " + std::to_string(i) +
                            ": implausible dims " + std::to_string(dims));
    }
    e.dims = static_cast<int>(dims);
    e.payload_offset = mcur.u64();
    e.payload_size = mcur.u64();
    if (e.payload_offset > size || e.payload_size > size - e.payload_offset) {
      throw container_error("model index entry " + std::to_string(i) + " (" +
                            e.key.to_string() +
                            "): payload out of bounds (offset " +
                            std::to_string(e.payload_offset) + ", size " +
                            std::to_string(e.payload_size) + ")");
    }
    e.unique_samples = mcur.i64();
    e.average_error = mcur.f64();
    if (!model_index_.emplace(e.key, models_.size()).second) {
      throw container_error("duplicate model key in container index: " +
                            e.key.to_string());
    }
    models_.push_back(std::move(e));
  }

  Cursor scur(data, size, swap_, "sample index");
  scur.seek(sample_off);
  samples_.reserve(static_cast<std::size_t>(sample_count));
  for (std::uint64_t i = 0; i < sample_count; ++i) {
    SampleSection s;
    const std::uint32_t k_off = scur.u32(), k_len = scur.u32();
    s.key = std::string(checked_str(k_off, k_len));
    const std::uint32_t dims = scur.u32();
    (void)scur.u32();  // reserved
    if (dims < 1 || dims > static_cast<std::uint32_t>(kMaxDims)) {
      throw container_error("sample index entry " + std::to_string(i) +
                            ": implausible dims " + std::to_string(dims));
    }
    s.dims = static_cast<int>(dims);
    s.payload_offset = scur.u64();
    s.entry_count = scur.u64();
    const std::uint64_t entry_size = 8ULL * dims + 48;
    if (s.payload_offset > size ||
        s.entry_count > (size - s.payload_offset) / entry_size) {
      throw container_error("sample index entry " + std::to_string(i) +
                            " (" + s.key + "): payload out of bounds");
    }
    if (!sample_index_.emplace(s.key, samples_.size()).second) {
      throw container_error("duplicate sample key in container index: " +
                            s.key);
    }
    samples_.push_back(std::move(s));
  }
}

std::string_view ContainerReader::str(std::uint32_t off,
                                      std::uint32_t len) const {
  if (off > strings_size_ || len > strings_size_ - off) {
    throw container_error("string reference past end of string table");
  }
  return {strings_ + off, len};
}

ModelView ContainerReader::model(std::size_t i) const {
  DLAP_REQUIRE(i < models_.size(), "model index out of range");
  return ModelView(this, i);
}

std::optional<std::size_t> ContainerReader::find_model(
    const ModelKeyRef& key) const {
  const auto it = model_index_.find(key);
  if (it == model_index_.end()) return std::nullopt;
  return it->second;
}

std::vector<ModelKey> ContainerReader::model_keys() const {
  std::vector<ModelKey> keys;
  keys.reserve(models_.size());
  for (const auto& [key, index] : model_index_) keys.push_back(key);
  return keys;
}

bool ContainerReader::entry_zero_copy(const ModelEntry& entry) const {
  // Every offset inside a well-formed payload is a multiple of 8, so the
  // whole record's tables are aligned iff its base is.
  const auto base = reinterpret_cast<std::uintptr_t>(file_->data()) +
                    static_cast<std::uintptr_t>(entry.payload_offset);
  return !swap_ && base % alignof(double) == 0;
}

std::shared_ptr<const RoutineModel> ContainerReader::load_entry(
    const ModelEntry& entry) const {
  try {
    const std::byte* base = file_->data() + entry.payload_offset;
    Cursor cur(base, static_cast<std::size_t>(entry.payload_size), swap_,
               "model record " + entry.key.to_string());
    const int dims = entry.dims;

    const std::uint64_t piece_count = cur.u64();
    if (piece_count < 1 || piece_count > entry.payload_size / 8) {
      throw container_error("model record " + entry.key.to_string() +
                            ": implausible piece count " +
                            std::to_string(piece_count));
    }
    const auto read_bounds = [&](std::vector<index_t>& lo,
                                 std::vector<index_t>& hi) {
      lo.resize(dims);
      hi.resize(dims);
      for (int d = 0; d < dims; ++d) {
        lo[d] = cur.i64();
        hi[d] = cur.i64();
      }
    };
    std::vector<index_t> lo, hi;
    read_bounds(lo, hi);
    const Region domain(lo, hi);

    std::vector<RegionModel> pieces;
    pieces.reserve(static_cast<std::size_t>(piece_count));
    for (std::uint64_t p = 0; p < piece_count; ++p) {
      RegionModel piece;
      read_bounds(lo, hi);
      piece.region = Region(lo, hi);
      piece.fit_error = cur.f64();
      piece.mean_error = cur.f64();
      piece.samples_used = cur.i64();
      const std::uint32_t degree = cur.u32();
      const std::uint32_t ncoef = cur.u32();
      if (degree > static_cast<std::uint32_t>(kMaxDegree) ||
          ncoef != static_cast<std::uint32_t>(
                       monomial_count(dims, static_cast<int>(degree)))) {
        throw container_error("model record " + entry.key.to_string() +
                              ": coefficient count " + std::to_string(ncoef) +
                              " does not match degree " +
                              std::to_string(degree));
      }
      Normalization norm;
      norm.shift.resize(dims);
      norm.scale.resize(dims);
      for (int d = 0; d < dims; ++d) norm.shift[d] = cur.f64();
      for (int d = 0; d < dims; ++d) norm.scale[d] = cur.f64();

      const std::size_t table_doubles =
          static_cast<std::size_t>(kStatCount) * ncoef;
      const std::byte* table = cur.bytes(table_doubles * sizeof(double));
      const bool aligned =
          reinterpret_cast<std::uintptr_t>(table) % alignof(double) == 0;
      if (!swap_ && aligned) {
        // Zero-copy: the polynomial reads its coefficients straight out
        // of the mapping (pinned by the holder below).
        piece.poly = VecPolynomial(
            dims, static_cast<int>(degree), std::move(norm),
            reinterpret_cast<const double*>(table), VecPolynomial::Borrow{});
      } else {
        // Foreign byte order or misaligned file: private converted copy.
        std::vector<std::vector<double>> coeffs(kStatCount);
        const std::byte* src = table;
        for (int s = 0; s < kStatCount; ++s) {
          coeffs[static_cast<std::size_t>(s)].resize(ncoef);
          for (std::uint32_t m = 0; m < ncoef; ++m) {
            std::uint64_t bits;
            std::memcpy(&bits, src, sizeof bits);
            src += sizeof bits;
            if (swap_) bits = byteswap64(bits);
            coeffs[static_cast<std::size_t>(s)][m] =
                std::bit_cast<double>(bits);
          }
        }
        piece.poly = VecPolynomial(dims, static_cast<int>(degree),
                                   std::move(norm), std::move(coeffs));
      }
      pieces.push_back(std::move(piece));
    }
    if (cur.remaining() != 0) {
      throw container_error("model record " + entry.key.to_string() + ": " +
                            std::to_string(cur.remaining()) +
                            " trailing bytes");
    }

    // The holder pins the mapping, so borrowed coefficient tables stay
    // valid for as long as anyone holds the returned model -- even after
    // the reader itself is gone.
    struct Holder {
      std::shared_ptr<const MappedFile> pin;
      RoutineModel model;
    };
    auto holder = std::make_shared<Holder>();
    holder->pin = file_;
    holder->model.key = entry.key;
    holder->model.strategy = entry.strategy;
    holder->model.unique_samples = entry.unique_samples;
    holder->model.average_error = entry.average_error;
    holder->model.source = ModelSource::Container;
    holder->model.model = PiecewiseModel(domain, std::move(pieces));
    return std::shared_ptr<const RoutineModel>(holder, &holder->model);
  } catch (const container_error&) {
    throw;
  } catch (const std::exception& e) {
    // Region/polynomial constructors reject inconsistent data with
    // invalid_argument_error; surface it as the container's typed error.
    throw container_error("model record " + entry.key.to_string() +
                          ": corrupt payload: " + e.what());
  }
}

std::string_view ContainerReader::sample_key(std::size_t i) const {
  DLAP_REQUIRE(i < samples_.size(), "sample index out of range");
  return samples_[i].key;
}

std::optional<std::size_t> ContainerReader::find_samples(
    std::string_view engine_key) const {
  const auto it = sample_index_.find(engine_key);
  if (it == sample_index_.end()) return std::nullopt;
  return it->second;
}

std::size_t ContainerReader::sample_entry_count(std::size_t i) const {
  DLAP_REQUIRE(i < samples_.size(), "sample index out of range");
  return static_cast<std::size_t>(samples_[i].entry_count);
}

void ContainerReader::for_each_sample(
    std::size_t i,
    const std::function<void(const std::vector<index_t>&,
                             const SampleStats&)>& fn) const {
  DLAP_REQUIRE(i < samples_.size(), "sample index out of range");
  const SampleSection& s = samples_[i];
  const std::uint64_t entry_size = 8ULL * s.dims + 48;
  Cursor cur(file_->data() + s.payload_offset,
             static_cast<std::size_t>(entry_size * s.entry_count), swap_,
             "sample section " + s.key);
  std::vector<index_t> point(static_cast<std::size_t>(s.dims));
  for (std::uint64_t e = 0; e < s.entry_count; ++e) {
    for (index_t& c : point) c = cur.i64();
    SampleStats stats;
    stats.min = cur.f64();
    stats.median = cur.f64();
    stats.mean = cur.f64();
    stats.max = cur.f64();
    stats.stddev = cur.f64();
    stats.count = cur.i64();
    fn(point, stats);
  }
}

std::size_t ContainerReader::total_sample_entries() const {
  std::size_t total = 0;
  for (const SampleSection& s : samples_) {
    total += static_cast<std::size_t>(s.entry_count);
  }
  return total;
}

// --------------------------------------------------------------- ModelView

const ModelKey& ModelView::key() const {
  return reader_->models_[index_].key;
}

index_t ModelView::unique_samples() const {
  return reader_->models_[index_].unique_samples;
}

double ModelView::average_error() const {
  return reader_->models_[index_].average_error;
}

std::string_view ModelView::strategy() const {
  return reader_->models_[index_].strategy;
}

bool ModelView::zero_copy() const {
  return reader_->entry_zero_copy(reader_->models_[index_]);
}

std::shared_ptr<const RoutineModel> ModelView::load() const {
  return reader_->load_entry(reader_->models_[index_]);
}

}  // namespace dlap::storage
