#include "predict/compiled_trace.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/number_text.hpp"
#include "sampler/machine.hpp"

namespace dlap {

double Prediction::efficiency_median(double total_flops) const {
  // Defined everywhere: empty/all-skipped traces (median 0), zero-flop
  // formulas and NaN inputs all yield 0 instead of propagating NaN or
  // tripping efficiency()'s nonpositive-ticks requirement.
  if (!(ticks.median > 0.0) || !(total_flops > 0.0) ||
      !std::isfinite(total_flops)) {
    return 0.0;
  }
  return efficiency(total_flops, ticks.median);
}

void write_prediction(const Prediction& p, std::string* out) {
  // Each key carries the punctuation before it.
  const auto field = [out](std::string_view key, double v) {
    out->append(key);
    append_number(v, out);
  };
  field("{\"ticks\":{\"min\":", p.ticks.min);
  field(",\"median\":", p.ticks.median);
  field(",\"mean\":", p.ticks.mean);
  field(",\"max\":", p.ticks.max);
  field(",\"stddev\":", p.ticks.stddev);
  field(",\"count\":", static_cast<double>(p.ticks.count));
  field("},\"flops\":", p.flops);
  field(",\"calls\":", static_cast<double>(p.calls));
  field(",\"skipped\":", static_cast<double>(p.skipped));
  field(",\"missing\":", static_cast<double>(p.missing));
  out->push_back('}');
}

namespace {

// splitmix64's finalizer: spreads every input bit over the bits the hash
// tables index by.
std::uint64_t scramble(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

CompiledTrace CompiledTrace::compile(const CallTrace& trace) {
  Builder builder;
  builder.reserve(trace.size());
  for (const KernelCall& call : trace) {
    builder.add(call.routine, call.flags, call.sizes);
  }
  return std::move(builder).finish();
}

std::size_t CompiledTrace::Builder::ProbeHash::operator()(
    const KeyProbe& k) const noexcept {
  // The key packs losslessly into one word: routine, flag count, flags.
  std::uint64_t word = static_cast<std::uint64_t>(k.routine) |
                       std::uint64_t{k.nflags} << 8;
  for (std::size_t i = 0; i < k.nflags; ++i) {
    word |= std::uint64_t{static_cast<unsigned char>(k.flags[i])}
            << (16 + 8 * i);
  }
  return scramble(word);
}

std::size_t CompiledTrace::Builder::ProbeHash::operator()(
    const EntryProbe& e) const noexcept {
  std::uint64_t h = (*this)(e.key);
  for (std::size_t i = 0; i < e.nsizes; ++i) {
    h = scramble(h ^ static_cast<std::uint64_t>(e.sizes[i]));
  }
  return h;
}

void CompiledTrace::Builder::add(RoutineId routine,
                                 std::span<const char> flags,
                                 std::span<const index_t> sizes) {
  DLAP_REQUIRE(flags.size() <= kMaxFlags && sizes.size() <= kMaxSizes,
               "CompiledTrace::Builder: a call has at most 4 flags and 3 "
               "sizes");
  ++out_.source_calls_;
  if (call_is_degenerate(sizes)) {
    ++out_.skipped_;
    out_.order_.push_back(kSkippedCall);
    return;
  }

  EntryProbe probe;
  probe.key.routine = routine;
  probe.key.nflags = static_cast<std::uint8_t>(flags.size());
  std::copy(flags.begin(), flags.end(), probe.key.flags.begin());
  probe.nsizes = static_cast<std::uint8_t>(sizes.size());
  std::copy(sizes.begin(), sizes.end(), probe.sizes.begin());

  const auto [entry_it, new_entry] = entry_ids_.try_emplace(
      probe, static_cast<std::int32_t>(out_.entries_.size()));
  if (new_entry) {
    const auto [key_it, new_key] =
        key_ids_.try_emplace(probe.key, static_cast<int>(out_.keys_.size()));
    if (new_key) {
      out_.keys_.push_back({routine, std::string(flags.begin(), flags.end())});
    }
    CompiledCall entry;
    entry.key = key_it->second;
    entry.sizes.assign(sizes.begin(), sizes.end());
    entry.point.assign(sizes.begin(), sizes.end());
    entry.flops = call_flops(routine, flags, sizes);
    out_.entries_.push_back(std::move(entry));
  }
  ++out_.entries_[static_cast<std::size_t>(entry_it->second)].multiplicity;
  out_.order_.push_back(entry_it->second);
}

void CompilingContext::gemm(Trans transa, Trans transb, index_t m, index_t n,
                            index_t k, double, const double*, index_t,
                            const double*, index_t, double, double*,
                            index_t) {
  const char flags[] = {to_char(transa), to_char(transb)};
  const index_t sizes[] = {m, n, k};
  builder_.add(RoutineId::Gemm, flags, sizes);
}

void CompilingContext::trsm(Side side, Uplo uplo, Trans transa, Diag diag,
                            index_t m, index_t n, double, const double*,
                            index_t, double*, index_t) {
  const char flags[] = {to_char(side), to_char(uplo), to_char(transa),
                        to_char(diag)};
  const index_t sizes[] = {m, n};
  builder_.add(RoutineId::Trsm, flags, sizes);
}

void CompilingContext::trmm(Side side, Uplo uplo, Trans transa, Diag diag,
                            index_t m, index_t n, double, const double*,
                            index_t, double*, index_t) {
  const char flags[] = {to_char(side), to_char(uplo), to_char(transa),
                        to_char(diag)};
  const index_t sizes[] = {m, n};
  builder_.add(RoutineId::Trmm, flags, sizes);
}

void CompilingContext::syrk(Uplo uplo, Trans trans, index_t n, index_t k,
                            double, const double*, index_t, double, double*,
                            index_t) {
  const char flags[] = {to_char(uplo), to_char(trans)};
  const index_t sizes[] = {n, k};
  builder_.add(RoutineId::Syrk, flags, sizes);
}

void CompilingContext::trinv_unb(int variant, index_t n, double*, index_t) {
  const index_t sizes[] = {n};
  builder_.add(trinv_unb_routine(variant), {}, sizes);
}

void CompilingContext::chol_unb(int variant, index_t n, double*, index_t) {
  const index_t sizes[] = {n};
  builder_.add(chol_unb_routine(variant), {}, sizes);
}

void CompilingContext::sylv_unb(index_t m, index_t n, const double*, index_t,
                                const double*, index_t, double*, index_t) {
  const index_t sizes[] = {m, n};
  builder_.add(RoutineId::SylvUnb, {}, sizes);
}

Prediction CompiledTrace::predict(
    const std::vector<const RoutineModel*>& models_by_key) const {
  DLAP_REQUIRE(models_by_key.size() == keys_.size(),
               "CompiledTrace::predict: one model slot per key");

  // Evaluate every unique entry once, straight into its estimate.
  std::vector<SampleStats> est(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const RoutineModel* model =
        models_by_key[static_cast<std::size_t>(entries_[i].key)];
    if (model == nullptr) continue;  // occurrences counted missing below
    est[i] = model->model.evaluate(entries_[i].point);
  }

  // Accumulate the cached estimates in source-call order: the plain
  // per-call loop, with the model evaluation replaced by an array read.
  // This -- not multiplicity-scaled folding -- is what keeps the result
  // bit-identical for arbitrary model values.
  Prediction out;
  double var_sum = 0.0;
  for (const std::int32_t o : order_) {
    if (o == kSkippedCall) {
      ++out.skipped;
      continue;
    }
    const CompiledCall& entry = entries_[static_cast<std::size_t>(o)];
    if (models_by_key[static_cast<std::size_t>(entry.key)] == nullptr) {
      ++out.missing;
      continue;
    }
    const SampleStats& e = est[static_cast<std::size_t>(o)];
    out.ticks.min += e.min;
    out.ticks.median += e.median;
    out.ticks.mean += e.mean;
    out.ticks.max += e.max;
    var_sum += e.stddev * e.stddev;
    out.flops += entry.flops;
    ++out.calls;
  }
  out.ticks.stddev = std::sqrt(var_sum);
  out.ticks.count = out.calls;
  return out;
}

}  // namespace dlap
