#pragma once
// In-memory spans for the traced run: name, start, end, parent and
// request id, recorded around the benchmark's calls into each layer and
// written out once at exit. A layer's self time is its span's duration
// minus the time its child spans cover. Single-threaded by design: the
// traced replay runs on one thread.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace dlapbench {

class Spans {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  ///< index + 1 of the parent span, 0 for a root
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    [[nodiscard]] double mean_self_us() const {
      return count == 0 ? 0.0 : self_us / static_cast<double>(count);
    }
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t request = 0)
        : spans_(spans), index_(spans.open(name, request)) {}
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  /// Per-name count, total and self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_us[s.parent - 1] += us(s);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.total_us += us(spans_[i]);
      t.self_us += us(spans_[i]) - child_us[i];
    }
    return out;
  }

  /// One tab-separated line per span: id, parent, request, name, start
  /// and end in nanoseconds from the first span.
  void write(const std::filesystem::path& file) const {
    std::ofstream out(file);
    out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i + 1 << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\n';
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static double us(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }

  std::size_t open(const char* name, std::uint64_t request) {
    const std::uint32_t parent =
        open_.empty() ? 0 : static_cast<std::uint32_t>(open_.back() + 1);
    spans_.push_back({name, parent, request, now_ns(), 0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace dlapbench
