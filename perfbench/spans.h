// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call from the benchmark into a layer of the stack:
// its name (the per-layer metric prefix, e.g. "iss.run"), start and end on
// the steady clock, the span that was open when it began (its parent), and
// the measurement window it belongs to. Spans stay in memory while the
// workload runs and are written out once, when the benchmark ends, so the
// file I/O never lands inside a timed window.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int window = 0;
  };

  void set_window(int window) { window_ = window; }

  int begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.window = window_;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Seconds per span name within one window: total duration and self time
  /// (duration minus the part covered by direct children).
  struct Times {
    double total_s = 0;
    double self_s = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Times> times(int window) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.window == window && s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Times> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.window != window) continue;
      Times& t = out[s.name];
      const int64_t d = s.end_ns - s.start_ns;
      t.total_s += static_cast<double>(d) * 1e-9;
      t.self_s += static_cast<double>(d - child_ns[i]) * 1e-9;
      ++t.count;
    }
    return out;
  }

  /// One JSON object per line: name, start_ns, end_ns, parent, window.
  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"window\":" << s.window << "}\n";
    }
    return out.good();
  }

 private:
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  int window_ = 0;
};

/// RAII span; a null log records nothing (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name) : log_(log), id_(log ? log->begin(name) : -1) {}
  ~Scope() {
    if (log_) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
