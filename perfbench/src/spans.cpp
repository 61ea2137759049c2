#include "spans.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/message.h"

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double rss_mb() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kib = 0.0;
      ss >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

void trim_heap() {
  asyncrd::sim::pool_detail::trim();
  asyncrd::sim::pool_detail::trim_global();
  ::malloc_trim(0);
}

std::size_t span_log::open(std::string name, std::uint64_t op) {
  span s;
  s.name = std::move(name);
  s.op = op;
  s.parent = open_.empty() ? none : open_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double span_log::close(std::size_t i) {
  if (open_.empty() || open_.back() != i)
    throw std::logic_error("span_log: spans must close innermost first");
  open_.pop_back();
  span& s = spans_[i];
  s.end = now_s();
  return s.end - s.start;
}

double span_log::covered(std::uint64_t op, std::size_t parent) const {
  double sum = 0.0;
  for (const span& s : spans_)
    if (s.op == op && s.parent == parent && s.end >= 0.0)
      sum += s.end - s.start;
  return sum;
}

bool span_log::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"traceEvents\": [";
  const char* sep = "\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (s.end < 0.0) continue;
    f << std::exchange(sep, ",\n") << "{\"name\": \"" << json_escape(s.name)
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
      << num(s.start * 1e6) << ", \"dur\": " << num((s.end - s.start) * 1e6)
      << ", \"args\": {\"span\": " << i << ", \"parent\": "
      << (s.parent == none ? std::string("null") : std::to_string(s.parent))
      << ", \"op\": " << s.op << "}}";
  }
  f << "\n]}\n";
  return f.good();
}

void metrics::add(const std::string& name, const char* unit, double value) {
  series& s = samples_[name];
  s.unit = unit;
  s.values.push_back(value);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

std::string metrics::to_json() const {
  std::ostringstream out;
  out << '{';
  const char* sep = "";
  for (const auto& [name, s] : samples_)
    out << std::exchange(sep, ", ") << '"' << json_escape(name)
        << "\": {\"value\": " << num(median(s.values)) << ", \"unit\": \""
        << json_escape(s.unit) << "\"}";
  out << '}';
  return out.str();
}

}  // namespace perfbench
