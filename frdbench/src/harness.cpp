#include "harness.hpp"

#include <fstream>
#include <thread>

namespace frdbench {

void expect_same_granules(const std::string& what,
                          const std::set<std::uintptr_t>& got,
                          const std::set<std::uintptr_t>& want) {
  if (got == want) return;
  std::ostringstream msg;
  msg << what << ": racy-granule sets differ (" << got.size() << " reported, "
      << want.size() << " expected)";
  for (std::uintptr_t g : want) {
    if (!got.count(g)) {
      msg << "; missed 0x" << std::hex << g;
      break;
    }
  }
  for (std::uintptr_t g : got) {
    if (!want.count(g)) {
      msg << "; spurious 0x" << std::hex << g;
      break;
    }
  }
  throw check_failure(msg.str());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw check_failure("VmHWM missing from /proc/self/status");
}

std::vector<std::string> host_header() {
  std::string model = "unknown", mhz = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  auto value = [](const std::string& l) {
    const std::size_t colon = l.find(':');
    return colon == std::string::npos ? std::string() : l.substr(colon + 2);
  };
  while (std::getline(in, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = value(line);
    }
    if (mhz == "unknown" && line.rfind("cpu MHz", 0) == 0) mhz = value(line);
  }
  return {"cpu: " + model,
          "nproc: " + std::to_string(std::thread::hardware_concurrency()),
          "cpu_mhz: " + mhz, std::string("compiler: ") + FRDBENCH_COMPILER,
          std::string("build_type: ") + FRDBENCH_BUILD_TYPE};
}

tracer::scope::scope(tracer& t, const std::string& name) : t_(t) {
  if (!t_.on_) return;
  id_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(span{name, t_.now_ns(), 0, t_.open_});
  saved_parent_ = t_.open_;
  t_.open_ = id_;
}

tracer::scope::~scope() {
  if (id_ < 0) return;
  t_.spans_[static_cast<std::size_t>(id_)].end_ns = t_.now_ns();
  t_.open_ = saved_parent_;
}

std::int64_t tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              t0_)
      .count();
}

std::map<std::string, double> tracer::self_by_name() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const span& s : spans_) {
    if (s.parent >= 0) child_ns[std::size_t(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out[s.name] += 1e-9 * double(s.end_ns - s.start_ns - child_ns[i]);
  }
  return out;
}

void tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}\n";
  }
  out.close();
  if (!out) throw check_failure("writing span file " + path + " failed");
}

}  // namespace frdbench
