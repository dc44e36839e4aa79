// Benchmark plumbing shared by frdbench and its self-test: the failure
// type every correctness check throws, the span tracer, and the process
// probes (clock, peak RSS, host header).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace frdbench {

// Thrown by every correctness check; frdbench turns it into a failed run
// (correct=false, nonzero exit).
class check_failure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename A, typename B>
void expect_eq(const std::string& what, const A& got, const B& want) {
  if (got == want) return;
  std::ostringstream msg;
  msg << what << ": got " << got << ", want " << want;
  throw check_failure(msg.str());
}

// Racy-granule sets must match exactly; the message names the first granule
// present on one side only.
void expect_same_granules(const std::string& what,
                          const std::set<std::uintptr_t>& got,
                          const std::set<std::uintptr_t>& want);

using clock = std::chrono::steady_clock;

inline double since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

// Host description printed before results: CPU model, nproc, MHz, compiler,
// build type.
std::vector<std::string> host_header();

// In-memory span recorder for the traced run. A span has a name, start and
// end (ns since the tracer was made) and the span that was open when it
// began. Disabled tracers record nothing and cost one branch per scope.
class tracer {
 public:
  explicit tracer(bool on) : on_(on), t0_(clock::now()) {}

  class scope {
   public:
    scope(tracer& t, const std::string& name);
    ~scope();
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer& t_;
    int id_ = -1;
    int saved_parent_ = -1;
  };

  // Self time (duration minus the child spans it contains), summed per
  // span name.
  std::map<std::string, double> self_by_name() const;
  // Writes one JSON object per span per line.
  void write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  std::int64_t now_ns() const;

  bool on_;
  clock::time_point t0_;
  std::vector<span> spans_;
  int open_ = -1;
};

}  // namespace frdbench
