// The benchmark's workloads and the measurements made on them.
//
// A workload is a list of programs run under one reachability backend. A
// program is either a live kernel (bench_suite kernels and the graph
// fuzzer, run on the serial runtime, or on the work-stealing runtime for
// online workloads) or a stored trace replayed through session::replay.
// Every program checks its own answer; the runners below add the checks
// that need the session (race counts, get counts, access counts, racy
// granules against goldens and graph::reference_detector).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "harness.hpp"

namespace frdbench {

class access_capture;

struct program {
  std::string name;
  // Counts toward the paper's Figure 6/7 geomean (dedup is excluded there,
  // as in the paper: its compressor is not instrumented).
  bool paper_kernel = false;
  // Untimed, before every run of any configuration (rebuilds inputs that a
  // run consumes).
  std::function<void()> prepare;
  // The same work with no detection: the uninstrumented serial runtime, or
  // a decode-only pass for a stored trace.
  std::function<void()> baseline;
  // The bare work-stealing runtime (online workloads only).
  std::function<void(unsigned workers)> bare_parallel;
  // Runs (or replays) the program inside `s`; `instrumented` selects the
  // active hook policy for live kernels.
  std::function<void(frd::session& s, bool instrumented)> detect;
  // Feeds the program's access stream (with strand ids) into a capture.
  std::function<void(access_capture&)> capture;
  // Racy granules by graph::reference_detector on an independent run; null
  // when the program is race-free by construction.
  std::function<std::set<std::uintptr_t>()> reference;

  // Expectations checked after every full-detection run.
  std::uint64_t expected_gets = 0;
  bool race_free = true;
  // Stored traces: the golden racy set and the access count the
  // benchmark's own decode pass tallied.
  bool replay = false;
  std::string trace_path;
  std::set<std::uintptr_t> golden_racy;
  std::uint64_t expected_accesses = 0;

  // Racy granules of the last checked full-detection run.
  std::set<std::uintptr_t> last_racy;
};

struct workload {
  std::string name;
  std::string backend;
  bool online = false;
  unsigned workers = 0;  // runtime workers of online runs
  // Baseline passes per round: bare parallel runs last milliseconds, so
  // online workloads take more of them to hold their median steady.
  int baseline_reps = 1;
  std::vector<program> programs;
  // Online programs whose ring-push and pump-walk costs the traced run
  // measures (online.* metrics); the workload itself when online.
  std::shared_ptr<workload> online_probe;
};

// Builds a workload's inputs from `seed`. `corpus_dir` holds the checked-in
// trace corpus; `traced` adds what only the traced run measures. Throws
// check_failure on an unknown name.
workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& corpus_dir, bool traced = false);
const std::vector<std::string>& workload_names();

// Single programs, exposed for the self-test. `answer_skew` shifts the
// expected answer, so a skew of 1 must fail the run.
program make_lcs_program(std::size_t n, std::size_t base, std::uint64_t seed,
                         int answer_skew = 0);
// Replays the trace at `path` (any format trace::open_source reads) against
// the golden at `golden_path`.
program make_replay_program(const std::string& name, const std::string& path,
                            const std::string& golden_path);

frd::session::options options_for(const workload& w, frd::detect::level lvl);

// Known-racy canaries with closed-form racy sets, run through the
// workload's detection path (live, online, or replay) before any timing.
// Throws check_failure unless detection reports exactly that set.
void run_canary(const workload& w, frd::detect::level lvl,
                const std::string& corpus_dir);

// Counters of one full-detection session, summed over programs.
struct layer_counters {
  std::uint64_t accesses = 0, races = 0, racy_granules = 0;
  std::uint64_t lookups = 0, cache_hits = 0, batches = 0, strands = 0;
  std::uint64_t dsu_finds = 0, dsu_hops = 0;
  std::uint64_t rgraph_nodes = 0, rgraph_row_merges = 0;
  double rgraph_closure_mb = 0, shadow_peak_mb = 0;
  std::uint64_t shadow_pages = 0;
};

// One run of `p` at `lvl` in a fresh session: the timed call is the
// program's run/replay only. Full-detection runs are checked. `counters`
// (optional) accumulates the session's counters; `extra` (optional) is
// attached with session::add_listener.
double run_in_session(const workload& w, program& p, frd::detect::level lvl,
                      layer_counters* counters = nullptr,
                      frd::rt::execution_listener* extra = nullptr);

// One timed baseline run (bare parallel for online workloads).
double run_baseline(const workload& w, program& p);

// Compares each program's last racy set against graph::reference_detector.
void check_references(workload& w);

// Online workloads: answers and racy sets must equal serial live detection
// of the same programs. Returns the summed serial detection time.
double check_online_against_serial(workload& w);

// Per-layer measurements of one round (traced run).
struct layer_round {
  std::map<std::string, double> metrics;
  std::uint64_t runs = 0;
};
layer_round measure_layers(workload& w, tracer& tr);

}  // namespace frdbench
