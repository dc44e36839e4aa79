// Shows that each correctness check of the benchmark can fail: every case
// below breaks one thing and expects check_failure, next to a control that
// must pass.
//
//   frdbench_selftest CORPUS_DIR    (writes scratch traces to the cwd)
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>

#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/runner.hpp"
#include "harness.hpp"
#include "trace/event.hpp"
#include "workloads.hpp"

using namespace frdbench;
using frd::detect::level;

namespace {

int g_failures = 0;

void expect_outcome(const std::string& name, bool want_failure,
                    const std::function<void()>& body) {
  bool failed = false;
  std::string why;
  try {
    body();
  } catch (const check_failure& e) {
    failed = true;
    why = e.what();
  }
  const bool ok = failed == want_failure;
  if (!ok) ++g_failures;
  std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", name.c_str(),
              failed ? " -- check fired: " : "", why.c_str());
}

workload small_workload(const std::string& backend, bool online = false) {
  workload w;
  w.name = "selftest";
  w.backend = backend;
  w.online = online;
  w.workers = online ? 2 : 0;
  return w;
}

// Copies `entry` with the last access to its first racy granule removed
// (in wavefront-structured-large that access is the monitor's read, the
// only access parallel to the cell's write), plus a golden that keeps the
// racy set but matches the shortened trace's counts.
void drop_one_racy_access(const std::string& corpus, const std::string& entry,
                          const std::string& trace_out,
                          const std::string& golden_out) {
  frd::trace::memory_trace tape =
      frd::corpus::load_trace(corpus + "/" + entry + ".frdtz");
  frd::corpus::golden_report g =
      frd::corpus::load_golden(corpus + "/" + entry + ".golden");
  const std::uint64_t victim = *g.racy_granules.begin();
  std::vector<frd::trace::trace_event> events = tape.events();
  for (std::size_t i = events.size(); i-- > 0;) {
    const frd::trace::trace_event& e = events[i];
    if ((e.kind == frd::trace::event_kind::read ||
         e.kind == frd::trace::event_kind::write) &&
        e.access.addr == victim) {
      events.erase(events.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  frd::trace::memory_trace copy(tape.header());
  for (const auto& e : events) copy.put(e);
  frd::corpus::save_trace(trace_out, copy);
  g.events -= 1;
  g.accesses -= 1;
  std::ofstream out(golden_out);
  frd::corpus::write_golden(out, g);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: frdbench_selftest CORPUS_DIR\n");
    return 2;
  }
  const std::string corpus = argv[1];

  // A kernel answer off by one.
  for (int skew : {0, 1}) {
    expect_outcome("lcs answer skew " + std::to_string(skew), skew != 0, [&] {
      workload w = small_workload("multibags");
      w.programs.push_back(make_lcs_program(96, 16, 7, skew));
      run_in_session(w, w.programs.back(), level::full);
    });
  }

  // A copy of a trace with one racy access removed: the detector's racy
  // set no longer matches the golden, and a detector that still claimed
  // the golden set would disagree with graph::reference_detector.
  const std::string entry = "wavefront-structured-large";
  drop_one_racy_access(corpus, entry, "selftest-dropped.frdt",
                       "selftest-dropped.golden");
  for (bool dropped : {false, true}) {
    const std::string trace = dropped ? "selftest-dropped.frdt"
                                      : corpus + "/" + entry + ".frdtz";
    const std::string golden = dropped ? "selftest-dropped.golden"
                                       : corpus + "/" + entry + ".golden";
    expect_outcome(std::string("replay vs golden, racy access ") +
                       (dropped ? "dropped" : "kept"),
                   dropped, [&] {
                     workload w = small_workload("multibags+");
                     w.programs.push_back(
                         make_replay_program(entry, trace, golden));
                     run_in_session(w, w.programs.back(), level::full);
                   });
    expect_outcome(std::string("golden set vs reference_detector, racy "
                               "access ") +
                       (dropped ? "dropped" : "kept"),
                   dropped, [&] {
                     workload w = small_workload("multibags+");
                     w.programs.push_back(
                         make_replay_program(entry, trace, golden));
                     program& p = w.programs.back();
                     p.last_racy = p.golden_racy;
                     check_references(w);
                   });
  }

  // Canaries at level::instrumentation report nothing and must abort; at
  // level::full they pass. Live, online and replay paths alike.
  for (level lvl : {level::full, level::instrumentation}) {
    const bool broken = lvl != level::full;
    const std::string at = std::string(" at ") +
                           std::string(frd::detect::to_string(lvl));
    expect_outcome("live multibags canary" + at, broken, [&] {
      run_canary(small_workload("multibags"), lvl, corpus);
    });
    expect_outcome("live multibags+ canary" + at, broken, [&] {
      run_canary(small_workload("multibags+"), lvl, corpus);
    });
    expect_outcome("online canary" + at, broken, [&] {
      run_canary(small_workload("multibags", true), lvl, corpus);
    });
    expect_outcome("replay canary" + at, broken, [&] {
      workload w = small_workload("multibags+");
      program p;
      p.replay = true;
      w.programs.push_back(p);
      run_canary(w, lvl, corpus);
    });
  }

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
