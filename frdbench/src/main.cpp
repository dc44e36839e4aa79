// frdbench: the detection benchmark program.
//
//   frdbench --workload NAME --seed N --seconds S --trace 0|1
//            [--corpus DIR] [--out DIR] [--commit ID] [--backend NAME]
//
// Untraced (--trace 0): set-up (inputs, trace loading, canaries, one warmup
// baseline pass), then whole rounds of one baseline pass and one
// full-detection pass over the workload's programs until S seconds have
// passed; prints setup_s, detect_s, baseline_s and peak_rss_mb. Traced
// (--trace 1): whole rounds of the per-layer measurements instead, with one
// span per call into a layer, written to OUT/spans-NAME-N.jsonl at the end.
// The last line of stdout is the JSON result; a failed check prints
// correct=false and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

using namespace frdbench;
using frd::detect::level;

namespace {

struct args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string corpus = "corpus";
  std::string out = ".bench_out";
  std::string commit = "unknown";
  std::string backend;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "frdbench: %s\nusage: frdbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--corpus DIR] [--out DIR] "
               "[--commit ID] [--backend NAME]\nworkloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--corpus") {
      a.corpus = v;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--backend") {
      a.backend = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and a positive --seconds are required");
  }
  return a;
}

// Units of every metric frdbench prints.
const std::map<std::string, std::string>& units() {
  static const std::map<std::string, std::string> u = {
      {"setup_s", "s"},
      {"detect_s", "s"},
      {"baseline_s", "s"},
      {"peak_rss_mb", "MB"},
      {"runtime.gets", "count"},
      {"runtime.dag_events", "count"},
      {"detect.reach_s", "s"},
      {"detect.reach_x", "x"},
      {"hooks.instr_s", "s"},
      {"hooks.accesses", "count"},
      {"detector.access_s", "s"},
      {"detector.ns_per_access", "ns"},
      {"detector.full_x", "x"},
      {"detector.races", "count"},
      {"detector.racy_granules", "count"},
      {"query.lookups", "count"},
      {"query.cache_hits", "count"},
      {"query.hit_ratio", "ratio"},
      {"query.batches", "count"},
      {"query.strands", "count"},
      {"dsu.finds", "count"},
      {"dsu.hops_per_find", "ratio"},
      {"rgraph.nodes", "count"},
      {"rgraph.row_merges", "count"},
      {"rgraph.closure_mb", "MB"},
      {"shadow.peak_mb", "MB"},
      {"shadow.pages", "count"},
      {"shadow.step_ns", "ns"},
      {"trace.decode_s", "s"},
      {"trace.dag_s", "s"},
      {"trace.access_s", "s"},
      {"trace.batch_len", "count"},
      {"container.chunks", "count"},
      {"online.pump_s", "s"},
      {"online.detect_s", "s"},
      {"online.serial_s", "s"},
      {"tracing.overhead_s", "s"},
  };
  return u;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep,
                name.c_str(), value, units().at(name).c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = clock::now();
  const args a = parse(argc, argv);

  for (const std::string& line : host_header()) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("# commit: %s\n# workload: %s\n# seed: %llu\n# seconds: %g\n"
              "# trace: %d\n",
              a.commit.c_str(), a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  std::fflush(stdout);

  std::uint64_t attempted = 0;
  try {
    workload w = make_workload(a.workload, a.seed, a.corpus, a.trace);
    if (!a.backend.empty()) w.backend = a.backend;
    run_canary(w, level::full, a.corpus);
    if (w.online_probe) run_canary(*w.online_probe, level::full, a.corpus);
    for (program& p : w.programs) run_baseline(w, p);  // warmup
    const double setup_s = since(t_start);
    std::printf("# backend: %s  programs: %zu  setup: %.3f s\n",
                w.backend.c_str(), w.programs.size(), setup_s);

    std::map<std::string, double> result;
    const auto t_measure = clock::now();
    if (!a.trace) {
      std::vector<double> base_passes, detect_passes;
      std::vector<std::vector<double>> per_base(w.programs.size()),
          per_detect(w.programs.size());
      do {
        double detect = 0;
        for (int rep = 0; rep < w.baseline_reps; ++rep) {
          double base = 0;
          for (std::size_t i = 0; i < w.programs.size(); ++i) {
            per_base[i].push_back(run_baseline(w, w.programs[i]));
            base += per_base[i].back();
          }
          base_passes.push_back(base);
        }
        for (std::size_t i = 0; i < w.programs.size(); ++i) {
          per_detect[i].push_back(
              run_in_session(w, w.programs[i], level::full));
          detect += per_detect[i].back();
        }
        attempted += (1 + w.baseline_reps) * w.programs.size();
        detect_passes.push_back(detect);
        std::printf("# round %zu: baseline %.4f s, detect %.4f s\n",
                    detect_passes.size(), base_passes.back(), detect);
      } while (since(t_measure) < a.seconds);
      result["peak_rss_mb"] = peak_rss_mb();
      check_references(w);
      if (w.online) check_online_against_serial(w);
      for (std::size_t i = 0; i < w.programs.size(); ++i) {
        const program& p = w.programs[i];
        const double b = median(per_base[i]), d = median(per_detect[i]);
        std::printf("# %-28s baseline %.4f s  detect %.4f s  (%.1fx)  "
                    "gets %llu  racy granules %zu\n",
                    p.name.c_str(), b, d, d / b,
                    static_cast<unsigned long long>(p.expected_gets),
                    p.last_racy.size());
      }
      result["setup_s"] = setup_s;
      result["detect_s"] = median(detect_passes);
      result["baseline_s"] = median(base_passes);
    } else {
      tracer tr(true);
      std::map<std::string, std::vector<double>> rounds;
      do {
        const layer_round r = measure_layers(w, tr);
        attempted += r.runs;
        for (const auto& [name, v] : r.metrics) rounds[name].push_back(v);
      } while (since(t_measure) < a.seconds);
      check_references(w);
      for (const auto& [name, vs] : rounds) result[name] = median(vs);
      std::filesystem::create_directories(a.out);
      const std::string path = a.out + "/spans-" + a.workload + "-" +
                               std::to_string(a.seed) + ".jsonl";
      tr.write(path);
      std::printf("# %zu spans written to %s\n", tr.size(), path.c_str());
      for (const auto& [name, s] : tr.self_by_name()) {
        std::printf("#   self %-44s %.6f s\n", name.c_str(), s);
      }
    }
    for (const auto& [name, v] : result) {
      std::printf("# %-24s %.6g %s\n", name.c_str(), v,
                  units().at(name).c_str());
    }
    print_result(true, attempted, 0, result);
    return 0;
  } catch (const check_failure& e) {
    std::fprintf(stderr, "frdbench: CHECK FAILED: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "frdbench: error: %s\n", e.what());
  }
  print_result(false, attempted + 1, 1, {});
  return 1;
}
