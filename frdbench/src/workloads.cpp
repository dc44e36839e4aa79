#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <span>
#include <thread>

#include "bench_suite/bst.hpp"
#include "bench_suite/dedup.hpp"
#include "bench_suite/heartwall.hpp"
#include "bench_suite/lcs.hpp"
#include "bench_suite/mm.hpp"
#include "bench_suite/sw.hpp"
#include "container/source.hpp"
#include "corpus/golden.hpp"
#include "corpus/manifest.hpp"
#include "corpus/programs.hpp"
#include "detect/hooks.hpp"
#include "detect/multibags.hpp"
#include "detect/multibags_plus.hpp"
#include "detect/registry.hpp"
#include "graph/fuzz.hpp"
#include "graph/oracle.hpp"
#include "graph/reference_detector.hpp"
#include "runtime/parallel.hpp"
#include "runtime/serial.hpp"
#include "shadow/store.hpp"
#include "support/prng.hpp"
#include "trace/codec.hpp"
#include "trace/player.hpp"

namespace frdbench {

using frd::detect::level;
using frd::detect::hooks::active;
using frd::detect::hooks::none;
namespace rt = frd::rt;
namespace bench = frd::bench;

// ------------------------------------------------------------ observers ----

// Tracks the executing strand from the dag events: every real strand is
// announced by on_strand_begin (the first by on_program_begin) before it
// runs, in the serial execution order of both live runs and replays.
class strand_tracker : public rt::execution_listener {
 public:
  void on_program_begin(rt::func_id, rt::strand_id s) override { cur_ = s; }
  void on_strand_begin(rt::strand_id s, rt::func_id) override { cur_ = s; }
  void on_get(rt::func_id, rt::strand_id, rt::strand_id, rt::func_id,
              rt::strand_id, rt::strand_id) override {
    ++gets_;
  }
  rt::strand_id current() const { return cur_; }
  std::uint64_t gets() const { return gets_; }

 private:
  rt::strand_id cur_ = rt::kNoStrand;
  std::uint64_t gets_ = 0;
};

// Records the first `limit` granule accesses of a run with their strands —
// the stream the standalone shadow-store pass replays.
class access_capture final : public strand_tracker,
                             public frd::detect::hooks::access_sink {
 public:
  struct rec {
    std::uintptr_t addr;
    rt::strand_id strand;
    bool write;
  };
  explicit access_capture(std::size_t limit) : limit_(limit) {
    recs_.reserve(limit);
  }
  void on_read(const void* p, std::size_t bytes) override {
    add(reinterpret_cast<std::uintptr_t>(p), bytes, false);
  }
  void on_write(const void* p, std::size_t bytes) override {
    add(reinterpret_cast<std::uintptr_t>(p), bytes, true);
  }
  void on_accesses(std::span<const frd::detect::hooks::access> batch,
                   std::size_t bytes) override {
    for (const auto& a : batch) add(a.addr, bytes, a.is_write);
  }
  const std::vector<rec>& recs() const { return recs_; }

 private:
  static constexpr std::uintptr_t kGranule = 4;
  void add(std::uintptr_t addr, std::size_t bytes, bool write) {
    const std::uintptr_t last = (addr + (bytes ? bytes : 1) - 1) & ~(kGranule - 1);
    for (std::uintptr_t g = addr & ~(kGranule - 1); g <= last; g += kGranule) {
      if (recs_.size() == limit_) return;
      recs_.push_back(rec{g, current(), write});
    }
  }
  std::size_t limit_;
  std::vector<rec> recs_;
};

// graph::reference_detector behind the oracle: shares no code with the
// detector, the shadow stores or the backends.
class reference_run final : public rt::execution_listener,
                            public frd::detect::hooks::access_sink {
 public:
  void on_program_begin(rt::func_id f, rt::strand_id s) override {
    cur_ = s;
    oracle_.on_program_begin(f, s);
  }
  void on_program_end(rt::strand_id s) override { oracle_.on_program_end(s); }
  void on_strand_begin(rt::strand_id s, rt::func_id f) override {
    cur_ = s;
    oracle_.on_strand_begin(s, f);
  }
  void on_spawn(rt::func_id p, rt::strand_id u, rt::func_id c, rt::strand_id w,
                rt::strand_id v) override {
    oracle_.on_spawn(p, u, c, w, v);
  }
  void on_create(rt::func_id p, rt::strand_id u, rt::func_id c,
                 rt::strand_id w, rt::strand_id v) override {
    oracle_.on_create(p, u, c, w, v);
  }
  void on_return(rt::func_id c, rt::strand_id last, rt::func_id p) override {
    oracle_.on_return(c, last, p);
  }
  void on_sync(const sync_event& e) override { oracle_.on_sync(e); }
  void on_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
              rt::func_id fut, rt::strand_id w, rt::strand_id cr) override {
    oracle_.on_get(fn, u, v, fut, w, cr);
  }
  void on_read(const void* p, std::size_t bytes) override {
    ref_.on_access(reinterpret_cast<std::uintptr_t>(p), bytes, false, cur_);
  }
  void on_write(const void* p, std::size_t bytes) override {
    ref_.on_access(reinterpret_cast<std::uintptr_t>(p), bytes, true, cur_);
  }
  void on_accesses(std::span<const frd::detect::hooks::access> batch,
                   std::size_t bytes) override {
    for (const auto& a : batch) ref_.on_access(a.addr, bytes, a.is_write, cur_);
  }
  std::set<std::uintptr_t> racy() const { return ref_.racy_granules(); }

 private:
  frd::graph::online_oracle oracle_;
  frd::graph::reference_detector ref_{oracle_};
  rt::strand_id cur_ = rt::kNoStrand;
};

// Counts what the runtime emits (runtime.gets, runtime.dag_events).
class event_counter final : public rt::execution_listener {
 public:
  void on_program_begin(rt::func_id, rt::strand_id) override { ++events; }
  void on_program_end(rt::strand_id) override { ++events; }
  void on_strand_begin(rt::strand_id, rt::func_id) override { ++events; }
  void on_spawn(rt::func_id, rt::strand_id, rt::func_id, rt::strand_id,
                rt::strand_id) override {
    ++events;
  }
  void on_create(rt::func_id, rt::strand_id, rt::func_id, rt::strand_id,
                 rt::strand_id) override {
    ++events;
  }
  void on_return(rt::func_id, rt::strand_id, rt::func_id) override {
    ++events;
  }
  void on_sync(const sync_event&) override { ++events; }
  void on_get(rt::func_id, rt::strand_id, rt::strand_id, rt::func_id,
              rt::strand_id, rt::strand_id) override {
    ++events;
    ++gets;
  }
  std::uint64_t events = 0, gets = 0;
};

// Times every dag event a replay delivers, one span per call.
class timed_listener final : public rt::execution_listener {
 public:
  timed_listener(rt::execution_listener& next, tracer& tr)
      : next_(next), tr_(tr) {}
  void on_program_begin(rt::func_id f, rt::strand_id s) override {
    timed([&] { next_.on_program_begin(f, s); });
  }
  void on_program_end(rt::strand_id s) override {
    timed([&] { next_.on_program_end(s); });
  }
  void on_strand_begin(rt::strand_id s, rt::func_id f) override {
    timed([&] { next_.on_strand_begin(s, f); });
  }
  void on_spawn(rt::func_id p, rt::strand_id u, rt::func_id c, rt::strand_id w,
                rt::strand_id v) override {
    timed([&] { next_.on_spawn(p, u, c, w, v); });
  }
  void on_create(rt::func_id p, rt::strand_id u, rt::func_id c,
                 rt::strand_id w, rt::strand_id v) override {
    timed([&] { next_.on_create(p, u, c, w, v); });
  }
  void on_return(rt::func_id c, rt::strand_id last, rt::func_id p) override {
    timed([&] { next_.on_return(c, last, p); });
  }
  void on_sync(const sync_event& e) override {
    timed([&] { next_.on_sync(e); });
  }
  void on_get(rt::func_id fn, rt::strand_id u, rt::strand_id v,
              rt::func_id fut, rt::strand_id w, rt::strand_id cr) override {
    timed([&] { next_.on_get(fn, u, v, fut, w, cr); });
  }
  double seconds = 0;

 private:
  template <typename F>
  void timed(F&& f) {
    tracer::scope span(tr_, "trace.dag");
    const auto t0 = clock::now();
    f();
    seconds += since(t0);
  }
  rt::execution_listener& next_;
  tracer& tr_;
};

// Times every batched access run a replay delivers, one span per call.
class timed_sink final : public frd::detect::hooks::access_sink {
 public:
  timed_sink(frd::detect::hooks::access_sink& next, tracer& tr)
      : next_(next), tr_(tr) {}
  void on_read(const void* p, std::size_t bytes) override {
    next_.on_read(p, bytes);
  }
  void on_write(const void* p, std::size_t bytes) override {
    next_.on_write(p, bytes);
  }
  void on_accesses(std::span<const frd::detect::hooks::access> batch,
                   std::size_t bytes) override {
    tracer::scope span(tr_, "trace.access");
    const auto t0 = clock::now();
    next_.on_accesses(batch, bytes);
    seconds += since(t0);
    ++batches;
    elements += batch.size();
  }
  double seconds = 0;
  std::uint64_t batches = 0, elements = 0;

 private:
  frd::detect::hooks::access_sink& next_;
  tracer& tr_;
};

// A trace file opened by format (flat binary, JSONL or .frdtz container).
class file_source final : public frd::trace::trace_source {
 public:
  explicit file_source(const std::string& path)
      : in_(path, std::ios::binary) {
    if (!in_) throw check_failure("cannot open trace " + path);
    inner_ = frd::trace::open_source(in_);
  }
  const frd::trace::trace_header& header() const override {
    return inner_->header();
  }
  bool next(frd::trace::trace_event& e) override {
    if (!inner_->next(e)) return false;
    ++events;
    if (e.kind == frd::trace::event_kind::read ||
        e.kind == frd::trace::event_kind::write) {
      ++accesses;
    }
    return true;
  }
  std::size_t chunks() const {
    const auto* c =
        dynamic_cast<const frd::container::container_source*>(inner_.get());
    return c != nullptr ? c->info().chunks.size() : 0;
  }
  std::uint64_t events = 0, accesses = 0;

 private:
  std::ifstream in_;
  std::unique_ptr<frd::trace::trace_source> inner_;
};

// ------------------------------------------------------------- programs ----

namespace {

// Wires a runtime-generic kernel `k(rt, instrumented)` into every path the
// benchmark drives: serial baseline, bare parallel, session run (serial or
// online), capture and reference runs.
template <typename Kernel>
program live_program(std::string name, Kernel k) {
  program p;
  p.name = std::move(name);
  p.baseline = [k] {
    rt::serial_runtime rt;
    k(rt, false);
  };
  p.bare_parallel = [k](unsigned workers) {
    rt::parallel_runtime rt(workers);
    k(rt, false);
  };
  p.detect = [k](frd::session& s, bool instrumented) {
    s.run([&](auto& rt) { k(rt, instrumented); });
  };
  p.capture = [k](access_capture& cap) {
    rt::serial_runtime rt(&cap);
    frd::detect::hooks::scoped_sink sink(&cap);
    k(rt, true);
  };
  p.reference = [k] {
    reference_run ref;
    rt::serial_runtime rt(&ref);
    frd::detect::hooks::scoped_sink sink(&ref);
    k(rt, true);
    return ref.racy();
  };
  return p;
}

std::uint64_t square(std::uint64_t x) { return x * x; }

program make_sw_program(std::size_t n, std::size_t base, std::uint64_t seed) {
  auto in = std::make_shared<bench::sw_input>(bench::make_sw_input(n, seed));
  const std::int32_t want = bench::sw_reference(*in);
  program p = live_program("sw", [in, want, base](auto& rt, bool instr) {
    const std::int32_t got =
        instr ? bench::sw_structured<active>(rt, *in, base)
              : bench::sw_structured<none>(rt, *in, base);
    expect_eq("sw answer", got, want);
  });
  p.paper_kernel = true;
  p.expected_gets = square(bench::tile_grid(n, base).tiles);
  return p;
}

program make_mm_program(std::size_t n, std::size_t base, std::uint64_t seed) {
  auto in = std::make_shared<bench::mm_input>(bench::make_mm_input(n, seed));
  auto want = std::make_shared<std::vector<float>>(bench::mm_reference(*in));
  program p = live_program("mm", [in, want, base](auto& rt, bool instr) {
    const std::vector<float> got =
        instr ? bench::mm_structured<active>(rt, *in, base)
              : bench::mm_structured<none>(rt, *in, base);
    expect_eq("mm product equals mm_reference", got == *want, true);
  });
  p.paper_kernel = true;
  const std::uint64_t t = n / base;
  p.expected_gets = t * t * t;
  return p;
}

void expect_points(const std::string& what,
                   const std::vector<frd::image::point>& got,
                   const std::vector<frd::image::point>& want) {
  expect_eq(what + " point count", got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_eq(what + " x", got[i].x, want[i].x);
    expect_eq(what + " y", got[i].y, want[i].y);
  }
}

program make_heartwall_program(int size, int points, int frames,
                               std::uint64_t seed, bool general) {
  auto in = std::make_shared<bench::heartwall_input>(
      bench::make_heartwall_input(size, size, points, frames, seed));
  std::vector<frd::image::point> want;
  {
    rt::serial_runtime plain;
    want = general ? bench::heartwall_general<none>(plain, *in)
                   : bench::heartwall_reference(*in);
  }
  auto w = std::make_shared<std::vector<frd::image::point>>(std::move(want));
  program p = live_program(
      general ? "heartwall-general" : "heartwall",
      [in, w, general](auto& rt, bool instr) {
        using RT = std::decay_t<decltype(rt)>;
        std::vector<frd::image::point> got;
        if (general) {
          got = instr ? bench::heartwall_general<active, RT>(rt, *in)
                      : bench::heartwall_general<none, RT>(rt, *in);
        } else {
          got = instr ? bench::heartwall_structured<active, RT>(rt, *in)
                      : bench::heartwall_structured<none, RT>(rt, *in);
        }
        expect_points("heartwall", got, *w);
      });
  p.paper_kernel = true;
  const std::uint64_t np = static_cast<std::uint64_t>(points);
  const std::uint64_t nf = static_cast<std::uint64_t>(frames);
  // Structured: one get per (frame >= 1, point) plus the final joins.
  // General: three per tracker (both neighbours and itself).
  p.expected_gets = general ? np * (3 * (nf - 1) + 1) : np * nf;
  return p;
}

program make_dedup_program(std::size_t bytes, std::size_t fragment,
                           std::uint64_t seed) {
  auto in = std::make_shared<bench::dedup_input>(
      bench::make_dedup_corpus(bytes, 60, seed));
  const bench::dedup_result want = bench::dedup_reference(*in, fragment);
  program p = live_program("dedup", [in, want, fragment](auto& rt, bool instr) {
    const bench::dedup_result got =
        instr ? bench::dedup_pipeline<active, none>(rt, *in, fragment)
              : bench::dedup_pipeline<none, none>(rt, *in, fragment);
    expect_eq("dedup result equals dedup_reference", got == want, true);
  });
  // Stage A and stage B each join every fragment once; the last stage-B
  // future is joined by main.
  p.expected_gets = 2 * ((bytes + fragment - 1) / fragment);
  return p;
}

// The merge is destructive: prepare() rebuilds both trees before each run.
program make_bst_program(std::size_t n1, std::size_t n2, int cutoff,
                         std::uint64_t seed, bool general) {
  auto in = std::make_shared<bench::bst_input>();
  auto k = [in, n1, n2, cutoff, general](auto& rt, bool instr) {
    using RT = std::decay_t<decltype(rt)>;
    bench::bst_node* m;
    if (general) {
      m = instr ? bench::bst_general<active, RT>(rt, *in, cutoff)
                : bench::bst_general<none, RT>(rt, *in, cutoff);
    } else {
      m = instr ? bench::bst_structured<active, RT>(rt, *in, cutoff)
                : bench::bst_structured<none, RT>(rt, *in, cutoff);
    }
    expect_eq("bst node count", bench::bst_count(m), n1 + n2);
    expect_eq("bst merge is a search tree", bench::bst_is_search_tree(m), true);
  };
  program p = live_program(general ? "bst-general" : "bst", k);
  p.prepare = [in, n1, n2, seed] { *in = bench::make_bst_input(n1, n2, seed); };
  p.paper_kernel = true;
  // The future count depends on the key layout: count it once with the
  // runtime's own events.
  access_capture cap(0);
  p.prepare();
  p.capture(cap);
  p.expected_gets = cap.gets();
  return p;
}

// General-futures fuzz program. Its dag is one fixed plan: the generator's
// program size is a branching process whose futures, gets and MultiBags+
// closure swing widely between plan seeds, which would make every metric
// of the workload follow the seed. The plan is the first one, drawn from a
// fixed stream, that saturates its future budget and every future's touch
// budget. The run's seed permutes which memory cell each planned access
// touches, so the racy granules move with the seed.
program make_fuzz_program(std::uint64_t seed) {
  frd::graph::fuzz_config cfg;
  cfg.structured = false;
  cfg.max_depth = 12;
  cfg.max_actions_per_body = 20;
  // Far more cells than the body touches, so only part of them race.
  cfg.n_cells = 1u << 16;
  cfg.max_futures = 4000;
  cfg.max_touches_per_future = 6;
  cfg.w_get = 5;
  const std::uint64_t full_gets =
      cfg.max_futures * static_cast<std::uint64_t>(cfg.max_touches_per_future);
  frd::prng plans(2019);
  std::shared_ptr<frd::graph::fuzz_plan> plan;
  do {
    cfg.seed = plans.next();
    plan = std::make_shared<frd::graph::fuzz_plan>(frd::graph::plan_fuzz(cfg));
  } while (plan->n_futures < cfg.max_futures ||
           plan->expected_gets < full_gets * 99 / 100);
  auto cells = std::make_shared<std::vector<int>>(cfg.n_cells);
  auto perm = std::make_shared<std::vector<std::uint32_t>>(cfg.n_cells);
  std::iota(perm->begin(), perm->end(), 0u);
  frd::prng rng(seed);
  for (std::size_t i = perm->size(); i > 1; --i) {
    std::swap((*perm)[i - 1], (*perm)[rng.next() % i]);
  }
  program p = live_program("fuzz-general", [plan, cells, perm](auto& rt,
                                                               bool instr) {
    const frd::graph::fuzz_result r = frd::graph::run_fuzz_plan(
        rt, *plan, [&](std::uint32_t cell, bool write) {
          if (!instr) return;
          int* c = &(*cells)[(*perm)[cell]];
          if (write) {
            active::write(c, sizeof(int));
          } else {
            active::read(c, sizeof(int));
          }
        });
    expect_eq("fuzz gets", r.gets, plan->expected_gets);
    expect_eq("fuzz checksum", r.checksum, plan->expected_checksum);
  });
  p.expected_gets = plan->expected_gets;
  p.race_free = false;
  return p;
}

}  // namespace

program make_lcs_program(std::size_t n, std::size_t base, std::uint64_t seed,
                         int answer_skew) {
  auto in = std::make_shared<bench::lcs_input>(bench::make_lcs_input(n, seed));
  const int want = bench::lcs_reference(*in) + answer_skew;
  program p = live_program("lcs", [in, want, base](auto& rt, bool instr) {
    const int got = instr ? bench::lcs_structured<active>(rt, *in, base)
                          : bench::lcs_structured<none>(rt, *in, base);
    expect_eq("lcs answer", got, want);
  });
  p.paper_kernel = true;
  p.expected_gets = square(bench::tile_grid(n, base).tiles);
  return p;
}

program make_replay_program(const std::string& name, const std::string& path,
                            const std::string& golden_path) {
  const frd::corpus::golden_report g = frd::corpus::load_golden(golden_path);
  program p;
  p.name = name;
  p.replay = true;
  p.trace_path = path;
  p.race_free = g.racy_granules.empty();
  p.expected_gets = g.gets;
  p.golden_racy.insert(g.racy_granules.begin(), g.racy_granules.end());
  {
    file_source src(path);
    expect_eq(name + " granule", src.header().granule, 4u);
  }
  auto tally = std::make_shared<std::uint64_t>(0);
  p.baseline = [path, tally] {
    file_source src(path);
    frd::trace::trace_event e;
    while (src.next(e)) {
    }
    *tally = src.accesses;
  };
  p.detect = [path](frd::session& s, bool) {
    file_source src(path);
    s.replay(src);
  };
  p.capture = [path](access_capture& cap) {
    file_source src(path);
    frd::trace::trace_player(src).play(&cap, &cap);
  };
  p.reference = [path] {
    file_source src(path);
    reference_run ref;
    frd::trace::trace_player(src).play(&ref, &ref);
    return ref.racy();
  };
  // The benchmark's own decode pass fixes the access count the detector
  // must see; it must also agree with the golden.
  p.baseline();
  expect_eq(name + " decoded accesses vs golden", *tally, g.accesses);
  p.expected_accesses = *tally;
  return p;
}

// ------------------------------------------------------------ workloads ----

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "kernels-structured", "futures-general", "replay-xl", "online-parallel"};
  return names;
}

workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& corpus_dir, bool traced) {
  workload w;
  w.name = name;
  // Each program draws its inputs from its own stream of the run's seed.
  auto sub = [seed](std::uint64_t i) { return seed * 1000003u + i; };
  if (name == "kernels-structured") {
    w.backend = "multibags";
    w.programs.push_back(make_lcs_program(2048, 45, sub(1)));
    w.programs.push_back(make_sw_program(256, 16, sub(2)));
    w.programs.push_back(make_mm_program(192, 16, sub(3)));
    w.programs.push_back(make_heartwall_program(192, 32, 10, sub(4), false));
    w.programs.push_back(make_dedup_program(6u << 20, 1u << 16, sub(5)));
    w.programs.push_back(make_bst_program(200000, 100000, 11, sub(6), false));
    // The online layer is too unsteady for an end-to-end workload of its
    // own (README), so its per-layer costs ride on this workload's traced
    // run, over two of the same kernels at the online-parallel sizes.
    if (traced) {
      w.online_probe = std::make_shared<workload>(
          make_workload("online-parallel", seed, corpus_dir));
    }
  } else if (name == "futures-general") {
    w.backend = "multibags+";
    w.programs.push_back(make_bst_program(200000, 100000, 11, sub(1), true));
    w.programs.push_back(make_heartwall_program(192, 32, 10, sub(2), true));
    w.programs.push_back(make_fuzz_program(sub(3)));
  } else if (name == "replay-xl") {
    w.backend = "multibags+";
    std::vector<std::string> entries = {"mm-structured-xl",
                                        "tracking-structured-xl",
                                        "wavefront-structured-large"};
    // The seed fixes the replay order.
    frd::prng rng(sub(1));
    for (std::size_t i = entries.size(); i > 1; --i) {
      std::swap(entries[i - 1], entries[rng.next() % i]);
    }
    for (const std::string& e : entries) {
      w.programs.push_back(make_replay_program(
          e, corpus_dir + "/" + e + ".frdtz", corpus_dir + "/" + e + ".golden"));
    }
  } else if (name == "online-parallel") {
    w.backend = "multibags";
    w.online = true;
    // Runtime workers plus the pump thread leave one of the host's cores
    // free: with every core busy, yield spins made run times swing.
    const unsigned hw = std::max(3u, std::thread::hardware_concurrency());
    w.workers = std::min(2u, hw - 2);
    w.baseline_reps = 10;
    w.programs.push_back(make_lcs_program(1024, 32, sub(1)));
    w.programs.push_back(make_mm_program(192, 16, sub(2)));
  } else {
    throw check_failure("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------- runners ----

frd::session::options options_for(const workload& w, level lvl) {
  frd::session::options o;
  o.backend = w.backend;
  o.level = lvl;
  if (w.online) {
    o.runtime = frd::runtime_kind::parallel;
    o.runtime_workers = w.workers;
  }
  return o;
}

namespace {

bool at_least(level a, level b) {
  return static_cast<int>(a) >= static_cast<int>(b);
}

void check_full_run(const workload& w, program& p, const frd::session& s) {
  expect_eq(p.name + " gets", s.get_count(), p.expected_gets);
  if (w.backend == "multibags") {
    expect_eq(p.name + " structured violations", s.structured_violations(),
              0u);
  }
  if (p.race_free) expect_eq(p.name + " races", s.report().total(), 0u);
  if (p.replay) {
    expect_eq(p.name + " detector accesses vs decode pass", s.access_count(),
              p.expected_accesses);
    expect_same_granules(p.name + " vs golden", s.report().racy_granules(),
                         p.golden_racy);
  }
  p.last_racy = s.report().racy_granules();
}

void add_counters(layer_counters& c, const frd::session& s) {
  c.accesses += s.access_count();
  c.races += s.report().total();
  c.racy_granules += s.report().racy_granules().size();
  const frd::detect::query_plane_stats& q = s.query_stats();
  c.lookups += q.lookups;
  c.cache_hits += q.cache_hits;
  c.batches += q.batches;
  c.strands += q.strands;
  const frd::dsu::forest_stats* dsu = nullptr;
  if (const auto* mb =
          dynamic_cast<const frd::detect::multibags*>(&s.backend())) {
    dsu = &mb->dsu_stats();
  } else if (const auto* mp = dynamic_cast<const frd::detect::multibags_plus*>(
                 &s.backend())) {
    dsu = &mp->dsp_stats();
    c.rgraph_nodes += mp->r().stats().nodes;
    c.rgraph_row_merges += mp->r().stats().row_merges;
    c.rgraph_closure_mb = std::max(
        c.rgraph_closure_mb, double(mp->r().closure_bytes()) / (1 << 20));
  }
  if (dsu != nullptr) {
    c.dsu_finds += dsu->finds;
    c.dsu_hops += dsu->parent_hops;
  }
  const frd::detect::memory_stats m = s.memory_stats();
  c.shadow_peak_mb =
      std::max(c.shadow_peak_mb, double(m.peak_store_bytes) / (1 << 20));
  c.shadow_pages = std::max<std::uint64_t>(c.shadow_pages, m.store_pages);
}

// Feeds a captured access stream straight into a fresh default store.
double feed_store(const std::vector<access_capture::rec>& recs,
                  std::uint64_t& sink) {
  auto store = frd::shadow::store_registry::instance().create(
      frd::shadow::kDefaultStore, frd::shadow::store_config{});
  std::uint64_t conflicts = 0;
  auto on_prior = [&](rt::strand_id, bool) { ++conflicts; };
  const auto t0 = clock::now();
  for (const access_capture::rec& r : recs) {
    if (r.write) {
      store->write_step(r.addr, r.strand, on_prior);
    } else {
      conflicts += store->read_step(r.addr, r.strand) != rt::kNoStrand;
    }
  }
  const double dt = since(t0);
  sink += conflicts;
  return dt;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double acc = 0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / double(xs.size()));
}

}  // namespace

double run_in_session(const workload& w, program& p, level lvl,
                      layer_counters* counters,
                      rt::execution_listener* extra) {
  if (p.prepare) p.prepare();
  frd::session s(options_for(w, lvl));
  if (extra != nullptr) s.add_listener(extra);
  if (!w.online && !p.replay) s.runtime();  // built outside the timed region
  const auto t0 = clock::now();
  p.detect(s, at_least(lvl, level::instrumentation));
  const double dt = since(t0);
  if (lvl == level::full) check_full_run(w, p, s);
  if (counters != nullptr) add_counters(*counters, s);
  return dt;
}

double run_baseline(const workload& w, program& p) {
  if (p.prepare) p.prepare();
  if (w.online) {
    const auto t0 = clock::now();
    p.bare_parallel(w.workers);
    return since(t0);
  }
  const auto t0 = clock::now();
  p.baseline();
  return since(t0);
}

void run_canary(const workload& w, level lvl, const std::string& corpus_dir) {
  const bool general = frd::detect::backend_registry::instance()
                           .at(w.backend)
                           .futures == frd::detect::future_support::general;
  const bool replay = !w.programs.empty() && w.programs.front().replay;
  // sync-heavy: sibling subtrees below the root race on cells[0..depth-2]
  // (4 consecutive granules at depth 5); wide-fanin: 40 sibling futures
  // race on exactly one granule.
  struct canary {
    const char* name;
    std::size_t racy;
  };
  std::vector<canary> canaries = {{"sync-heavy", 4}};
  if (general) canaries.push_back({"wide-fanin", 1});
  for (const canary& c : canaries) {
    frd::session s(options_for(w, lvl));
    if (replay) {
      file_source src(corpus_dir + "/" + c.name + ".frdt");
      s.replay(src);
    } else {
      const frd::corpus::corpus_program* prog = frd::corpus::find_program(c.name);
      if (prog == nullptr) throw check_failure(std::string("no corpus program ") + c.name);
      prog->run(s, 1);
    }
    const std::set<std::uintptr_t>& racy = s.report().racy_granules();
    const std::string what = std::string("canary ") + c.name + " on " +
                             w.backend + " at level " +
                             std::string(frd::detect::to_string(lvl));
    expect_eq(what + ": racy granules", racy.size(), c.racy);
    expect_eq(what + ": racy granules are consecutive",
              *racy.rbegin() - *racy.begin(), 4 * (c.racy - 1));
  }
}

void check_references(workload& w) {
  for (program& p : w.programs) {
    if (p.race_free && !p.replay) continue;
    if (p.prepare) p.prepare();
    expect_same_granules(p.name + " vs graph::reference_detector",
                         p.last_racy, p.reference());
  }
}

double check_online_against_serial(workload& w) {
  workload serial = w;
  serial.online = false;
  serial.workers = 0;
  double total = 0;
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    program& sp = serial.programs[i];
    total += run_in_session(serial, sp, level::full);
    expect_same_granules(w.programs[i].name + " online vs serial detection",
                         w.programs[i].last_racy, sp.last_racy);
  }
  return total;
}

layer_round measure_layers(workload& w, tracer& tr) {
  layer_round out;
  double base = 0, reach = 0, instr = 0, full = 0, traced = 0;
  std::vector<double> paper_full_x;
  layer_counters c;
  event_counter events;
  std::uint64_t want_gets = 0;
  for (program& p : w.programs) {
    auto timed = [&](const std::string& span, auto&& f) {
      tracer::scope sc(tr, span + "/" + p.name);
      ++out.runs;
      return f();
    };
    const double b = timed("baseline", [&] { return run_baseline(w, p); });
    reach += timed("session/reachability",
                   [&] { return run_in_session(w, p, level::reachability); });
    instr += timed("session/instrumentation", [&] {
      return run_in_session(w, p, level::instrumentation);
    });
    const double f = timed("session/full", [&] {
      return run_in_session(w, p, level::full, &c);
    });
    traced += timed("session/full+listener", [&] {
      return run_in_session(w, p, level::full, nullptr, &events);
    });
    base += b;
    full += f;
    want_gets += p.expected_gets;
    if (p.paper_kernel) paper_full_x.push_back(f / b);
  }
  expect_eq("runtime.gets vs closed-form future counts", events.gets,
            want_gets);

  // Standalone shadow-store pass over each program's recorded accesses.
  constexpr std::size_t kCaptureLimit = 4u << 20;
  double step_s = 0;
  std::uint64_t steps = 0, sink = 0;
  for (program& p : w.programs) {
    access_capture cap(kCaptureLimit);
    {
      tracer::scope sc(tr, "capture/" + p.name);
      if (p.prepare) p.prepare();
      p.capture(cap);
    }
    tracer::scope sc(tr, "shadow.store/" + p.name);
    step_s += feed_store(cap.recs(), sink);
    steps += cap.recs().size();
  }

  // Replays through timing wrappers: decode (the replay span's self time),
  // dag maintenance and the batched access path.
  double decode_s = 0, dag_s = 0, access_s = 0;
  std::uint64_t batches = 0, elements = 0, chunks = 0;
  for (program& p : w.programs) {
    if (!p.replay) continue;
    frd::session s(options_for(w, level::full));
    file_source src(p.trace_path);
    frd::trace::trace_player player(src, s.opts().replay_batch);
    timed_listener dag(s.detector(), tr);
    timed_sink acc(s.detector(), tr);
    double total = 0;
    {
      tracer::scope sc(tr, "trace.replay/" + p.name);
      ++out.runs;
      const auto t0 = clock::now();
      player.play(&dag, &acc);
      total = since(t0);
    }
    check_full_run(w, p, s);
    decode_s += total - dag.seconds - acc.seconds;
    dag_s += dag.seconds;
    access_s += acc.seconds;
    batches += acc.batches;
    elements += acc.elements;
    chunks += src.chunks();
  }

  std::map<std::string, double>& m = out.metrics;
  m["runtime.gets"] = double(events.gets);
  m["runtime.dag_events"] = double(events.events);
  m["detect.reach_s"] = reach - base;
  m["detect.reach_x"] = reach / base;
  m["hooks.instr_s"] = instr - reach;
  m["hooks.accesses"] = double(c.accesses);
  m["detector.access_s"] = full - instr;
  m["detector.ns_per_access"] =
      c.accesses ? 1e9 * (full - instr) / double(c.accesses) : 0;
  m["detector.full_x"] =
      paper_full_x.empty() ? full / base : geomean(paper_full_x);
  m["detector.races"] = double(c.races);
  m["detector.racy_granules"] = double(c.racy_granules);
  m["query.lookups"] = double(c.lookups);
  m["query.cache_hits"] = double(c.cache_hits);
  m["query.hit_ratio"] = c.lookups ? double(c.cache_hits) / double(c.lookups) : 0;
  m["query.batches"] = double(c.batches);
  m["query.strands"] = double(c.strands);
  m["dsu.finds"] = double(c.dsu_finds);
  m["dsu.hops_per_find"] = c.dsu_finds ? double(c.dsu_hops) / double(c.dsu_finds) : 0;
  m["rgraph.nodes"] = double(c.rgraph_nodes);
  m["rgraph.row_merges"] = double(c.rgraph_row_merges);
  m["rgraph.closure_mb"] = c.rgraph_closure_mb;
  m["shadow.peak_mb"] = c.shadow_peak_mb;
  m["shadow.pages"] = double(c.shadow_pages);
  m["shadow.step_ns"] = steps ? 1e9 * step_s / double(steps) : 0;
  m["trace.decode_s"] = decode_s;
  m["trace.dag_s"] = dag_s;
  m["trace.access_s"] = access_s;
  m["trace.batch_len"] = batches ? double(elements) / double(batches) : 0;
  m["container.chunks"] = double(chunks);
  m["tracing.overhead_s"] = traced - full;

  // Online layer: bare work-stealing runtime, online instrumentation and
  // online full detection, against serial live detection.
  double pump_s = 0, online_detect_s = 0, serial_s = 0;
  workload* ow = w.online ? &w : w.online_probe.get();
  if (ow != nullptr) {
    double obare = 0, oinstr = 0, ofull = 0;
    for (program& p : ow->programs) {
      {
        tracer::scope sc(tr, "online/bare/" + p.name);
        obare += run_baseline(*ow, p);
      }
      {
        tracer::scope sc(tr, "online/instrumentation/" + p.name);
        oinstr += run_in_session(*ow, p, level::instrumentation);
      }
      tracer::scope sc(tr, "online/full/" + p.name);
      ofull += run_in_session(*ow, p, level::full);
      out.runs += 3;
    }
    tracer::scope sc(tr, "online/serial-full");
    serial_s = check_online_against_serial(*ow);
    out.runs += ow->programs.size();
    pump_s = oinstr - obare;
    online_detect_s = ofull - oinstr;
  }
  m["online.pump_s"] = pump_s;
  m["online.detect_s"] = online_detect_s;
  m["online.serial_s"] = serial_s;
  return out;
}

}  // namespace frdbench
