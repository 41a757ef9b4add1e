// End-to-end detection benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --smoke
//
// Drives one seeded workload (workloads.hpp) through the public
// scenario::ScenarioRun API for `--seconds` seconds: construct, run_to at
// every round boundary, finish. Every run passes the correctness gate
// (gate.hpp) and must match its same-seed twin on final digest and
// suspicions. `--trace 0` reports the end-to-end metrics from untraced
// runs; `--trace 1` is the separate traced pass, which records spans
// around each call into a module and runs differential variants of the
// spec (detection detached, SIMD capped to scalar, parallel shard workers).
// The last line of stdout is one JSON object; lines before it starting
// with "# " record the environment and every spec run, for replay.
// `--smoke` runs every workload at a seconds-scale size through the gate,
// its self-test and the traced pass, and exits non-zero on any failure.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "crypto/siphash.hpp"
#include "gate.hpp"
#include "routing/segments.hpp"
#include "routing/spf.hpp"
#include "routing/topologies.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "topo/generator.hpp"
#include "workloads.hpp"

namespace {

namespace sc = fatih::scenario;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

const char* simd_name(fatih::crypto::SimdLevel l) {
  switch (l) {
    case fatih::crypto::SimdLevel::kScalar: return "scalar";
    case fatih::crypto::SimdLevel::kSse2: return "sse2";
    case fatih::crypto::SimdLevel::kAvx2: return "avx2";
    case fatih::crypto::SimdLevel::kAvx512: return "avx512";
  }
  return "?";
}

// ------------------------------------------------------------------ spans

/// One timed call: name, start, end, the span that caused it (-1 for a
/// root) and the run it belongs to. Kept in memory, written at the end.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int run = 0;
};

class Tracer {
 public:
  /// Times `fn` as a span named `name` under `parent`.
  void record(const std::string& name, int parent, int run, const std::function<void()>& fn) {
    const int id = open(name, parent, run);
    fn();
    close(id);
  }
  int open(const std::string& name, int parent, int run) {
    spans_.push_back(Span{name, now(), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }

  /// Self time of every span named `name`: its duration minus the part
  /// its children cover.
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) out.push_back(spans_[i].end_s - spans_[i].start_s - child[i]);
    }
    return out;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                    "\"parent\":%d,\"run\":%d}%s\n",
                    i, s.name.c_str(), s.start_s, s.end_s, s.parent, s.run,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now() const { return since(t0_); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------- runs

/// Keeps the reference loop's result alive.
volatile std::uint64_t reference_sink = 0;

/// Seconds for a fixed, register-only integer loop (splitmix64 steps).
/// Its time moves only with the core clock, so dividing a run's time by
/// it cancels the clock changes a shared host makes from minute to minute.
double reference_loop_s() {
  const auto t0 = Clock::now();
  std::uint64_t s = 1, acc = 0;
  for (int i = 0; i < 8'000'000; ++i) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc += z ^ (z >> 31);
  }
  reference_sink = acc;
  return since(t0);
}

struct Outcome {
  double setup_s = 0.0;
  double run_s = 0.0;
  sc::ScenarioResult result;
};

/// Construct -> run_to at every round boundary -> finish. With a tracer,
/// each call is a span under one root span for run `run`.
Outcome run_once(const sc::ScenarioSpec& spec, unsigned threads, Tracer* tracer, int run) {
  Outcome o;
  const int root = tracer != nullptr ? tracer->open("scenario.run", -1, run) : -1;
  const auto t0 = Clock::now();
  const int setup = tracer != nullptr ? tracer->open("scenario.setup", root, run) : -1;
  sc::ScenarioRun r(spec, threads);
  if (tracer != nullptr) tracer->close(setup);
  o.setup_s = since(t0);

  const auto t1 = Clock::now();
  const std::int64_t tau = spec.detector.tau_ns;
  for (std::int64_t t = spec.detector.epoch_ns + tau; t < r.end_time_ns(); t += tau) {
    if (tracer == nullptr) {
      r.run_to(t);
      continue;
    }
    tracer->record("scenario.round", root, run, [&] { r.run_to(t); });
    tracer->record("scenario.digest", root, run, [&] { (void)r.digest(); });
  }
  if (tracer != nullptr) {
    tracer->record("scenario.finish", root, run, [&] { o.result = r.finish(); });
  } else {
    o.result = r.finish();
  }
  o.run_s = since(t1);
  if (tracer != nullptr) tracer->close(root);
  return o;
}

/// Restores the SIMD dispatch cap on scope exit.
class SimdCap {
 public:
  explicit SimdCap(fatih::crypto::SimdLevel cap) : prev_(fatih::crypto::set_simd_level_cap(cap)) {}
  ~SimdCap() { fatih::crypto::set_simd_level_cap(prev_); }
  SimdCap(const SimdCap&) = delete;
  SimdCap& operator=(const SimdCap&) = delete;

 private:
  fatih::crypto::SimdLevel prev_;
};

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    ++failed;
    std::printf("# FAIL %s\n", why.c_str());
  }
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({name, value, unit});
  }
  void print() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }
};

void print_spec(const char* role, const sc::ScenarioSpec& spec) {
  std::printf("# spec role=%s name=%s hash=%016llx\n", role, spec.name.c_str(),
              static_cast<unsigned long long>(sc::spec_hash(spec)));
  const std::string text = sc::encode(spec);
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t nl = text.find('\n', at);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    std::printf("#   %.*s\n", static_cast<int>(end - at), text.data() + at);
    at = end + 1;
  }
}

void print_env(const perfbench::Workload& w, std::uint64_t seed) {
  std::printf(
      "# env workload=%s seed=%llu build_type=%s compiler=\"%s\" flags=\"%s\" simd_level=%s "
      "nproc=%ld shard_threads=%u parallel_threads=%u\n",
      w.name.c_str(), static_cast<unsigned long long>(seed), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, simd_name(fatih::crypto::simd_level()),
      sysconf(_SC_NPROCESSORS_ONLN), w.threads > 0 ? 1U : 0U, w.threads);
}

/// Checks one run against the gate and its same-seed twin (the first
/// run); records a failure for each mismatch. Returns the gate report.
perfbench::GateReport check(const perfbench::Workload& w, const Outcome& o,
                            const sc::ScenarioResult& twin, Report& rep, const char* what) {
  perfbench::GateReport g = perfbench::check_run(w, o.result.suspicions);
  if (!g.ok()) {
    rep.fail(std::string(what) + ": " + g.error);
    for (const std::string& s : o.result.suspicions) std::printf("#   suspicion %s\n", s.c_str());
  }
  if (o.result.final_digest != twin.final_digest || o.result.suspicions != twin.suspicions) {
    rep.fail(std::string(what) + ": differs from its same-seed twin");
  }
  return g;
}

// ------------------------------------------------------------ the passes

/// Untraced runs for the end-to-end metrics.
Report measured_pass(const perfbench::Workload& w, double seconds) {
  Report rep;
  const auto t0 = Clock::now();
  std::vector<double> setup_s, run_s, run_norm;
  std::optional<sc::ScenarioResult> twin;
  perfbench::GateReport first;
  double ref_before = reference_loop_s();
  do {
    ++rep.attempted;
    const std::string what = "run " + std::to_string(rep.attempted);
    try {
      const Outcome o = run_once(w.spec, 1, nullptr, 0);
      if (!twin) {
        twin = o.result;
        first = check(w, o, *twin, rep, what.c_str());
        const std::string self = perfbench::gate_self_test(w, o.result.suspicions);
        if (!self.empty()) rep.fail("gate self-test: " + self);
      } else {
        (void)check(w, o, *twin, rep, what.c_str());
      }
      setup_s.push_back(o.setup_s);
      run_s.push_back(o.run_s);
      // Each run against the reference loop timed just before and after it.
      const double ref_after = reference_loop_s();
      run_norm.push_back(o.run_s / ((ref_before + ref_after) / 2));
      ref_before = ref_after;
      // Set-up alone for a tenth of the run's time: a set-up well under a
      // millisecond needs many samples, spread over the whole budget, for
      // a steady median.
      const auto t1 = Clock::now();
      do {
        const auto t = Clock::now();
        const sc::ScenarioRun r(w.spec, 1);
        setup_s.push_back(since(t));
      } while (since(t1) < (o.setup_s + o.run_s) / 10);
    } catch (const std::exception& e) {
      rep.fail(what + " threw: " + e.what());
    }
  } while (since(t0) < seconds);

  if (w.threads > 1 && twin) {
    // Shard differential: the digest must not depend on the worker count.
    ++rep.attempted;
    try {
      const Outcome par = run_once(w.spec, w.threads, nullptr, 0);
      if (par.result.final_digest != twin->final_digest) {
        rep.fail(std::to_string(w.threads) + "-worker run digest differs from the 1-worker digest");
      }
    } catch (const std::exception& e) {
      rep.fail(std::to_string(w.threads) + "-worker run threw: " + e.what());
    }
  }

  std::printf(
      "# measured runs=%zu setup_s=%.6f run_s=%.6f run_norm=%.4f ref_ms=%.4f suspicions=%zu\n",
      run_s.size(), median(setup_s), median(run_s), median(run_norm), ref_before * 1e3,
      twin ? twin->suspicions.size() : 0);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("run_norm", median(run_norm), "x");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("detect_delay_rounds", static_cast<double>(first.detect_delay_rounds), "rounds");
  return rep;
}

/// The differential spec variants of the traced pass.
enum Variant : int { kTraced, kUntraced, kDetached, kScalar, kParallel, kVariants };
constexpr const char* kVariantName[kVariants] = {"traced", "untraced", "detached", "scalar",
                                                 "parallel"};

/// Times routing and topology set-up through their own public calls on
/// the workload graph, outside ScenarioRun.
void trace_layers(const perfbench::Workload& w, Tracer& tr, int run, std::size_t& paths,
                  std::size_t& segments) {
  namespace rt = fatih::routing;
  const sc::ScenarioSpec& spec = w.spec;
  rt::Topology topology;
  tr.record("topo.generate", -1, run, [&] {
    if (spec.topology != sc::TopologyKind::kGenerated) {
      topology = rt::abilene_topology();
      return;
    }
    fatih::topo::TopoParams p;
    p.routers = spec.topo.routers;
    p.links = spec.topo.links;
    p.pops = spec.topo.pops;
    p.max_degree = spec.topo.max_degree;
    p.seed = spec.topo.seed;
    p.intra_delay_ns = spec.topo.intra_delay_ns;
    p.inter_delay_ns = spec.topo.inter_delay_ns;
    const fatih::topo::GeneratedTopology g = fatih::topo::generate(p);
    for (const fatih::topo::GenLink& l : g.links) topology.add_duplex(l.a, l.b, l.inter ? 10 : 1);
  });
  std::unique_ptr<rt::RoutingTables> tables;
  tr.record("routing.spf", -1, run,
            [&] { tables = std::make_unique<rt::RoutingTables>(topology); });
  tr.record("routing.segments", -1, run, [&] {
    const std::vector<rt::Path> used = tables->all_paths(w.terminals);
    const rt::SegmentIndex index(used, spec.detector.k);
    paths = used.size();
    segments = spec.detector.kind == sc::DetectorKind::kPik2 ? index.all_pik2_segments().size()
                                                             : index.all_pi2_segments().size();
  });
}

Report traced_pass(const perfbench::Workload& w, double seconds, const std::string& trace_file) {
  Report rep;
  Tracer tr;
  const auto t0 = Clock::now();
  const sc::ScenarioSpec detached = perfbench::detached(w);
  print_spec("detached", detached);
  std::vector<double> run_s[kVariants];
  std::size_t paths = 0, segments = 0;
  std::optional<sc::ScenarioResult> twin;
  perfbench::GateReport gate;
  int run = 0;
  bool codec_ok = true;
  // Whole cycles of every variant, then variants until the budget ends.
  for (bool first = true; first || since(t0) < seconds; first = false) {
    trace_layers(w, tr, run++, paths, segments);
    tr.record("scenario.codec", -1, run++, [&] {
      sc::ScenarioSpec back;
      std::string error;
      const std::string text = sc::encode(w.spec);
      codec_ok = codec_ok && sc::decode(text, back, error) && sc::encode(back) == text;
    });
    for (int v = 0; v < kVariants && (first || since(t0) < seconds); ++v) {
      ++rep.attempted;
      const std::string what = std::string(kVariantName[v]) + " run";
      try {
        Outcome o;
        if (v == kTraced) {
          o = run_once(w.spec, 1, &tr, run);
        } else {
          // Variants run untraced inside; one span covers the whole run.
          const int span = tr.open(std::string("variant.") + kVariantName[v], -1, run);
          if (v == kDetached) {
            o = run_once(detached, 1, nullptr, run);
          } else if (v == kScalar) {
            const SimdCap cap(fatih::crypto::SimdLevel::kScalar);
            o = run_once(w.spec, 1, nullptr, run);
          } else {
            o = run_once(w.spec, v == kParallel ? w.threads : 1, nullptr, run);
          }
          tr.close(span);
        }
        ++run;
        run_s[v].push_back(o.run_s);
        if (v == kDetached) continue;
        if (!twin) twin = o.result;
        const perfbench::GateReport g = check(w, o, *twin, rep, what.c_str());
        if (v == kTraced) gate = g;
      } catch (const std::exception& e) {
        rep.fail(what + " threw: " + e.what());
      }
    }
  }
  if (!codec_ok) rep.fail("scenario codec did not round-trip the spec");
  if (!tr.write(trace_file)) rep.fail("could not write " + trace_file);

  const auto ms = [&](const char* span) { return median(tr.self_times(span)) * 1e3; };
  const auto us = [&](const char* span) { return median(tr.self_times(span)) * 1e6; };
  const std::vector<double> rounds = tr.self_times("scenario.round");
  const double run_untraced = median(run_s[kUntraced]);
  const double dataplane = median(run_s[kDetached]);
  const double scalar = median(run_s[kScalar]);
  const double parallel = median(run_s[kParallel]);
  const sc::ScenarioResult result = twin.value_or(sc::ScenarioResult{});
  const double events = static_cast<double>(result.dispatched);

  rep.add("topo.generate_ms", ms("topo.generate"), "ms");
  rep.add("routing.spf_ms", ms("routing.spf"), "ms");
  rep.add("routing.segments_ms", ms("routing.segments"), "ms");
  rep.add("routing.paths", static_cast<double>(paths), "count");
  rep.add("routing.segments", static_cast<double>(segments), "count");
  rep.add("scenario.setup_ms", ms("scenario.setup"), "ms");
  rep.add("scenario.round_ms_p50", percentile(rounds, 0.5) * 1e3, "ms");
  rep.add("scenario.round_ms_p90", percentile(rounds, 0.9) * 1e3, "ms");
  rep.add("scenario.round_samples", static_cast<double>(rounds.size()), "count");
  rep.add("scenario.digest_us", us("scenario.digest"), "us");
  rep.add("scenario.codec_us", us("scenario.codec"), "us");
  rep.add("sim.events", events, "count");
  rep.add("sim.forwarded", static_cast<double>(result.forwarded), "count");
  rep.add("sim.delivered", static_cast<double>(result.delivered), "count");
  rep.add("sim.events_per_s", events / run_untraced, "1/s");
  rep.add("sim.dataplane_s", dataplane, "s");
  rep.add("detection.s", run_untraced - dataplane, "s");
  rep.add("detection.share", (run_untraced - dataplane) / run_untraced, "ratio");
  rep.add("detection.suspicions", static_cast<double>(gate.suspicions), "count");
  rep.add("detection.false_suspicions", static_cast<double>(gate.false_suspicions), "count");
  rep.add("crypto.simd_level", static_cast<double>(fatih::crypto::simd_level()), "level");
  rep.add("crypto.scalar_run_s", scalar, "s");
  rep.add("crypto.simd_saving_s", scalar - run_untraced, "s");
  rep.add("shard.threads", static_cast<double>(std::max(1U, w.threads)), "count");
  rep.add("shard.run_s_1thread", run_untraced, "s");
  rep.add("shard.run_s_parallel", parallel, "s");
  rep.add("shard.speedup", run_untraced / parallel, "ratio");
  rep.add("trace.overhead", median(run_s[kTraced]) / run_untraced - 1.0, "ratio");
  std::printf("# traced cycles=%zu spans=%s\n", run_s[kTraced].size(), trace_file.c_str());
  return rep;
}

std::string trace_path(const perfbench::Workload& w, std::uint64_t seed) {
  std::filesystem::create_directories(".bench_out");
  return ".bench_out/trace-" + w.spec.name + "-" + std::to_string(seed) + ".json";
}

/// Every workload, seconds-scale: gate, self-test, twin, shard
/// differential and the traced pass.
int smoke() {
  bool ok = true;
  for (const std::string& name : perfbench::workload_names()) {
    const perfbench::Workload w = perfbench::make_workload(name, 1, /*smoke=*/true);
    print_env(w, 1);
    print_spec("measured", w.spec);
    const Report m = measured_pass(w, 0.0);
    const Report t = traced_pass(w, 0.0, trace_path(w, 1));
    const bool pass = m.failed == 0 && t.failed == 0;
    std::printf("smoke %-24s runs=%zu failed=%zu %s\n", name.c_str(),
                m.attempted + t.attempted, m.failed + t.failed, pass ? "ok" : "FAILED");
    ok = ok && pass;
  }
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --smoke\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return smoke();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else {
      return usage();
    }
  }
  if (workload.empty()) return usage();

  try {
    const perfbench::Workload w = perfbench::make_workload(workload, seed, /*smoke=*/false);
    print_env(w, seed);
    print_spec("measured", w.spec);
    const Report rep =
        trace ? traced_pass(w, seconds, trace_path(w, seed)) : measured_pass(w, seconds);
    rep.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
