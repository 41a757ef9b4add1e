// fatih-fleet: crash-tolerant multi-process scenario sweep driver.
//
// The same binary plays both roles. As the supervisor (`sweep`) it
// fork/execs itself (`worker <name>`) once per scenario, bounded by
// --jobs slots, watching every child with a wall-clock deadline: a worker
// that exits nonzero is retried with backoff up to --retries, a worker
// that overruns its deadline is SIGKILLed and retried the same way, and a
// scenario whose retry budget runs out is recorded in the corpus with
// status "crash" or "timeout" instead of aborting the sweep — the corpus
// always aggregates deterministically (records sorted by name) no matter
// which workers died. As the worker it materializes one ScenarioSpec,
// runs it to completion and writes its corpus record as JSON.
//
// `--inject-crash` / `--inject-hang` enqueue probe workers that fail on
// purpose (exercised by the fleet_smoke ctest and the CI fleet job): the
// sweep must survive both, record them, and still exit 0 — drift against
// the --golden corpus is the only failing condition.
#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/corpus.hpp"
#include "scenario/drift.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/snapshot.hpp"
#include "scenario/spec.hpp"

namespace {

namespace sc = fatih::scenario;

using Clock = std::chrono::steady_clock;

constexpr const char* kInjectCrash = "inject_crash";
constexpr const char* kInjectHang = "inject_hang";

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now().time_since_epoch())
      .count();
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

/// Reads all of `text` as an unsigned decimal number that fits in T. A
/// missing value, a sign, trailing characters or an out-of-range value all
/// fail, so the caller prints usage instead of aborting or guessing.
template <typename T>
bool parse_number(const std::string& text, T& out) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: fatih-fleet <command>\n"
               "  list                          print builtin scenario names\n"
               "  print <name>                  print a builtin's canonical spec text\n"
               "  run <name>                    run one scenario in-process, corpus to stdout\n"
               "  worker <name> --out FILE      (internal) run one scenario, record to FILE\n"
               "  sweep [opts] [names...]       supervise a worker per scenario\n"
               "    --jobs N          parallel worker slots (default 2)\n"
               "    --threads N       worker-thread override for sharded scenarios\n"
               "                      (digests are thread-invariant; use with --golden\n"
               "                      for a shard differential sweep)\n"
               "    --timeout-ms T    per-worker wall-clock budget (default 120000)\n"
               "    --hang-timeout-ms T  budget for the inject_hang probe only\n"
               "    --retries R       relaunch budget after crash/timeout (default 1)\n"
               "    --out FILE        write the aggregated corpus JSON here\n"
               "    --golden FILE     compare against this corpus; drift fails the sweep\n"
               "    --inject-crash    add a worker that exits nonzero on purpose\n"
               "    --inject-hang     add a worker that never exits on purpose\n"
               "    (no names = every builtin scenario)\n"
               "  bisect <golden.json> <fresh.json>  report drift + first divergent windows\n");
  return 2;
}

// --------------------------------------------------------------- worker role

int cmd_worker(const std::string& name, const std::string& out_path, unsigned threads) {
  if (name == kInjectCrash) _exit(3);
  if (name == kInjectHang) {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  const sc::ScenarioSpec* spec = sc::find_scenario(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "fatih-fleet: unknown scenario '%s'\n", name.c_str());
    return 2;
  }
  sc::Corpus corpus;
  corpus.upsert(sc::to_record(sc::run_scenario(*spec, threads)));
  if (!write_file(out_path, sc::to_json(corpus))) {
    std::fprintf(stderr, "fatih-fleet: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}

// ----------------------------------------------------------- supervisor role

struct SweepOptions {
  int jobs = 2;
  std::int64_t timeout_ms = 120'000;
  std::int64_t hang_timeout_ms = -1;  ///< -1: same as timeout_ms
  int retries = 1;
  unsigned threads = 0;  ///< sharded-spec worker override (0 = spec.shards)
  std::string out_path{};
  std::string golden_path{};
  std::vector<std::string> names{};
};

struct Job {
  std::string name;
  int attempts = 0;            ///< launches so far
  std::int64_t not_before = 0; ///< backoff gate (ms on the steady clock)
};

struct Running {
  pid_t pid = -1;
  Job job{};
  std::int64_t deadline_ms = 0;
  std::string out_path{};
};

pid_t launch_worker(const std::string& name, const std::string& out_path, unsigned threads) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: re-enter this binary in worker mode.
  const std::string threads_str = std::to_string(threads);
  if (threads > 0) {
    execl("/proc/self/exe", "fatih-fleet", "worker", name.c_str(), "--out", out_path.c_str(),
          "--threads", threads_str.c_str(), static_cast<char*>(nullptr));
  } else {
    execl("/proc/self/exe", "fatih-fleet", "worker", name.c_str(), "--out", out_path.c_str(),
          static_cast<char*>(nullptr));
  }
  _exit(127);
}

/// Records a terminal failure ("crash"/"timeout") with zeroed results —
/// the partial corpus keeps the failure visible instead of dropping it.
sc::CorpusRecord failure_record(const Job& job, const char* status) {
  sc::CorpusRecord rec;
  rec.name = job.name;
  rec.status = status;
  rec.attempts = static_cast<std::uint32_t>(job.attempts);
  const sc::ScenarioSpec* spec = sc::find_scenario(job.name);
  if (spec != nullptr) rec.spec_hash = sc::spec_hash(*spec);
  return rec;
}

int cmd_sweep(const SweepOptions& opt) {
  std::deque<Job> queue;
  for (const std::string& name : opt.names) queue.push_back(Job{name, 0, 0});

  sc::Corpus corpus;
  std::vector<Running> running;
  std::size_t launched = 0;

  const auto deadline_for = [&](const std::string& name) {
    const std::int64_t budget =
        (name == kInjectHang && opt.hang_timeout_ms >= 0) ? opt.hang_timeout_ms
                                                          : opt.timeout_ms;
    return now_ms() + budget;
  };

  const auto requeue_or_record = [&](Job job, const char* status) {
    if (job.attempts <= opt.retries) {
      // Exponential-ish backoff: 100ms, 200ms, 400ms, ...
      job.not_before = now_ms() + (100LL << (job.attempts - 1));
      std::fprintf(stderr, "fleet: %s attempt %d failed (%s), retrying\n", job.name.c_str(),
                   job.attempts, status);
      queue.push_back(std::move(job));
    } else {
      std::fprintf(stderr, "fleet: %s failed terminally (%s after %d attempts)\n",
                   job.name.c_str(), status, job.attempts);
      corpus.upsert(failure_record(job, status));
    }
  };

  while (!queue.empty() || !running.empty()) {
    // Fill free slots with launchable jobs (skipping backoff holds).
    for (std::size_t scan = queue.size();
         scan > 0 && running.size() < static_cast<std::size_t>(opt.jobs); --scan) {
      Job job = std::move(queue.front());
      queue.pop_front();
      if (job.not_before > now_ms()) {
        queue.push_back(std::move(job));
        continue;
      }
      ++job.attempts;
      Running r;
      r.job = job;
      r.out_path = "fleet_worker_" + std::to_string(launched++) + "_" + job.name + ".json";
      std::remove(r.out_path.c_str());
      r.pid = launch_worker(job.name, r.out_path, opt.threads);
      if (r.pid < 0) {
        requeue_or_record(std::move(job), "crash");
        continue;
      }
      r.deadline_ms = deadline_for(job.name);
      running.push_back(std::move(r));
    }

    for (std::size_t i = 0; i < running.size();) {
      Running& r = running[i];
      int status = 0;
      const pid_t got = waitpid(r.pid, &status, WNOHANG);
      if (got == r.pid) {
        const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        std::string text;
        sc::Corpus single;
        std::string err;
        if (ok && read_file(r.out_path, text) && sc::from_json(text, single, err) &&
            single.records.size() == 1) {
          sc::CorpusRecord rec = single.records.front();
          rec.attempts = static_cast<std::uint32_t>(r.job.attempts);
          corpus.upsert(std::move(rec));
        } else {
          requeue_or_record(r.job, "crash");
        }
        std::remove(r.out_path.c_str());
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (got == 0 && now_ms() > r.deadline_ms) {
        kill(r.pid, SIGKILL);
        waitpid(r.pid, &status, 0);
        std::remove(r.out_path.c_str());
        requeue_or_record(r.job, "timeout");
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const std::string json = sc::to_json(corpus);
  if (!opt.out_path.empty() && !write_file(opt.out_path, json)) {
    std::fprintf(stderr, "fatih-fleet: cannot write %s\n", opt.out_path.c_str());
    return 2;
  }
  if (opt.out_path.empty()) std::fputs(json.c_str(), stdout);

  if (!opt.golden_path.empty()) {
    std::string golden_text;
    sc::Corpus golden;
    std::string err;
    if (!read_file(opt.golden_path, golden_text) ||
        !sc::from_json(golden_text, golden, err)) {
      std::fprintf(stderr, "fatih-fleet: cannot load golden corpus %s: %s\n",
                   opt.golden_path.c_str(), err.c_str());
      return 2;
    }
    // A subset sweep is only accountable for the scenarios it ran; a
    // swept scenario whose worker died still has a (non-ok) record, so
    // the comparison cannot be dodged by crashing.
    std::erase_if(golden.records, [&](const sc::CorpusRecord& rec) {
      return std::find(opt.names.begin(), opt.names.end(), rec.name) == opt.names.end();
    });
    const sc::DriftReport report = sc::compare_corpus(golden, corpus);
    std::fputs(sc::describe(report).c_str(), stderr);
    if (!report.clean()) return 1;
  }
  return 0;
}

// -------------------------------------------------------------- other roles

int cmd_list() {
  for (const sc::ScenarioSpec& s : sc::builtin_scenarios()) {
    std::printf("%s\n", s.name.c_str());
  }
  return 0;
}

int cmd_print(const std::string& name) {
  const sc::ScenarioSpec* spec = sc::find_scenario(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "fatih-fleet: unknown scenario '%s'\n", name.c_str());
    return 2;
  }
  std::fputs(sc::encode(*spec).c_str(), stdout);
  return 0;
}

int cmd_run(const std::string& name) {
  const sc::ScenarioSpec* spec = sc::find_scenario(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "fatih-fleet: unknown scenario '%s'\n", name.c_str());
    return 2;
  }
  sc::Corpus corpus;
  corpus.upsert(sc::to_record(sc::run_scenario(*spec)));
  std::fputs(sc::to_json(corpus).c_str(), stdout);
  return 0;
}

int cmd_bisect(const std::string& golden_path, const std::string& fresh_path) {
  std::string text;
  std::string err;
  sc::Corpus golden;
  sc::Corpus fresh;
  if (!read_file(golden_path, text) || !sc::from_json(text, golden, err)) {
    std::fprintf(stderr, "fatih-fleet: cannot load %s: %s\n", golden_path.c_str(), err.c_str());
    return 2;
  }
  if (!read_file(fresh_path, text) || !sc::from_json(text, fresh, err)) {
    std::fprintf(stderr, "fatih-fleet: cannot load %s: %s\n", fresh_path.c_str(), err.c_str());
    return 2;
  }
  const sc::DriftReport report = sc::compare_corpus(golden, fresh);
  std::fputs(sc::describe(report).c_str(), stdout);
  return report.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& cmd = args[0];

  if (cmd == "list") return cmd_list();
  if (cmd == "print" && args.size() == 2) return cmd_print(args[1]);
  if (cmd == "run" && args.size() == 2) return cmd_run(args[1]);
  if (cmd == "bisect" && args.size() == 3) return cmd_bisect(args[1], args[2]);

  if (cmd == "worker") {
    std::string name;
    std::string out_path;
    unsigned threads = 0;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--out" && i + 1 < args.size()) {
        out_path = args[++i];
      } else if (args[i] == "--threads" && i + 1 < args.size()) {
        if (!parse_number(args[++i], threads)) return usage();
      } else if (name.empty()) {
        name = args[i];
      } else {
        return usage();
      }
    }
    if (name.empty() || out_path.empty()) return usage();
    return cmd_worker(name, out_path, threads);
  }

  if (cmd == "sweep") {
    SweepOptions opt;
    bool inject_crash = false;
    bool inject_hang = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto next = [&]() -> std::string {
        return i + 1 < args.size() ? args[++i] : std::string();
      };
      bool ok = true;
      if (a == "--jobs") ok = parse_number(next(), opt.jobs);
      else if (a == "--threads") ok = parse_number(next(), opt.threads);
      else if (a == "--timeout-ms") ok = parse_number(next(), opt.timeout_ms);
      else if (a == "--hang-timeout-ms") ok = parse_number(next(), opt.hang_timeout_ms);
      else if (a == "--retries") ok = parse_number(next(), opt.retries);
      else if (a == "--out") opt.out_path = next();
      else if (a == "--golden") opt.golden_path = next();
      else if (a == "--inject-crash") inject_crash = true;
      else if (a == "--inject-hang") inject_hang = true;
      else if (!a.empty() && a[0] == '-') return usage();
      else opt.names.push_back(a);
      if (!ok) return usage();
    }
    if (opt.jobs < 1) opt.jobs = 1;
    if (opt.names.empty()) {
      for (const sc::ScenarioSpec& s : sc::builtin_scenarios()) opt.names.push_back(s.name);
    }
    if (inject_crash) opt.names.emplace_back(kInjectCrash);
    if (inject_hang) opt.names.emplace_back(kInjectHang);
    return cmd_sweep(opt);
  }

  return usage();
}
