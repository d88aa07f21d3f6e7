// The repository benchmark: runs one workload in a closed loop for a
// fixed wall-clock window, checks every statement's result against the
// first timed pass, and prints one JSON line with the metrics, the result
// digests and the failure count. perfbench/run.py builds this program,
// compares the digests with the stored reference values and prints the
// final result line.
//
//   perfbench --workload raster|vector|streams --seed N --seconds S
//             --trace 0|1 [--trace-out trace.json]
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// alternates untraced and traced passes, reads the layers' counters and
// records spans in memory in the traced ones, writes the spans at exit as
// Chrome trace-event JSON, and reports the per-layer metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace paradise::perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Direct calls per layer probe in the traced run.
constexpr int kProbeReps = 5;
/// Timed passes whose modeled seconds are printed for comparison with the
/// stored reference values (traced runs trace every second pass). Peak
/// memory is also read after this many passes: a fixed amount of work, so
/// that a faster program is not charged for the memory `streams` gains
/// with every round (README.md).
constexpr size_t kReferencePasses = 4;

/// Restricts this process (and the threads it starts later) to the core
/// it is running on. Failure leaves it unpinned.
void PinToOneCore() {
  int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Whether a later pass's statement returned what the first timed pass
/// did. A `streams` round's modeled times drift from round to round (see
/// README.md), so there only the per-client results are compared; its
/// modeled makespans are checked per round index against the stored
/// reference values instead.
bool SameResult(const StatementRun& first, const StatementRun& s, Workload w) {
  if (first.name != s.name) return false;
  if (w == Workload::kStreams) {
    return first.digest.rows == s.digest.rows &&
           first.digest.fingerprint == s.digest.fingerprint;
  }
  return first.digest == s.digest;
}

/// The pass-time percentile reported as pass_tail_s: the highest multiple
/// of 5 that keeps at least ten passes beyond it in a 28-second window even
/// when passes run three times slower than on a quiet 4-core host
/// (BENCHMARK.json records it in each workload's description).
double TailPercentile(Workload w) {
  switch (w) {
    case Workload::kRaster: return 0.85;
    case Workload::kVector: return 0.70;
    case Workload::kStreams: return 0.75;
  }
  return 0.5;
}

/// Warm-up passes before the timed window: a fixed count, so the first
/// timed pass (the one every later pass and the stored reference values
/// are compared with) is the same pass in every run.
int WarmupPasses(Workload w) { return w == Workload::kRaster ? 5 : 2; }

struct Args {
  Workload workload = Workload::kRaster;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      std::optional<Workload> w = ParseWorkload(v);
      if (!w) {
        std::fprintf(stderr, "unknown workload %s\n", v);
        return false;
      }
      a->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || a->seconds <= 0.0) {
    std::fprintf(stderr, "need --workload and a positive --seconds\n");
    return false;
  }
  return true;
}

/// In-memory span recorder, written at exit as Chrome trace-event JSON.
/// Track 1 is wall time; track 2 lays each traced pass's coordinator
/// phases out on the modeled-time axis.
class TraceRecorder {
 public:
  explicit TraceRecorder(double origin) : origin_(origin) {}

  /// Records a wall-time span and returns its id.
  int Span(const std::string& name, const std::string& cat, double start,
           double end, int parent, const std::string& args_json) {
    int id = next_id_++;
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d",
                  JsonEscape(name).c_str(), cat.c_str(),
                  (start - origin_) * 1e6, (end - start) * 1e6, id, parent);
    events_.push_back(std::string(head) +
                      (args_json.empty() ? "" : "," + args_json) + "}}");
    return id;
  }

  /// Records a span on the modeled-time track.
  void Modeled(const std::string& name, double start_s, double dur_s,
               int parent) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"modeled\",\"ph\":\"X\","
                  "\"pid\":2,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"parent\":%d,\"modeled_s\":%s}}",
                  JsonEscape(name).c_str(), start_s * 1e6, dur_s * 1e6, parent,
                  Num(dur_s).c_str());
    events_.push_back(buf);
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"args\":{\"name\":\"wall time\"}},\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                 "\"args\":{\"name\":\"modeled time\"}}");
    for (const std::string& e : events_) std::fprintf(f, ",\n%s", e.c_str());
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double origin_;
  int next_id_ = 1;
  std::vector<std::string> events_;
};

/// Records a traced pass: one span for the pass (with its layer counters),
/// one child per statement (rows, fingerprint, modeled seconds, phases),
/// and the statements' phases on the modeled-time track.
void TracePass(TraceRecorder* tr, int index, double start,
               const PassResult& pass, double* modeled_origin) {
  const LayerCounters& c = pass.counters;
  char args[640];
  std::snprintf(
      args, sizeof(args),
      "\"pass\":%d,\"pool_hits\":%lld,\"pool_misses\":%lld,"
      "\"readahead_pages\":%lld,\"evictions\":%lld,\"writeback_pages\":%lld,"
      "\"disk_seeks\":%lld,\"disk_bytes_read\":%lld,"
      "\"disk_bytes_written\":%lld,\"net_bytes\":%lld,\"net_messages\":%lld,"
      "\"cpu_ops\":%s,\"sweep_pair_compares\":%lld,\"exact_tests\":%lld",
      index, static_cast<long long>(c.pool.hits),
      static_cast<long long>(c.pool.misses),
      static_cast<long long>(c.pool.readahead_pages),
      static_cast<long long>(c.pool.evictions),
      static_cast<long long>(c.pool.writeback_pages),
      static_cast<long long>(c.usage.disk_seeks),
      static_cast<long long>(c.usage.disk_bytes_read),
      static_cast<long long>(c.usage.disk_bytes_written),
      static_cast<long long>(c.usage.net_bytes),
      static_cast<long long>(c.usage.net_messages), Num(c.usage.cpu_ops).c_str(),
      static_cast<long long>(c.sweep_pair_compares),
      static_cast<long long>(c.exact_tests));
  double end = pass.statements.empty() ? start
                                       : pass.statements.back().start_s +
                                             pass.statements.back().wall_s;
  int pass_id = tr->Span("pass", "benchmark", start, end, 0, args);
  for (const StatementRun& s : pass.statements) {
    std::string phases = "\"phases\":{";
    for (size_t i = 0; i < s.phases.size(); ++i) {
      if (i > 0) phases += ',';
      phases.append("\"").append(std::to_string(i)).append(" ");
      phases.append(JsonEscape(s.phases[i].first)).append("\":");
      phases.append(Num(s.phases[i].second));
    }
    phases += "}";
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(s.digest.fingerprint));
    int id = tr->Span(s.name, "statement", s.start_s, s.start_s + s.wall_s,
                      pass_id,
                      "\"rows\":" + std::to_string(s.digest.rows) +
                          ",\"fingerprint\":\"" + fp + "\",\"modeled_s\":" +
                          Num(s.digest.modeled_s) + "," + phases);
    double m = *modeled_origin;
    for (const auto& [name, seconds] : s.phases) {
      tr->Modeled(s.name + ": " + name, m, seconds, id);
      m += seconds;
    }
    *modeled_origin += s.digest.modeled_s;
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  // Thread budget: the cluster pool plus the one client thread that is
  // running at any moment stays within the host's cores. `streams` runs
  // its node tasks inline: with a pool, each round wakes pool threads
  // hundreds of times, and its wall time doubled whenever the host was
  // busy (README.md).
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int pool_threads =
      args.workload == Workload::kStreams ? 1 : std::clamp(hw - 1, 1, 2);
  if (args.workload == Workload::kStreams) {
    // One query runs at a time, so `streams` loses no parallelism on one
    // core, and there its client hand-offs are plain context switches.
    // Spread over idle cores, each hand-off waits for a core to wake, and
    // that wait grew with the host's load (README.md).
    PinToOneCore();
  }
  const double origin = Now();
  TraceRecorder trace(origin);

  // ---- set-up, several times; the last one is kept ----
  std::vector<double> setup_s, generate_s, load_s;
  std::unique_ptr<WorkloadRunner> runner;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    SetupTimes times;
    double t0 = Now();
    StatusOr<std::unique_ptr<WorkloadRunner>> r = WorkloadRunner::Create(
        args.workload, args.seed, Sizing(), pool_threads, &times);
    double t1 = Now();
    if (!r.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    runner = std::move(r).value();
    setup_s.push_back(t1 - t0);
    generate_s.push_back(times.generate_s);
    load_s.push_back(times.load_s);
    if (args.trace) {
      int id = trace.Span("setup", "setup", t0, t1, 0, "");
      trace.Span("datagen.generate", "setup", t0, t0 + times.generate_s, id, "");
      trace.Span("core.load", "setup", t0 + times.generate_s, t1, id, "");
    }
  }

  int64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  auto fail = [&](int64_t n, const std::string& why) {
    failed += n;
    if (errors.size() < 20) errors.push_back(why);
  };

  // ---- warm-up ----
  for (int i = 0; i < WarmupPasses(args.workload); ++i) {
    PassResult p = runner->RunPass(false);
    for (const StatementRun& s : p.statements) {
      attempted += s.queries;
      if (!s.status.ok()) {
        fail(s.queries, "warm-up " + s.name + ": " + s.status.ToString());
      }
    }
  }

  // ---- timed window ----
  std::vector<StatementRun> first;  // digests of the first timed pass
  std::vector<double> pass_walls;  // untraced passes
  // Wall time of each loop iteration: the pass, its result checks and, in
  // traced passes, the counter reads and span recording.
  std::vector<double> untraced_iter_s, traced_iter_s;
  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> statement_ms;
  std::vector<LayerCounters> traced_counters;
  std::map<std::string, int64_t> statement_attempts;
  std::vector<double> pass_modeled;  // the first kReferencePasses passes
  double peak_rss_mb = 0.0;
  int64_t window_queries = 0;
  double program_s = 0.0;  // wall time inside the program's calls
  double modeled_origin = 0.0;
  const double window_start = Now();
  const double deadline = window_start + args.seconds;
  int index = 0;
  while (Now() < deadline) {
    const bool traced = args.trace && index % 2 == 1;
    double start = Now();
    PassResult p = runner->RunPass(traced);
    if (!traced) pass_walls.push_back(p.wall_s);
    program_s += p.wall_s;
    double modeled = 0.0;
    for (const StatementRun& s : p.statements) modeled += s.digest.modeled_s;
    if (pass_modeled.size() < kReferencePasses) {
      pass_modeled.push_back(modeled);
      peak_rss_mb = PeakRssMb();
    }
    for (size_t i = 0; i < p.statements.size(); ++i) {
      const StatementRun& s = p.statements[i];
      attempted += s.queries;
      window_queries += s.queries;
      statement_attempts[s.name] += s.queries;
      if (!s.status.ok()) {
        fail(s.queries, s.name + ": " + s.status.ToString());
        continue;
      }
      if (index == 0) {
        first.push_back(s);
      } else if (i >= first.size() || !SameResult(first[i], s, args.workload)) {
        fail(s.queries, s.name + " in pass " + std::to_string(index) +
                            (traced ? " (traced)" : "") +
                            " differs from the first timed pass");
      }
      latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
      if (traced) statement_ms[s.name].push_back(s.wall_s * 1e3);
    }
    if (traced) {
      traced_counters.push_back(p.counters);
      TracePass(&trace, index, start, p, &modeled_origin);
    }
    (traced ? traced_iter_s : untraced_iter_s).push_back(Now() - start);
    ++index;
  }
  if (first.empty() && failed == 0) fail(1, "no pass completed");

  // ---- cross-checks on the first timed pass ----
  std::map<std::string, Digest> d;
  for (const StatementRun& s : first) d[s.name] = s.digest;
  auto same_rows = [&](const char* a, const char* b, bool fingerprint) {
    if (!d.count(a) || !d.count(b)) return;
    if (d[a].rows != d[b].rows ||
        (fingerprint && d[a].fingerprint != d[b].fingerprint)) {
      fail(1, std::string(a) + " and " + b + " disagree on the result");
    }
  };
  same_rows("q13", "join_two_layer", true);
  same_rows("q5", "sql_q5", true);
  same_rows("q7", "sql_q7", true);
  same_rows("q11", "sql_q11", true);

  // ---- metrics ----
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  auto metric = [&](const std::string& name, double v, const char* unit) {
    metrics.push_back({name, {v, unit}});
  };
  if (!args.trace) {
    double modeled_pass = 0.0;
    for (const StatementRun& s : first) modeled_pass += s.digest.modeled_s;
    metric("setup_s", Median(setup_s), "s");
    metric("queries_per_s", static_cast<double>(window_queries) / program_s,
           "1/s");
    metric("pass_p50_s", Median(pass_walls), "s");
    metric("pass_tail_s",
           Percentile(pass_walls, TailPercentile(args.workload)), "s");
    metric("modeled_pass_s", modeled_pass, "modeled_s");
    metric("modeled_latency_p99_s", Percentile(latencies, 0.99), "modeled_s");
    metric("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // A `streams` round hides its queries' phases, so the core.* metrics
    // there come from one direct run of each query of the mix.
    const bool streams = args.workload == Workload::kStreams;
    LayerCounters mix_counters;
    if (streams) {
      for (int q : runner->pass_queries()) {
        StatementRun s = runner->RunQuery(q, &mix_counters);
        if (!s.status.ok()) {
          fail(1, "probe " + s.name + ": " + s.status.ToString());
          continue;
        }
        trace.Span(s.name, "probe", s.start_s, s.start_s + s.wall_s, 0,
                   "\"modeled_s\":" + Num(s.digest.modeled_s));
      }
    }
    double t0 = Now();
    StatusOr<std::map<std::string, double>> probes =
        runner->ProbeLayers(kProbeReps);
    trace.Span("layer probes", "probe", t0, Now(), 0, "");
    if (!probes.ok()) {
      fail(1, "layer probes: " + probes.status().ToString());
      probes = std::map<std::string, double>();
    }
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const LayerCounters& c : traced_counters) v.push_back(field(c));
      return Median(v);
    };
    auto probe = [&](const char* name) {
      auto it = probes->find(name);
      return it == probes->end() ? 0.0 : it->second;
    };
    using C = const LayerCounters&;
    metric("datagen.generate_s", Median(generate_s), "s");
    metric("core.load_s", Median(load_s), "s");
    for (int q = 2; q <= 14; ++q) {
      metric("benchmark.q" + std::to_string(q) + "_ms",
             Median(statement_ms["q" + std::to_string(q)]), "ms");
    }
    metric("benchmark.join_two_layer_ms", Median(statement_ms["join_two_layer"]),
           "ms");
    metric("benchmark.clustered_q13_ms", probe("benchmark.clustered_q13_ms"),
           "ms");
    metric("storage.pool_hits", med([](C c) { return double(c.pool.hits); }), "count");
    metric("storage.pool_misses", med([](C c) { return double(c.pool.misses); }), "count");
    metric("storage.pool_hit_rate", med([](C c) { return c.pool.hit_rate(); }), "ratio");
    metric("storage.readahead_pages",
           med([](C c) { return double(c.pool.readahead_pages); }), "count");
    metric("storage.evictions", med([](C c) { return double(c.pool.evictions); }), "count");
    metric("storage.writeback_pages",
           med([](C c) { return double(c.pool.writeback_pages); }), "count");
    metric("storage.scan_shared_pages",
           med([](C c) { return double(c.pool.scan_shared_pages); }), "count");
    metric("array.clip_ms", probe("array.clip_ms"), "ms");
    metric("exec.sweep_pair_compares",
           med([](C c) { return double(c.sweep_pair_compares); }), "count");
    metric("exec.sweep_candidates",
           med([](C c) { return double(c.sweep_candidates); }), "count");
    metric("exec.exact_tests", med([](C c) { return double(c.exact_tests); }), "count");
    metric("exec.candidate_yield", med([](C c) {
             return c.exact_tests ? double(c.join_rows) / double(c.exact_tests) : 0.0;
           }), "ratio");
    metric("exec.dedup_tests", med([](C c) { return double(c.dedup_tests); }), "count");
    metric("exec.replication", med([](C c) {
             return c.join_tuples ? double(c.join_items) / double(c.join_tuples) : 0.0;
           }), "ratio");
    metric("exec.partition_skew", med([](C c) { return c.max_partition_skew; }), "ratio");
    metric("exec.clustered_partition_skew",
           probe("exec.clustered_partition_skew"), "ratio");
    metric("exec.pbsm_kernel_ms", probe("exec.pbsm_kernel_ms"), "ms");
    metric("exec.two_layer_kernel_ms", probe("exec.two_layer_kernel_ms"), "ms");
    metric("exec.index_kernel_ms", probe("exec.index_kernel_ms"), "ms");
    metric("index.rtree_visits_per_probe", probe("index.rtree_visits_per_probe"),
           "count");
    metric("index.rtree_probe_us", probe("index.rtree_probe_us"), "us");
    metric("sql.plan_us", probe("sql.plan_us"), "us");
    metric("sql.execute_ms", probe("sql.execute_ms"), "ms");
    metric("core.sequential_modeled_s",
           streams ? mix_counters.sequential_modeled_s
                   : med([](C c) { return c.sequential_modeled_s; }),
           "modeled_s");
    metric("core.phase_skew",
           streams ? mix_counters.max_phase_skew
                   : med([](C c) { return c.max_phase_skew; }),
           "ratio");
    metric("core.clustered_phase_skew", probe("core.clustered_phase_skew"),
           "ratio");
    metric("sim.disk_seeks", med([](C c) { return double(c.usage.disk_seeks); }), "count");
    metric("sim.disk_bytes_read",
           med([](C c) { return double(c.usage.disk_bytes_read); }), "bytes");
    metric("sim.disk_bytes_written",
           med([](C c) { return double(c.usage.disk_bytes_written); }), "bytes");
    metric("sim.net_bytes", med([](C c) { return double(c.usage.net_bytes); }), "bytes");
    metric("sim.net_messages", med([](C c) { return double(c.usage.net_messages); }),
           "count");
    metric("sim.cpu_ops", med([](C c) { return c.usage.cpu_ops; }), "count");
    metric("session.cache_hit_rate", med([](C c) {
             int64_t n = c.cache_hits + c.cache_misses;
             return n ? double(c.cache_hits) / double(n) : 0.0;
           }), "ratio");
    metric("session.scan_attaches", med([](C c) { return double(c.scan_attaches); }),
           "count");
    metric("session.admission_wait_p99_s",
           med([](C c) { return Percentile(c.admission_waits, 0.99); }), "modeled_s");
    metric("trace.overhead_s", Median(traced_iter_s) - Median(untraced_iter_s),
           "s");
    if (!args.trace_out.empty() && !trace.Write(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  // ---- result line ----
  for (const std::string& e : errors) std::fprintf(stderr, "FAILED %s\n", e.c_str());
  std::string out = "{\"workload\":\"" + std::string(WorkloadName(args.workload)) +
                    "\",\"seed\":" + std::to_string(args.seed) +
                    ",\"passes\":" + std::to_string(index) +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ",\"" : "\"") + metrics[i].first + "\":{\"value\":" +
           Num(metrics[i].second.first) + ",\"unit\":\"" +
           metrics[i].second.second + "\"}";
  }
  out += "},\"digests\":{";
  for (size_t i = 0; i < first.size(); ++i) {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(first[i].digest.fingerprint));
    out += (i ? ",\"" : "\"") + first[i].name + "\":{\"rows\":" +
           std::to_string(first[i].digest.rows) + ",\"fingerprint\":\"" + fp +
           "\",\"modeled_s\":" + Num(first[i].digest.modeled_s) + "}";
  }
  out += "},\"pass_modeled_s\":[";
  for (size_t i = 0; i < pass_modeled.size(); ++i) {
    out += (i ? "," : "") + Num(pass_modeled[i]);
  }
  out += "],\"attempts\":{";
  size_t i = 0;
  for (const auto& [name, n] : statement_attempts) {
    out += (i++ ? ",\"" : "\"") + name + "\":" + std::to_string(n);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace paradise::perfbench

int main(int argc, char** argv) { return paradise::perfbench::Main(argc, argv); }
