/// \file compile_workload.cpp
/// compile_graphs: seeded synthetic SDF graphs — chain, tree and
/// random-SCC shapes at three sizes between 1k and 10k actors — through
/// the staged compile pipeline. Each plan is validated, serialized and
/// loaded back, then recompiled incrementally after exec-only edits.
/// The topologies are fixed (their random parts drawn from a constant
/// seed); the workload seed draws every actor's exec time and the edit
/// sequence. So every seed asks the same structural work, while the
/// exec-dependent analyses (MCM, resynchronization verdicts) see new
/// inputs.
#include <string>

#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spi;

constexpr int kProcs = 8;
constexpr int kSizes[] = {1000, 3000, 10000};

struct Case {
  std::string name;
  df::Graph graph;
  sched::Assignment assignment{0, 1};
};

/// Contiguous blocks over kProcs processors: channel count follows the
/// cut, as a locality-aware partitioner would make it.
sched::Assignment block_assignment(std::size_t n) {
  sched::Assignment a(n, static_cast<sched::Proc>(kProcs));
  const std::size_t block = (n + kProcs - 1) / kProcs;
  for (std::size_t i = 0; i < n; ++i)
    a.assign(static_cast<df::ActorId>(i), static_cast<sched::Proc>(i / block));
  return a;
}

df::ActorId id(int i) { return static_cast<df::ActorId>(i); }

/// Pipeline with sparse long-range feedback at seeded positions.
df::Graph chain(int n, Rng& rng) {
  df::Graph g("chain" + std::to_string(n));
  for (int i = 0; i < n; ++i) g.add_actor("c" + std::to_string(i), 5 + static_cast<int>(rng.below(20)));
  for (int i = 0; i + 1 < n; ++i) g.connect_simple(id(i), id(i + 1), 0, 16);
  for (int i = 0; i + 600 < n; i += 400 + static_cast<int>(rng.below(200)))
    g.connect_simple(id(i + 400 + static_cast<int>(rng.below(200))), id(i), 3, 4);
  return g;
}

/// Scatter tree in DFS order with seeded fan-out, so subtrees are
/// index-contiguous and the block assignment cuts few edges.
df::Graph tree(int n, Rng& rng) {
  df::Graph g("tree" + std::to_string(n));
  for (int i = 0; i < n; ++i) g.add_actor("t" + std::to_string(i), 4 + static_cast<int>(rng.below(12)));
  const auto build = [&](const auto& self, int lo, int hi) -> void {
    if (lo + 1 >= hi) return;
    const int children = 2 + static_cast<int>(rng.below(2));
    int begin = lo + 1;
    for (int c = 0; c < children && begin < hi; ++c) {
      const int end = c + 1 == children ? hi : begin + std::max(1, (hi - begin) / (children - c));
      g.connect_simple(id(lo), id(begin), 0, 8);
      self(self, begin, end);
      begin = end;
    }
  };
  build(build, 0, n);
  return g;
}

/// Blocks of 64-actor SCCs with seeded forward chords, chained forward.
df::Graph scc(int n, Rng& rng) {
  df::Graph g("scc" + std::to_string(n));
  for (int i = 0; i < n; ++i) g.add_actor("s" + std::to_string(i), 3 + static_cast<int>(rng.below(15)));
  constexpr int kBlock = 64;
  for (int lo = 0; lo < n; lo += kBlock) {
    const int hi = std::min(lo + kBlock, n);
    for (int i = lo; i + 1 < hi; ++i) g.connect_simple(id(i), id(i + 1), 0, 4);
    if (hi - lo > 1) g.connect_simple(id(hi - 1), id(lo), 4, 4);
    for (int c = 0; c < 2 && hi - lo > 3; ++c) {
      const int u = lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo - 2)));
      const int v = u + 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - u - 1)));
      g.connect_simple(id(u), id(v), 0, 4);
    }
    if (hi < n) g.connect_simple(id(hi - 1), id(hi), 0, 4);
  }
  return g;
}

std::vector<Case> make_cases(std::uint64_t seed) {
  constexpr std::uint64_t kTopologySeed = 0x5eed;
  std::vector<Case> cases;
  Rng rng(kTopologySeed);
  Rng exec(sub_seed(seed, 3));
  for (const int n : kSizes) {
    for (int shape = 0; shape < 3; ++shape) {
      Case c;
      c.graph = shape == 0 ? chain(n, rng) : shape == 1 ? tree(n, rng) : scc(n, rng);
      for (std::size_t a = 0; a < c.graph.actor_count(); ++a)
        c.graph.actor(static_cast<df::ActorId>(a)).exec_cycles = 3 + static_cast<std::int64_t>(exec.below(20));
      c.name = c.graph.name();
      c.assignment = block_assignment(c.graph.actor_count());
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

/// Synchronizing (cross-processor) edges of a plan's sync graph: before
/// resynchronization every IPC and ack edge; after it, those that
/// survived redundancy elimination plus the added resync edges.
struct SyncEdgeCounts {
  double before = 0.0;
  double after = 0.0;
};
SyncEdgeCounts sync_edges(const sched::SyncGraph& g) {
  SyncEdgeCounts n;
  for (const sched::SyncEdge& e : g.edges()) {
    if (e.kind == sched::SyncEdgeKind::kSequence) continue;
    if (e.kind != sched::SyncEdgeKind::kResync) n.before += 1.0;
    if (!e.removed) n.after += 1.0;
  }
  return n;
}

/// Per-stage wall times of one staged compile.
struct StageTimes {
  double ms[5] = {0, 0, 0, 0, 0};
};
constexpr const char* kStageNames[5] = {"vts", "schedule", "sync", "protocol", "emit"};

core::ExecutablePlan compile_staged(const Case& c, StageTimes* times) {
  const core::SpiSystemOptions options;
  std::int64_t t = now_ns();
  const auto lap = [&](int stage) {
    const std::int64_t now = now_ns();
    if (times) times->ms[stage] += static_cast<double>(now - t) / 1e6;
    t = now;
  };
  core::VtsStage vts = core::run_vts_stage(c.graph, options);
  lap(0);
  core::ScheduleStage sched = core::run_schedule_stage(vts, c.assignment, options);
  lap(1);
  core::SyncStage sync = core::run_sync_stage(sched, c.assignment, options);
  lap(2);
  core::ProtocolStage protocol = core::run_protocol_stage(vts, sched, sync);
  lap(3);
  core::ExecutablePlan plan = core::plan_emit(c.graph, c.assignment, options, std::move(vts),
                                              std::move(sched), std::move(sync),
                                              std::move(protocol));
  lap(4);
  return plan;
}

/// Plans must validate and be byte-stable through to_json -> from_json.
void check_plan(const core::ExecutablePlan& plan, const std::string& name, Result& result) {
  try {
    plan.validate();
    const std::string json = plan.to_json();
    const core::ExecutablePlan loaded = core::ExecutablePlan::from_json(json);
    if (loaded.to_json() != json) result.fail_check("compile: " + name + " plan JSON not byte-stable");
    if (loaded.content_hash() != plan.content_hash())
      result.fail_check("compile: " + name + " content hash changed through JSON");
  } catch (const std::exception& e) {
    result.fail_check("compile: " + name + " plan invalid: " + e.what());
  }
}

class CompileRun {
 public:
  CompileRun(const RunConfig& config, Result& result) : config_(config), result_(result) {}
  void run();

 private:
  /// Compiles the whole set once; returns seconds. Traced rounds go
  /// through the stage functions one by one and time each.
  double compile_round(bool traced, StageTimes* times, std::vector<core::ExecutablePlan>* keep);
  void plan_load(const std::vector<core::ExecutablePlan>& plans);
  void recompiles(double seconds, bool e2e);

  RunConfig config_;
  Result& result_;
  std::vector<Case> cases_;
  std::vector<core::ExecutablePlan> first_plans_;
  std::size_t actors_ = 0;
};

double CompileRun::compile_round(bool traced, StageTimes* times,
                                 std::vector<core::ExecutablePlan>* keep) {
  double total = 0.0;
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    const Case& c = cases_[i];
    const std::int64_t t0 = now_ns();
    core::ExecutablePlan plan = traced ? compile_staged(c, times)
                                       : core::compile_plan(c.graph, c.assignment);
    total += static_cast<double>(now_ns() - t0) / 1e9;
    ++result_.attempted;
    if (keep) {
      // The kept (first) plans get the full check; later rounds must
      // validate and reproduce them.
      check_plan(plan, c.name, result_);
      keep->push_back(std::move(plan));
      continue;
    }
    try {
      plan.validate();
    } catch (const std::exception& e) {
      result_.fail_check("compile: " + c.name + " plan invalid: " + e.what());
    }
    const core::ExecutablePlan& first = first_plans_[i];
    if (plan.content_hash() != first.content_hash() || plan.channels.size() != first.channels.size() ||
        plan.messages_per_iteration != first.messages_per_iteration ||
        plan.predicted_mcm() != first.predicted_mcm())
      result_.fail_check("compile: " + c.name + " recompiled to a different plan");
  }
  return total;
}

void CompileRun::plan_load(const std::vector<core::ExecutablePlan>& plans) {
  // What POST /plan and --load-plan pay: parse, validate, hash.
  std::vector<std::string> json;
  double bytes = 0.0;
  for (const auto& p : plans) {
    json.push_back(p.to_json());
    bytes += static_cast<double>(json.back().size());
  }
  std::vector<double> load_ms, parse_ms, validate_ms;
  for (int rep = 0; rep < 3; ++rep) {
    double parse = 0.0, validate = 0.0, total = 0.0;
    for (std::size_t i = 0; i < json.size(); ++i) {
      const std::int64_t t0 = now_ns();
      const core::ExecutablePlan plan = core::ExecutablePlan::from_json(json[i]);
      const std::int64_t t1 = now_ns();
      plan.validate();
      const std::int64_t t2 = now_ns();
      const std::uint64_t hash = plan.content_hash();
      const std::int64_t t3 = now_ns();
      if (hash != plans[i].content_hash()) result_.fail_check("plan load: content hash differs");
      parse += static_cast<double>(t1 - t0) / 1e6;
      validate += static_cast<double>(t2 - t1) / 1e6;
      total += static_cast<double>(t3 - t0) / 1e6;
    }
    load_ms.push_back(total);
    parse_ms.push_back(parse);
    validate_ms.push_back(validate);
  }
  result_.details["plan_load_ms"] = {median(load_ms), "ms"};
  result_.layers["plan.json_bytes"] = {bytes, "bytes"};
  result_.layers["plan.from_json_ms"] = {median(parse_ms), "ms"};
  result_.layers["plan.validate_ms"] = {median(validate_ms), "ms"};
}

/// Incremental recompiles after seeded exec-only edits, round-robin over
/// the graph set. A sample is checked against a from-scratch compile.
void CompileRun::recompiles(double seconds, bool e2e) {
  std::vector<std::unique_ptr<core::IncrementalCompiler>> compilers;
  for (const Case& c : cases_) {
    compilers.push_back(std::make_unique<core::IncrementalCompiler>(c.graph, c.assignment));
    compilers.back()->compile();
  }
  Rng rng(sub_seed(config_.seed, 4));
  std::vector<double> latency_us;
  std::int64_t attempted = 0, incremental = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t op = 0; now_ns() < deadline || (e2e && latency_us.size() < 1000); ++op) {
    const std::size_t ci = op % compilers.size();
    core::IncrementalCompiler& inc = *compilers[ci];
    const auto n = static_cast<std::uint64_t>(inc.application().actor_count());
    std::vector<core::ExecUpdate> edits;
    for (int e = 0; e < 2; ++e)
      edits.push_back({static_cast<df::ActorId>(rng.below(n)),
                       3 + static_cast<std::int64_t>(rng.below(25))});
    const std::int64_t t0 = now_ns();
    const core::ExecutablePlan& plan = inc.recompile(edits);
    latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    ++attempted;
    if (inc.last_recompile_incremental()) ++incremental;
    // Off the timed path: every 128th recompile of a graph must equal a
    // full compile of the edited graph, byte for byte.
    if ((op / compilers.size()) % 128 == 0) {
      const core::ExecutablePlan full = core::compile_plan(inc.application(), cases_[ci].assignment);
      if (full.to_json() != plan.to_json())
        result_.fail_check("compile: incremental recompile of " + cases_[ci].name +
                           " differs from a full compile");
    }
  }
  result_.attempted += attempted;
  const Summary s = summarize(latency_us);
  if (e2e) {
    // Medians over chunks of 12 rounds over the graph set (108 ops).
    const Chunked c = chunked(latency_us, 12 * cases_.size());
    result_.e2e["latency_p50_us"] = {c.p50, "us"};
    result_.e2e["latency_p90_us"] = {c.p90, "us"};
    result_.details["recompile_us.chunks"] = {static_cast<double>(c.chunks), "count"};
    result_.details["recompile_ms"] = {s.p50.value_or(0.0) / 1e3, "ms"};
  }
  Result::put_summary(result_.details, "recompile_us", s, "us");
  result_.layers["compile.incremental_ratio"] = {
      static_cast<double>(incremental) / static_cast<double>(attempted), "ratio"};
}

void CompileRun::run() {
  // setup_s: building the seeded graph set through the dataflow API.
  std::vector<double> setup_s;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    cases_ = make_cases(config_.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  result_.e2e["setup_s"] = {median(setup_s), "s"};
  actors_ = 0;
  for (const Case& c : cases_) actors_ += c.graph.actor_count();
  result_.details["graphs"] = {static_cast<double>(cases_.size()), "count"};
  result_.details["actors"] = {static_cast<double>(actors_), "count"};

  (void)compile_round(false, nullptr, &first_plans_);  // warm-up, fully checked
  const std::vector<core::ExecutablePlan>& plans = first_plans_;
  const double T = config_.seconds;

  if (!config_.trace) {
    std::vector<double> rounds;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(0.3 * T * 1e9);
    while (rounds.size() < 3 || now_ns() < deadline) rounds.push_back(compile_round(false, nullptr, nullptr));
    const double compile_s = median(rounds).value_or(0.0);
    result_.details["compile_s"] = {compile_s, "s"};
    result_.e2e["throughput_per_s"] = {compile_s > 0.0 ? std::optional<double>(
                                                            static_cast<double>(actors_) / compile_s)
                                                      : std::nullopt,
                                       "1/s"};
    recompiles(0.4 * T, true);
    return;
  }

  // Traced: untraced and stage-timed rounds alternate; the traced
  // rounds give the stage split, their difference the overhead.
  std::vector<double> bare, traced;
  std::vector<StageTimes> stage_rounds;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(0.45 * T * 1e9);
  while (bare.size() < 2 || now_ns() < deadline) {
    bare.push_back(compile_round(false, nullptr, nullptr));
    StageTimes times;
    traced.push_back(compile_round(true, &times, nullptr));
    stage_rounds.push_back(times);
  }
  const double b = median(bare).value_or(0.0), t = median(traced).value_or(0.0);
  result_.layers["trace_overhead_pct"] = {b > 0.0 ? 100.0 * (t - b) / b : 0.0, "%"};
  for (int k = 0; k < 5; ++k) {
    std::vector<double> ms;
    for (const StageTimes& st : stage_rounds) ms.push_back(st.ms[k]);
    result_.layers[std::string("compile.") + kStageNames[k] + "_ms"] = {median(ms), "ms"};
  }
  SyncEdgeCounts edges;
  for (const core::ExecutablePlan& p : plans) {
    const SyncEdgeCounts n = sync_edges(p.sync_graph);
    edges.before += n.before;
    edges.after += n.after;
  }
  result_.layers["sched.sync_edges_before"] = {edges.before, "count"};
  result_.layers["sched.sync_edges_after"] = {edges.after, "count"};
  plan_load(plans);
  recompiles(0.3 * T, false);
}

}  // namespace

void run_compile(const RunConfig& config, Result& result) { CompileRun(config, result).run(); }

}  // namespace perfbench
