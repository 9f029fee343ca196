#include "obs/critical_path.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <tuple>

#include "obs/json.hpp"

namespace spi::obs {

namespace {

using Kind = CriticalSegment::Kind;

/// Non-overlapping activity interval on one processor. Blocks recorded
/// inside a firing split the firing's compute time around them, so the
/// per-proc timeline is a flat, sorted, gap-possible sequence.
struct Interval {
  enum class What { kCompute, kConsumerBlock, kProducerBlock };
  std::int64_t begin = 0;
  std::int64_t end = 0;
  What what = What::kCompute;
  std::int32_t actor = -1;
  std::int32_t edge = -1;
  std::int64_t iteration = -1;
  std::int64_t unblock_seq = -1;  ///< consumer block: seq of the message that freed it
};

struct Point {
  std::int64_t t = 0;
  std::int64_t seq = 0;
  std::int32_t edge = -1;
  std::int32_t aux = 0;
};

struct ProcTimeline {
  std::vector<Interval> intervals;  ///< sorted by begin
  /// Whole FireBegin..FireEnd spans, one per completed firing (the
  /// compute intervals above are split around waits).
  std::vector<Interval> firings;
  std::vector<Point> receives;      ///< sorted by t
  std::vector<Point> sends;         ///< sorted by t
};

struct SendInfo {
  std::int64_t t = 0;
  std::int32_t proc = -1;
};

using MsgKey = std::tuple<std::int32_t, std::int32_t, std::int64_t>;  // (edge, aux, seq)

struct Flattened {
  std::vector<ProcTimeline> procs;
  std::map<MsgKey, SendInfo> send_of;
  std::map<std::int32_t, std::int32_t> receiver_proc;  ///< edge -> consumer proc
  std::map<std::int64_t, std::int64_t> iter_begin;     ///< iteration -> first FireBegin
  std::map<std::int64_t, std::int64_t> iter_complete;  ///< iteration -> last FireEnd
  std::int64_t t_first = 0;  ///< earliest FireBegin (fallback: earliest event)
  std::int64_t t_end = 0;    ///< latest FireEnd (fallback: latest event)
  std::int32_t end_proc = 0;
  bool any_event = false;
};

Flattened flatten(const FlightLog& log) {
  Flattened f;
  f.procs.resize(static_cast<std::size_t>(log.proc_count));

  std::vector<std::vector<FlightEvent>> per_proc(static_cast<std::size_t>(log.proc_count));
  for (const FlightEvent& e : log.events) {
    if (e.proc < 0 || e.proc >= log.proc_count)
      throw std::invalid_argument("analyze_critical_path: event proc out of range");
    per_proc[static_cast<std::size_t>(e.proc)].push_back(e);
  }

  bool saw_fire_begin = false, saw_fire_end = false;
  std::int64_t min_fire_begin = 0, max_fire_end = 0, min_any = 0, max_any = 0;

  for (std::int32_t p = 0; p < log.proc_count; ++p) {
    auto& events = per_proc[static_cast<std::size_t>(p)];
    std::stable_sort(events.begin(), events.end(),
                     [](const FlightEvent& a, const FlightEvent& b) { return a.t < b.t; });
    ProcTimeline& tl = f.procs[static_cast<std::size_t>(p)];

    bool in_fire = false, in_block = false;
    std::int64_t seg_begin = 0, block_begin = 0, fire_begin = 0;
    std::int32_t fire_actor = -1, block_edge = -1, block_side = 0;
    std::int64_t fire_iter = -1;

    auto close_compute = [&](std::int64_t t) {
      if (in_fire && t > seg_begin)
        tl.intervals.push_back({seg_begin, t, Interval::What::kCompute, fire_actor, -1, fire_iter, -1});
    };

    for (const FlightEvent& e : events) {
      if (!f.any_event) {
        min_any = max_any = e.t;
        f.any_event = true;
      }
      min_any = std::min(min_any, e.t);
      max_any = std::max(max_any, e.t);

      switch (e.kind) {
        case FlightEventKind::kFireBegin:
          close_compute(e.t);  // tolerate a lost FireEnd
          in_fire = true;
          seg_begin = fire_begin = e.t;
          fire_actor = e.actor;
          fire_iter = e.iteration;
          if (!saw_fire_begin || e.t < min_fire_begin) min_fire_begin = e.t;
          saw_fire_begin = true;
          if (e.iteration >= 0) {
            auto [it, inserted] = f.iter_begin.try_emplace(e.iteration, e.t);
            if (!inserted) it->second = std::min(it->second, e.t);
          }
          break;
        case FlightEventKind::kFireEnd: {
          close_compute(e.t);
          if (in_fire)
            tl.firings.push_back(
                {fire_begin, e.t, Interval::What::kCompute, fire_actor, -1, fire_iter, -1});
          in_fire = false;
          if (!saw_fire_end || e.t > max_fire_end) {
            max_fire_end = e.t;
            f.end_proc = p;
          }
          saw_fire_end = true;
          auto [it, inserted] = f.iter_complete.try_emplace(e.iteration, e.t);
          if (!inserted) it->second = std::max(it->second, e.t);
          break;
        }
        case FlightEventKind::kBlockBegin:
          close_compute(e.t);
          in_block = true;
          block_begin = e.t;
          block_edge = e.edge;
          block_side = e.aux;
          break;
        case FlightEventKind::kBlockEnd:
          if (in_block) {
            const auto what =
                block_side == 0 ? Interval::What::kConsumerBlock : Interval::What::kProducerBlock;
            if (e.t > block_begin)
              tl.intervals.push_back({block_begin, e.t, what, fire_actor, block_edge,
                                      in_fire ? fire_iter : std::int64_t{-1}, e.seq});
            in_block = false;
            if (in_fire) seg_begin = e.t;  // compute resumes after the wait
          }
          break;
        case FlightEventKind::kSend:
          tl.sends.push_back({e.t, e.seq, e.edge, e.aux});
          f.send_of[{e.edge, e.aux, e.seq}] = {e.t, p};
          break;
        case FlightEventKind::kReceive:
          tl.receives.push_back({e.t, e.seq, e.edge, e.aux});
          f.receiver_proc.emplace(e.edge, p);
          break;
        case FlightEventKind::kRetry:
          break;  // counted by the reliable-transport metrics, not causal
        case FlightEventKind::kBatchBegin:
        case FlightEventKind::kBatchEnd:
          break;  // serve batch markers: correlation only, not causal
      }
    }
    // Unclosed pairs (ring overflow or a crashed worker) are dropped:
    // the walk tolerates the resulting hole as idle time.
    std::stable_sort(tl.intervals.begin(), tl.intervals.end(),
                     [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  }

  f.t_first = saw_fire_begin ? min_fire_begin : min_any;
  f.t_end = saw_fire_end ? max_fire_end : max_any;
  if (!saw_fire_end) {
    for (std::int32_t p = 0; p < log.proc_count; ++p)
      for (const FlightEvent& e : per_proc[static_cast<std::size_t>(p)])
        if (e.t == max_any) f.end_proc = p;
  }
  return f;
}

/// Latest interval on `tl` with begin < t, or nullptr.
const Interval* interval_before(const ProcTimeline& tl, std::int64_t t) {
  auto it = std::upper_bound(tl.intervals.begin(), tl.intervals.end(), t,
                             [](std::int64_t v, const Interval& i) { return v <= i.begin; });
  if (it == tl.intervals.begin()) return nullptr;
  return &*std::prev(it);
}

/// Latest point in `points` with lo < point.t <= hi, or nullptr.
const Point* latest_point_in(const std::vector<Point>& points, std::int64_t lo, std::int64_t hi) {
  auto it = std::upper_bound(points.begin(), points.end(), hi,
                             [](std::int64_t v, const Point& p) { return v < p.t; });
  if (it == points.begin()) return nullptr;
  const Point* p = &*std::prev(it);
  return p->t > lo ? p : nullptr;
}

std::string name_or(const std::vector<std::string>& names, std::int32_t id, const char* prefix) {
  if (id >= 0 && static_cast<std::size_t>(id) < names.size() && !names[static_cast<std::size_t>(id)].empty())
    return names[static_cast<std::size_t>(id)];
  return std::string(prefix) + std::to_string(id);
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCompute: return "compute";
    case Kind::kBlocked: return "blocked";
    case Kind::kComm: return "comm";
    case Kind::kIdle: return "idle";
  }
  return "?";
}

}  // namespace

CriticalPathReport analyze_critical_path(const FlightLog& log, const AnalyzeOptions& options) {
  CriticalPathReport report;
  report.time_unit = log.time_unit;
  report.proc_count = log.proc_count;
  report.events = static_cast<std::int64_t>(log.events.size());
  report.dropped = log.dropped;
  report.predicted_mcm = options.predicted_mcm > 0 ? options.predicted_mcm * options.mcm_scale : 0.0;
  if (log.proc_count <= 0 || log.events.empty()) return report;

  Flattened f = flatten(log);
  report.t_first = f.t_first;
  report.t_last = f.t_end;

  // --- per-channel / per-actor aggregation over ALL processors --------
  std::map<std::int32_t, ChannelAttribution> channels;
  std::map<std::int32_t, ActorAttribution> actors;
  auto channel = [&](std::int32_t edge) -> ChannelAttribution& {
    auto [it, inserted] = channels.try_emplace(edge);
    if (inserted) {
      it->second.edge = edge;
      it->second.name = name_or(log.edge_names, edge, "edge");
    }
    return it->second;
  };
  auto actor_of = [&](std::int32_t id) -> ActorAttribution& {
    auto [it, inserted] = actors.try_emplace(id);
    if (inserted) {
      it->second.actor = id;
      it->second.name = name_or(log.actor_names, id, "actor");
    }
    return it->second;
  };
  for (const ProcTimeline& tl : f.procs) {
    for (const Interval& iv : tl.intervals) {
      switch (iv.what) {
        case Interval::What::kCompute: {
          ActorAttribution& a = actor_of(iv.actor);
          a.compute += iv.end - iv.begin;
          break;
        }
        case Interval::What::kConsumerBlock:
          channel(iv.edge).consumer_blocked += iv.end - iv.begin;
          break;
        case Interval::What::kProducerBlock:
          channel(iv.edge).producer_blocked += iv.end - iv.begin;
          break;
      }
    }
    for (const Point& r : tl.receives) channel(r.edge).messages += 1;
  }
  // Count firings from the raw events (compute intervals may be split
  // around blocks, so counting intervals would over-count).
  for (const FlightEvent& e : log.events)
    if (e.kind == FlightEventKind::kFireBegin) actor_of(e.actor).firings += 1;

  // --- realized iteration period --------------------------------------
  std::vector<std::int64_t> completions;
  completions.reserve(f.iter_complete.size());
  for (const auto& [iter, t] : f.iter_complete) completions.push_back(t);
  report.iterations_observed = static_cast<std::int64_t>(completions.size());
  if (completions.size() >= 2) {
    const std::size_t n = completions.size();
    report.realized_period_avg =
        static_cast<double>(completions[n - 1] - completions[0]) / static_cast<double>(n - 1);
    const std::size_t h = n / 2;
    if (n - 1 > h)
      report.realized_period_steady = static_cast<double>(completions[n - 1] - completions[h]) /
                                      static_cast<double>(n - 1 - h);
    else
      report.realized_period_steady = report.realized_period_avg;
  }
  if (report.predicted_mcm > 0 && report.realized_period_steady > 0)
    report.period_ratio = report.realized_period_steady / report.predicted_mcm;

  // --- observed cross-iteration pipelining depth -----------------------
  // An iteration is "open" from its first FireBegin to its last FireEnd;
  // the max number simultaneously open is the realized pipelining depth
  // (1 = barriered/sequential execution, >1 = overlapped iterations).
  {
    std::vector<std::pair<std::int64_t, int>> marks;
    marks.reserve(2 * f.iter_begin.size());
    for (const auto& [iter, t0] : f.iter_begin) {
      auto it = f.iter_complete.find(iter);
      marks.emplace_back(t0, +1);
      marks.emplace_back(it != f.iter_complete.end() ? it->second : f.t_end, -1);
    }
    // At equal timestamps the -1 sorts first: an iteration completing at
    // the very instant the next begins is sequential, not overlap.
    std::sort(marks.begin(), marks.end());
    std::int64_t open = 0;
    for (const auto& [t, d] : marks) {
      open += d;
      report.pipelined_iterations_max = std::max(report.pipelined_iterations_max, open);
    }
  }

  // --- backward-tiling critical-path walk ------------------------------
  //
  // Invariant: every emitted segment's top equals the previous cursor
  // time and its bottom becomes the new cursor time, so the reversed
  // segment list tiles [t_first, t_end] exactly and cp_length equals
  // t_end - t_first by construction.
  std::vector<CriticalSegment> segments;  // reverse chronological
  std::int32_t cur_proc = f.end_proc;
  std::int64_t cur_t = f.t_end;
  const std::int64_t max_steps = 4 * static_cast<std::int64_t>(log.events.size()) + 64;
  std::int64_t steps = 0;

  auto emit = [&](Kind kind, std::int64_t begin, std::int64_t end, std::int32_t proc,
                  std::int32_t actor, std::int32_t edge, std::int64_t iteration) {
    if (end > begin)
      segments.push_back({kind, begin, end, proc, actor, edge, iteration});
  };

  while (cur_t > f.t_first && steps++ < max_steps) {
    const ProcTimeline& tl = f.procs[static_cast<std::size_t>(cur_proc)];
    const Interval* iv = interval_before(tl, cur_t);

    if (iv != nullptr && iv->end >= cur_t) {
      // Inside (or ending exactly at) an activity interval.
      switch (iv->what) {
        case Interval::What::kCompute:
          emit(Kind::kCompute, iv->begin, cur_t, cur_proc, iv->actor, -1, iv->iteration);
          actor_of(iv->actor).cp_compute += cur_t - iv->begin;
          cur_t = iv->begin;
          break;
        case Interval::What::kConsumerBlock: {
          // The wait ended when message (edge, seq) became visible; the
          // path continues on the sender at its send time. Data sends
          // use aux stream 0 in every engine that records blocks.
          auto it = f.send_of.find({iv->edge, 0, iv->unblock_seq});
          if (it != f.send_of.end() && it->second.t <= cur_t) {
            emit(Kind::kComm, it->second.t, cur_t, cur_proc, -1, iv->edge, iv->iteration);
            channel(iv->edge).cp_comm += cur_t - it->second.t;
            cur_proc = it->second.proc;
            cur_t = it->second.t;
          } else {
            emit(Kind::kBlocked, iv->begin, cur_t, cur_proc, -1, iv->edge, iv->iteration);
            channel(iv->edge).cp_blocked += cur_t - iv->begin;
            cur_t = iv->begin;
          }
          break;
        }
        case Interval::What::kProducerBlock: {
          // Back-pressure: the channel was full, so the bottleneck is
          // the consumer's history — continue on its processor.
          emit(Kind::kBlocked, iv->begin, cur_t, cur_proc, -1, iv->edge, iv->iteration);
          channel(iv->edge).cp_blocked += cur_t - iv->begin;
          auto it = f.receiver_proc.find(iv->edge);
          if (it != f.receiver_proc.end()) cur_proc = it->second;
          cur_t = iv->begin;
          break;
        }
      }
      continue;
    }

    // Gap (b, cur_t] with no recorded interval.
    const std::int64_t b = iv != nullptr ? iv->end : f.t_first;
    const Point* r = latest_point_in(tl.receives, b, cur_t);
    if (r != nullptr) {
      if (r->t == cur_t) {
        auto it = f.send_of.find({r->edge, r->aux, r->seq});
        if (it != f.send_of.end() && it->second.t <= cur_t) {
          // The gap ended with an arrival: in-flight window is critical.
          emit(Kind::kComm, it->second.t, cur_t, cur_proc, -1, r->edge, -1);
          channel(r->edge).cp_comm += cur_t - it->second.t;
          cur_proc = it->second.proc;
          cur_t = it->second.t;
        } else {
          emit(Kind::kIdle, b, cur_t, cur_proc, -1, -1, -1);
          cur_t = b;
        }
      } else {
        emit(Kind::kIdle, r->t, cur_t, cur_proc, -1, -1, -1);
        cur_t = r->t;
      }
      continue;
    }
    const Point* s = latest_point_in(tl.sends, b, cur_t);
    if (s != nullptr) {
      if (s->t == cur_t) {
        // Post-firing serialization window (timed simulator: the PE is
        // busy putting messages on the wire between firings).
        emit(Kind::kComm, b, cur_t, cur_proc, -1, s->edge, -1);
        channel(s->edge).cp_comm += cur_t - b;
        cur_t = b;
      } else {
        emit(Kind::kIdle, s->t, cur_t, cur_proc, -1, -1, -1);
        cur_t = s->t;
      }
      continue;
    }
    emit(Kind::kIdle, b, cur_t, cur_proc, -1, -1, -1);
    cur_t = b;
  }
  if (cur_t > f.t_first) {
    // Step cap hit (degenerate same-timestamp cycle): keep the tiling
    // invariant so the breakdown still sums to cp_length.
    emit(Kind::kIdle, f.t_first, cur_t, cur_proc, -1, -1, -1);
  }

  std::reverse(segments.begin(), segments.end());
  report.segments = std::move(segments);
  report.cp_length = f.t_end - f.t_first;
  for (const CriticalSegment& seg : report.segments) {
    switch (seg.kind) {
      case Kind::kCompute: report.cp_compute += seg.duration(); break;
      case Kind::kBlocked: report.cp_blocked += seg.duration(); break;
      case Kind::kComm: report.cp_comm += seg.duration(); break;
      case Kind::kIdle: report.cp_idle += seg.duration(); break;
    }
  }

  // --- ranked attributions + bottleneck headline -----------------------
  report.channels.reserve(channels.size());
  for (auto& [edge, attr] : channels) report.channels.push_back(std::move(attr));
  std::stable_sort(report.channels.begin(), report.channels.end(),
                   [](const ChannelAttribution& a, const ChannelAttribution& b) {
                     return a.producer_blocked + a.consumer_blocked >
                            b.producer_blocked + b.consumer_blocked;
                   });
  report.actors.reserve(actors.size());
  for (auto& [id, attr] : actors) report.actors.push_back(std::move(attr));
  std::stable_sort(report.actors.begin(), report.actors.end(),
                   [](const ActorAttribution& a, const ActorAttribution& b) {
                     return a.cp_compute > b.cp_compute;
                   });
  std::int64_t best = 0;
  for (const ChannelAttribution& c : report.channels) {
    const std::int64_t on_path = c.cp_blocked + c.cp_comm;
    if (on_path > best) {
      best = on_path;
      report.bottleneck_edge = c.edge;
      report.bottleneck_channel = c.name;
    }
  }
  return report;
}

// --- report serialization -------------------------------------------------

std::string CriticalPathReport::to_json() const {
  std::string out;
  out += "{\"schema\":1,\"time_unit\":\"";
  json::append_escaped(out, time_unit);
  out += "\",\"proc_count\":" + std::to_string(proc_count);
  out += ",\"events\":" + std::to_string(events);
  out += ",\"dropped\":" + std::to_string(dropped);
  out += ",\"t_first\":" + std::to_string(t_first);
  out += ",\"t_last\":" + std::to_string(t_last);
  out += ",\"cp_length\":" + std::to_string(cp_length);
  out += ",\"cp_compute\":" + std::to_string(cp_compute);
  out += ",\"cp_blocked\":" + std::to_string(cp_blocked);
  out += ",\"cp_comm\":" + std::to_string(cp_comm);
  out += ",\"cp_idle\":" + std::to_string(cp_idle);
  out += ",\"iterations_observed\":" + std::to_string(iterations_observed);
  out += ",\"pipelined_iterations_max\":" + std::to_string(pipelined_iterations_max);
  out += ",\"realized_period_avg\":";
  append_double(out, realized_period_avg);
  out += ",\"realized_period_steady\":";
  append_double(out, realized_period_steady);
  out += ",\"predicted_mcm\":";
  append_double(out, predicted_mcm);
  out += ",\"period_ratio\":";
  append_double(out, period_ratio);
  out += ",\"bottleneck_edge\":" + std::to_string(bottleneck_edge);
  out += ",\"bottleneck_channel\":\"";
  json::append_escaped(out, bottleneck_channel);
  out += "\",\n\"channels\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelAttribution& c = channels[i];
    if (i) out += ",";
    out += "\n{\"edge\":" + std::to_string(c.edge) + ",\"name\":\"";
    json::append_escaped(out, c.name);
    out += "\",\"producer_blocked\":" + std::to_string(c.producer_blocked);
    out += ",\"consumer_blocked\":" + std::to_string(c.consumer_blocked);
    out += ",\"cp_blocked\":" + std::to_string(c.cp_blocked);
    out += ",\"cp_comm\":" + std::to_string(c.cp_comm);
    out += ",\"messages\":" + std::to_string(c.messages) + "}";
  }
  out += "],\n\"actors\":[";
  for (std::size_t i = 0; i < actors.size(); ++i) {
    const ActorAttribution& a = actors[i];
    if (i) out += ",";
    out += "\n{\"actor\":" + std::to_string(a.actor) + ",\"name\":\"";
    json::append_escaped(out, a.name);
    out += "\",\"compute\":" + std::to_string(a.compute);
    out += ",\"cp_compute\":" + std::to_string(a.cp_compute);
    out += ",\"firings\":" + std::to_string(a.firings) + "}";
  }
  out += "],\n\"segments\":[";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const CriticalSegment& s = segments[i];
    if (i) out += ",";
    out += "\n{\"kind\":\"";
    out += kind_name(s.kind);
    out += "\",\"begin\":" + std::to_string(s.begin);
    out += ",\"end\":" + std::to_string(s.end);
    out += ",\"proc\":" + std::to_string(s.proc);
    out += ",\"actor\":" + std::to_string(s.actor);
    out += ",\"edge\":" + std::to_string(s.edge);
    out += ",\"iteration\":" + std::to_string(s.iteration) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string CriticalPathReport::to_chrome_trace_json(const FlightLog& log) const {
  // Chrome trace timestamps are microseconds; modeled "cycles" map 1:1.
  const double div = log.time_unit == "ns" ? 1000.0 : 1.0;
  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  auto item = [&]() -> std::string& {
    if (!first) out += ",";
    first = false;
    out += "\n";
    return out;
  };
  item() += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"spi flight\"}}";
  for (std::int32_t p = 0; p < log.proc_count; ++p) {
    item() += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(p) +
              ",\"args\":{\"name\":\"proc " + std::to_string(p) + "\"}}";
  }
  item() += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
            std::to_string(log.proc_count) + ",\"args\":{\"name\":\"critical path\"}}";

  // Processor slices: one per firing, with its waits nested inside,
  // merged into one time-sorted stream (ties by proc, firing before the
  // wait it encloses) so the trace diffs stably and reads chronologically.
  Flattened f = flatten(log);
  std::vector<std::pair<std::int32_t, const Interval*>> slices;
  for (std::int32_t p = 0; p < log.proc_count; ++p) {
    const ProcTimeline& tl = f.procs[static_cast<std::size_t>(p)];
    for (const Interval& iv : tl.firings) slices.emplace_back(p, &iv);
    for (const Interval& iv : tl.intervals)
      if (iv.what != Interval::What::kCompute) slices.emplace_back(p, &iv);
  }
  std::stable_sort(slices.begin(), slices.end(), [](const auto& a, const auto& b) {
    return std::tie(a.second->begin, a.first) < std::tie(b.second->begin, b.first);
  });
  for (const auto& [p, slice] : slices) {
    const Interval& iv = *slice;
    std::string name;
    const char* cat = "firing";
    if (iv.what == Interval::What::kCompute) {
      name = name_or(log.actor_names, iv.actor, "actor");
    } else {
      cat = "wait";
      name = "wait " + name_or(log.edge_names, iv.edge, "edge");
    }
    std::string& o = item();
    o += "{\"name\":\"";
    json::append_escaped(o, name);
    o += "\",\"cat\":\"";
    o += cat;
    o += "\",\"ph\":\"X\",\"ts\":";
    append_double(o, static_cast<double>(iv.begin) / div);
    o += ",\"dur\":";
    append_double(o, static_cast<double>(iv.end - iv.begin) / div);
    o += ",\"pid\":0,\"tid\":" + std::to_string(p);
    o += ",\"args\":{\"iteration\":" + std::to_string(iv.iteration) + "}}";
  }
  for (const CriticalSegment& s : segments) {
    std::string& o = item();
    o += "{\"name\":\"cp:";
    o += kind_name(s.kind);
    o += "\",\"cat\":\"critical-path\",\"ph\":\"X\",\"ts\":";
    append_double(o, static_cast<double>(s.begin) / div);
    o += ",\"dur\":";
    append_double(o, static_cast<double>(s.end - s.begin) / div);
    o += ",\"pid\":0,\"tid\":" + std::to_string(log.proc_count);
    o += ",\"args\":{\"proc\":" + std::to_string(s.proc) + ",\"actor\":" + std::to_string(s.actor) +
         ",\"edge\":" + std::to_string(s.edge) + "}}";
  }
  // Flow arrows across processor hops of the path (segments tile time:
  // seg[k].end == seg[k+1].begin).
  std::int64_t flow_id = 0;
  for (std::size_t k = 0; k + 1 < segments.size(); ++k) {
    if (segments[k].proc == segments[k + 1].proc) continue;
    std::string& o1 = item();
    o1 += "{\"name\":\"critpath\",\"cat\":\"critical-path\",\"ph\":\"s\",\"id\":" +
          std::to_string(flow_id) + ",\"ts\":";
    append_double(o1, static_cast<double>(segments[k].end) / div);
    o1 += ",\"pid\":0,\"tid\":" + std::to_string(segments[k].proc) + "}";
    std::string& o2 = item();
    o2 += "{\"name\":\"critpath\",\"cat\":\"critical-path\",\"ph\":\"t\",\"id\":" +
          std::to_string(flow_id) + ",\"ts\":";
    append_double(o2, static_cast<double>(segments[k + 1].begin) / div);
    o2 += ",\"pid\":0,\"tid\":" + std::to_string(segments[k + 1].proc) + "}";
    ++flow_id;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void CriticalPathReport::publish_metrics(MetricRegistry& registry) const {
  auto set = [&](const char* name, const char* help, double v) {
    registry.gauge(name, {}, help).set(v);
  };
  set("spi_critpath_length", "Realized critical-path length (== makespan over the event window)",
      static_cast<double>(cp_length));
  set("spi_critpath_compute", "Critical-path time inside actor firings",
      static_cast<double>(cp_compute));
  set("spi_critpath_blocked", "Critical-path time blocked on channels",
      static_cast<double>(cp_blocked));
  set("spi_critpath_comm", "Critical-path time in message flight / serialization",
      static_cast<double>(cp_comm));
  set("spi_critpath_idle", "Critical-path time with no recorded activity",
      static_cast<double>(cp_idle));
  set("spi_critpath_events", "Flight-recorder events analyzed", static_cast<double>(events));
  set("spi_critpath_dropped", "Flight-recorder events lost to ring overflow",
      static_cast<double>(dropped));
  set("spi_critpath_iterations", "Graph iterations observed in the event stream",
      static_cast<double>(iterations_observed));
  set("spi_critpath_pipelined_iterations_max",
      "Max iterations simultaneously in flight (realized pipelining depth)",
      static_cast<double>(pipelined_iterations_max));
  set("spi_critpath_realized_period_avg", "Mean realized iteration period",
      realized_period_avg);
  set("spi_critpath_realized_period_steady",
      "Steady-state realized iteration period (second-half slope)", realized_period_steady);
  set("spi_critpath_predicted_mcm",
      "Plan-predicted iteration-period bound (sync-graph MCM), log units", predicted_mcm);
  set("spi_critpath_period_ratio", "Realized steady period / predicted MCM", period_ratio);
  set("spi_critpath_bottleneck_edge",
      "Edge id with the most critical-path blocked+comm time (-1 = compute-bound)",
      static_cast<double>(bottleneck_edge));
  for (const ChannelAttribution& c : channels) {
    registry
        .gauge("spi_critpath_channel_blocked", {{"channel", c.name}},
               "Blocked time attributed to this channel, all processors")
        .set(static_cast<double>(c.producer_blocked + c.consumer_blocked));
    registry
        .gauge("spi_critpath_channel_on_path", {{"channel", c.name}},
               "Critical-path blocked+comm time attributed to this channel")
        .set(static_cast<double>(c.cp_blocked + c.cp_comm));
  }
  for (const ActorAttribution& a : actors) {
    registry
        .gauge("spi_critpath_actor_compute", {{"actor", a.name}},
               "Critical-path compute time attributed to this actor")
        .set(static_cast<double>(a.cp_compute));
  }
}

}  // namespace spi::obs
