#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace spi::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// --- FlightRing ----------------------------------------------------------

FlightRing::FlightRing(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(2, capacity))), mask_(slots_.size() - 1) {}

bool FlightRing::try_push(const FlightEvent& event) noexcept {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail - head >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[static_cast<std::size_t>(tail) & mask_] = event;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

void FlightRing::drain(std::vector<FlightEvent>& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  std::uint64_t head = head_.load(std::memory_order_relaxed);
  out.reserve(out.size() + static_cast<std::size_t>(tail - head));
  for (; head != tail; ++head) out.push_back(slots_[static_cast<std::size_t>(head) & mask_]);
  head_.store(head, std::memory_order_release);
}

// --- FlightRecorder ------------------------------------------------------

FlightRecorder::FlightRecorder(std::int32_t proc_count, std::size_t ring_capacity)
    : epoch_ns_(monotonic_ns()) {
  if (proc_count <= 0)
    throw std::invalid_argument("FlightRecorder: proc_count must be positive");
  rings_.reserve(static_cast<std::size_t>(proc_count));
  for (std::int32_t p = 0; p < proc_count; ++p)
    rings_.push_back(std::make_unique<FlightRing>(ring_capacity));
}

std::int64_t FlightRecorder::now_ns() const { return monotonic_ns() - epoch_ns_; }

void FlightRecorder::record(std::int32_t proc, FlightEventKind kind, std::int32_t actor,
                            std::int32_t edge, std::int64_t seq, std::int64_t iteration,
                            std::int32_t aux) noexcept {
  if (!armed_.load(std::memory_order_relaxed)) return;
  if (proc < 0 || static_cast<std::size_t>(proc) >= rings_.size()) return;
  FlightEvent e;
  e.t = now_ns();
  e.seq = seq;
  e.iteration = iteration;
  e.proc = proc;
  e.actor = actor;
  e.edge = edge;
  e.aux = aux;
  e.kind = kind;
  rings_[static_cast<std::size_t>(proc)]->try_push(e);
}

void FlightRecorder::set_names(std::vector<std::string> actor_names,
                               std::vector<std::string> edge_names) {
  actor_names_ = std::move(actor_names);
  edge_names_ = std::move(edge_names);
}

FlightLog FlightRecorder::collect() {
  FlightLog log;
  log.time_unit = time_unit_;
  log.proc_count = proc_count();
  log.actor_names = actor_names_;
  log.edge_names = edge_names_;
  for (auto& ring : rings_) ring->drain(log.events);
  log.dropped = dropped_total();
  collected_ += static_cast<std::int64_t>(log.events.size());
  return log;
}

std::int64_t FlightRecorder::dropped_total() const {
  std::int64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

void FlightRecorder::publish_metrics(MetricRegistry& registry) const {
  registry
      .gauge("spi_flight_events_recorded", {},
             "Flight-recorder events collected from the per-thread rings")
      .set(static_cast<double>(collected_));
  registry
      .gauge("spi_flight_events_dropped", {},
             "Flight-recorder events lost to ring overflow (never silent)")
      .set(static_cast<double>(dropped_total()));
}

// --- FlightLog JSON ------------------------------------------------------

std::string FlightLog::to_json() const {
  std::ostringstream out;
  out << "{\"schema\":" << kSchemaVersion << ",\"time_unit\":\"" << json::escaped(time_unit)
      << "\",\"proc_count\":" << proc_count << ",\"dropped\":" << dropped
      << ",\n\"actor_names\":[";
  for (std::size_t i = 0; i < actor_names.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json::escaped(actor_names[i]) << "\"";
  }
  out << "],\n\"edge_names\":[";
  for (std::size_t i = 0; i < edge_names.size(); ++i) {
    if (i) out << ",";
    out << "\"" << json::escaped(edge_names[i]) << "\"";
  }
  out << "],\n\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i) out << ",";
    out << "\n{\"k\":" << static_cast<int>(e.kind) << ",\"t\":" << e.t << ",\"p\":" << e.proc
        << ",\"a\":" << e.actor << ",\"e\":" << e.edge << ",\"s\":" << e.seq
        << ",\"i\":" << e.iteration << ",\"x\":" << e.aux << "}";
  }
  out << "\n]}\n";
  return out.str();
}

FlightLog FlightLog::from_json(std::string_view text) {
  // Streams through the reader: a 64 Ki-event-per-proc dump never
  // becomes a DOM.
  json::Reader r(text);
  FlightLog log;
  std::string key;
  std::string field;
  r.begin_object();
  while (r.next_member(key)) {
    if (key == "schema") {
      const std::int64_t schema = r.integer<std::int64_t>();
      if (schema != kSchemaVersion)
        throw std::invalid_argument("FlightLog::from_json: unsupported schema version " +
                                    std::to_string(schema));
    } else if (key == "time_unit") {
      r.string(log.time_unit);
    } else if (key == "proc_count") {
      log.proc_count = r.integer<std::int32_t>();
    } else if (key == "dropped") {
      log.dropped = r.integer<std::int64_t>();
    } else if (key == "actor_names" || key == "edge_names") {
      std::vector<std::string>& names = key[0] == 'a' ? log.actor_names : log.edge_names;
      r.begin_array();
      while (r.next_element()) names.push_back(r.string());
    } else if (key == "events") {
      r.begin_array();
      while (r.next_element()) {
        FlightEvent e;
        r.begin_object();
        while (r.next_member(field)) {
          if (field == "k") {
            const auto k = r.integer<std::int32_t>();
            if (k < 0 || k > static_cast<std::int32_t>(FlightEventKind::kBatchEnd))
              r.fail("unknown event kind " + std::to_string(k));
            e.kind = static_cast<FlightEventKind>(k);
          } else if (field == "t") {
            e.t = r.integer<std::int64_t>();
          } else if (field == "p") {
            e.proc = r.integer<std::int32_t>();
          } else if (field == "a") {
            e.actor = r.integer<std::int32_t>();
          } else if (field == "e") {
            e.edge = r.integer<std::int32_t>();
          } else if (field == "s") {
            e.seq = r.integer<std::int64_t>();
          } else if (field == "i") {
            e.iteration = r.integer<std::int64_t>();
          } else if (field == "x") {
            e.aux = r.integer<std::int32_t>();
          } else {
            r.fail("unknown event field '" + field + "'");
          }
        }
        log.events.push_back(e);
      }
    } else {
      r.fail("unknown key '" + key + "'");
    }
  }
  r.finish();
  if (log.proc_count <= 0)
    throw std::invalid_argument("FlightLog::from_json: missing or non-positive proc_count");
  for (const FlightEvent& e : log.events)
    if (e.proc < 0 || e.proc >= log.proc_count)
      throw std::invalid_argument("FlightLog::from_json: event proc out of range");
  return log;
}

}  // namespace spi::obs
