#include "attribution.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

const char* LayerOfSpan(const char* span_name) {
  struct Mapping {
    const char* span;
    const char* layer;
  };
  static constexpr Mapping kMappings[] = {
      {"edge-read", "partition.fetch_s"},
      {"index-load", "partition.index_read_s"},
      {"index-read", "partition.index_read_s"},
      {"decode", "partition.decode_s"},
      {"compute", "core.update_s"},
      {"cross-iter-update", "core.update_s"},
      {"schedule-decision", "core.scheduler_s"},
      {"state-load", "core.vertex_state_s"},
      {"write-back", "core.vertex_state_s"},
  };
  for (const Mapping& m : kMappings) {
    if (std::strcmp(m.span, span_name) == 0) return m.layer;
  }
  return "";
}

const std::vector<std::string>& AttributedLayers() {
  static const std::vector<std::string> kLayers = {
      "partition.fetch_s",  "partition.index_read_s", "partition.decode_s",
      "core.update_s",      "core.scheduler_s",       "core.vertex_state_s",
  };
  return kLayers;
}

LayerSplit Attribute(const std::vector<graphsd::obs::TraceEvent>& events,
                     std::uint32_t engine_tid, double begin_us,
                     double end_us) {
  struct Boundary {
    double t;
    int delta;  // +1 open, −1 close
    std::size_t event;
  };
  std::vector<Boundary> boundaries;
  boundaries.reserve(2 * events.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto& e = events[k];
    const double lo = std::max(e.start_us, begin_us);
    const double hi = std::min(e.start_us + e.duration_us, end_us);
    if (hi <= lo) continue;
    boundaries.push_back({lo, +1, k});
    boundaries.push_back({hi, -1, k});
  }
  // Closes before opens at equal times, so a span never shadows its
  // successor on the same thread.
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) {
              return a.t != b.t ? a.t < b.t : a.delta < b.delta;
            });

  LayerSplit split;
  split.wall_seconds = (end_us - begin_us) * 1e-6;
  for (const std::string& layer : AttributedLayers()) {
    split.layer_seconds[layer] = 0;
  }
  std::vector<std::size_t> engine_open;
  std::vector<std::size_t> other_open;
  const auto latest = [&](const std::vector<std::size_t>& open) {
    return *std::max_element(open.begin(), open.end(),
                             [&](std::size_t a, std::size_t b) {
                               return events[a].start_us < events[b].start_us;
                             });
  };
  const auto charge = [&](double from, double to) {
    if (to <= from) return;
    const double seconds = (to - from) * 1e-6;
    const char* layer = "";
    bool borrowed = false;
    if (!engine_open.empty()) {
      layer = LayerOfSpan(events[latest(engine_open)].name);
    } else if (!other_open.empty()) {
      layer = LayerOfSpan(events[latest(other_open)].name);
      borrowed = true;
    }
    if (*layer == '\0') {
      split.unattributed_seconds += seconds;
    } else {
      split.layer_seconds[layer] += seconds;
      if (borrowed) split.borrowed_seconds += seconds;
    }
  };

  double cursor = begin_us;
  for (const Boundary& b : boundaries) {
    charge(cursor, b.t);
    cursor = std::max(cursor, b.t);
    auto& open = events[b.event].tid == engine_tid ? engine_open : other_open;
    if (b.delta > 0) {
      open.push_back(b.event);
    } else {
      open.erase(std::find(open.begin(), open.end(), b.event));
    }
  }
  charge(cursor, end_us);

  double total = split.unattributed_seconds;
  for (const auto& [layer, seconds] : split.layer_seconds) total += seconds;
  split.residual_seconds = std::abs(split.wall_seconds - total);
  return split;
}

}  // namespace perfbench
