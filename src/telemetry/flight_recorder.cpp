#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <ostream>

namespace nezha::telemetry {

FlightRecorder::FlightRecorder(std::size_t num_nodes,
                               std::size_t events_per_node)
    : num_nodes_(num_nodes),
      capacity_(events_per_node == 0 ? 1 : events_per_node),
      rings_(num_nodes + 1) {
  for (Ring& r : rings_) r.buf.reserve(capacity_);
}

std::size_t FlightRecorder::ring_count(std::size_t node) const {
  return node < rings_.size() ? rings_[node].buf.size() : 0;
}

std::uint64_t FlightRecorder::ring_overwritten(std::size_t node) const {
  return node < rings_.size() ? rings_[node].overwritten : 0;
}

std::vector<TraceEvent> FlightRecorder::merged() const {
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const Ring& r : rings_) total += r.buf.size();
  out.reserve(total);
  for (const Ring& r : rings_) {
    // Ring order: oldest retained event first (head stays 0 until full).
    out.insert(out.end(), r.buf.begin() + r.head, r.buf.end());
    out.insert(out.end(), r.buf.begin(), r.buf.begin() + r.head);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

void FlightRecorder::dump(std::ostream& os) const {
  const std::vector<TraceEvent> events = merged();
  const std::uint64_t magic = kTraceMagic;
  const std::uint32_t version = kTraceFormatVersion;
  const std::uint32_t record_size = sizeof(TraceEvent);
  const std::uint64_t count = events.size();
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  os.write(reinterpret_cast<const char*>(&version), sizeof(version));
  os.write(reinterpret_cast<const char*>(&record_size), sizeof(record_size));
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  if (!events.empty()) {
    os.write(reinterpret_cast<const char*>(events.data()),
             static_cast<std::streamsize>(events.size() * sizeof(TraceEvent)));
  }
}

}  // namespace nezha::telemetry
