#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/logging.h"

namespace harmony::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // lint: allow-naked-new
  return *recorder;
}

void FlightRecorder::arm(const std::string& dir) {
  // Create the bundle directory up front: an unwritable path should surface
  // at arm time, not be discovered during the crash we were meant to record.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    HLOG(kError) << "flight recorder: cannot create " << dir << ": " << ec.message();
  }
  common::MutexLock lock(mu_);
  dir_ = dir;
  ring_.clear();
  ring_.reserve(kRingCapacity);
  ring_head_ = 0;
  context_.clear();
  metrics_json_.clear();
  dump_index_ = 0;
  armed_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disarm() {
  armed_.store(false, std::memory_order_relaxed);
  common::MutexLock lock(mu_);
  ring_.clear();
  ring_head_ = 0;
  context_.clear();
  metrics_json_.clear();
}

void FlightRecorder::append(const TraceEvent& event) {
  if (!armed()) return;
  common::MutexLock lock(mu_);
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(event);
  } else {
    ring_[ring_head_] = event;
    ring_head_ = (ring_head_ + 1) % kRingCapacity;
  }
}

void FlightRecorder::set_context(const std::string& key, const std::string& value) {
  if (!armed()) return;
  common::MutexLock lock(mu_);
  context_[key] = value;
}

void FlightRecorder::note_metrics_json(const std::string& json) {
  if (!armed()) return;
  common::MutexLock lock(mu_);
  metrics_json_ = json;
}

bool FlightRecorder::dump(const std::string& reason, const std::string& detail,
                          const std::string& validator) {
  if (!armed()) return false;

  std::string dir;
  std::uint64_t index = 0;
  std::vector<TraceEvent> events;
  std::map<std::string, std::string> context;
  std::string metrics;
  {
    common::MutexLock lock(mu_);
    if (dump_index_ >= kMaxDumps) return false;  // disk-fill guard
    dir = dir_;
    index = dump_index_++;
    // Unroll the ring into insertion order: [head, end) then [0, head).
    events.reserve(ring_.size());
    events.insert(events.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
                  ring_.end());
    events.insert(events.end(), ring_.begin(),
                  ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_));
    context = context_;
    metrics = metrics_json_;
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    HLOG(kError) << "flight recorder: cannot create " << dir << ": " << ec.message();
    return false;
  }

  // Chrome-trace half of the bundle. The ring is insertion-ordered; the
  // writer wants (clock, ts) order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.clock != b.clock) return a.clock < b.clock;
                     return a.ts_us < b.ts_us;
                   });
  const std::string stem = dir + "/flight-" + std::to_string(index);
  {
    std::ofstream out(stem + ".trace.json");
    if (!out) {
      HLOG(kError) << "flight recorder: cannot open " << stem << ".trace.json";
      return false;
    }
    write_chrome_trace(events, out);
    out.flush();
    if (!out) return false;
  }

  // Context half: who pulled the handle and what the world looked like.
  std::ofstream out(stem + ".context.json");
  if (!out) {
    HLOG(kError) << "flight recorder: cannot open " << stem << ".context.json";
    return false;
  }
  out << "{\n  \"schema\": \"harmony-flight-v1\",\n";
  out << "  \"reason\": \"" << json_escape(reason) << "\",\n";
  out << "  \"detail\": \"" << json_escape(detail) << "\",\n";
  out << "  \"validator\": \"" << json_escape(validator) << "\",\n";
  out << "  \"dump_index\": " << index << ",\n";
  out << "  \"events_in_ring\": " << events.size() << ",\n";
  out << "  \"context\": {";
  bool first = true;
  for (const auto& [key, value] : context) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    \"" << json_escape(key) << "\": \"" << json_escape(value) << "\"";
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"metrics\": " << (metrics.empty() ? "null" : metrics) << "\n";
  out << "}\n";
  out.flush();
  if (!out) return false;
  HLOG(kInfo) << "flight recorder: dumped " << stem << ".{trace,context}.json ("
              << reason << ")";
  return true;
}

void FlightRecorder::on_check_failure(const std::string& description,
                                      const std::string& validator) {
  if (!armed()) return;
  dump("check-failure", description, validator);
}

std::uint64_t FlightRecorder::dumps() const {
  common::MutexLock lock(mu_);
  return dump_index_;
}

std::size_t FlightRecorder::ring_size() const {
  common::MutexLock lock(mu_);
  return ring_.size();
}

void FlightRecorder::on_fatal_signal(int signo) {
  if (!armed()) return;
  dump("fatal-signal:" + std::to_string(signo), "fatal signal received");
}

}  // namespace harmony::obs
