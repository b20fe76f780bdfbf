#include "obs/trace_export.h"

#include <cstdio>
#include <limits>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace apa::obs {

namespace {

bool rank_matches(const TraceEventView& ev, int rank) {
  if (rank < 0) return true;
  // Threads that never declared a rank (main thread, OMP pool) belong to the
  // coordinator's file so their spans are not lost in per-rank exports.
  const int effective = ev.rank < 0 ? 0 : ev.rank;
  return effective == rank;
}

}  // namespace

std::string chrome_trace_json() { return chrome_trace_json({}); }

std::string chrome_trace_json(const TraceExportOptions& options) {
  const std::vector<TraceEventView> events = trace_events();

  // Rebase over ALL events (not just the rank-filtered ones) unless the
  // caller pinned an origin: every per-rank file from this process then
  // shares one base, which trace_merge relies on.
  std::uint64_t t0 = options.t0_ns;
  if (t0 == 0) {
    t0 = std::numeric_limits<std::uint64_t>::max();
    for (const TraceEventView& ev : events) {
      t0 = ev.start_ns < t0 ? ev.start_ns : t0;
    }
    if (events.empty()) t0 = 0;
  }

  std::vector<const TraceEventView*> selected;
  selected.reserve(events.size());
  int max_tid = 0;
  for (const TraceEventView& ev : events) {
    if (!rank_matches(ev, options.rank)) continue;
    selected.push_back(&ev);
    max_tid = ev.tid > max_tid ? ev.tid : max_tid;
  }

  std::string out;
  out.reserve(selected.size() * 96 + 512);
  out += "{\n\"displayTimeUnit\": \"ms\",\n";
  {
    char buf[160];
    // Clock-alignment metadata for trace_merge: this rank's barrier mark,
    // rebased like the events. The mark can legitimately be negative (the
    // barrier fires before the earliest retained event), so absence is
    // encoded by omitting mark_us, never by a sentinel value.
    bool have_mark = false;
    double mark_us = 0.0;
    const int sync_rank = options.rank < 0 ? 0 : options.rank;
    for (const ClockMark& mark : clock_marks()) {
      if (mark.rank == sync_rank) {
        have_mark = true;
        mark_us = (static_cast<double>(mark.mark_ns) -
                   static_cast<double>(t0)) /
                  1e3;
      }
    }
    if (have_mark) {
      std::snprintf(buf, sizeof(buf),
                    "\"clockSync\": {\"rank\": %d, \"mark_us\": %.3f},\n",
                    sync_rank, mark_us);
    } else {
      std::snprintf(buf, sizeof(buf), "\"clockSync\": {\"rank\": %d},\n",
                    sync_rank);
    }
    out += buf;
  }
  out += "\"traceEvents\": [\n";
  if (options.rank < 0) {
    out +=
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"apamm\"}}";
  } else {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": 0, \"args\": {\"name\": \"apamm rank %d\"}}",
                  options.rank);
    out += buf;
  }
  for (int tid = 0; tid <= max_tid && !selected.empty(); ++tid) {
    char buf[128];  // 84 literal chars + two %d of up to 11 chars each
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %d, \"args\": {\"name\": \"worker %d\"}}",
                  tid, tid);
    out += buf;
  }
  for (const TraceEventView* evp : selected) {
    const TraceEventView& ev = *evp;
    char buf[160];
    if (ev.kind != TraceEventKind::kSpan) {
      // Flow arrow halves: "s" leaves the sender, "f" (bp=e) binds to the
      // receiver's enclosing slice. The id pairs the two sides.
      std::snprintf(
          buf, sizeof(buf),
          ",\n{\"name\": %s, \"cat\": \"dist\", \"ph\": \"%s\", "
          "%s\"id\": %lld, \"pid\": 1, \"tid\": %d, \"ts\": %.3f}",
          json_quote(ev.name).c_str(),
          ev.kind == TraceEventKind::kFlowOut ? "s" : "f",
          ev.kind == TraceEventKind::kFlowOut ? "" : "\"bp\": \"e\", ",
          static_cast<long long>(ev.id), ev.tid,
          (static_cast<double>(ev.start_ns) - static_cast<double>(t0)) / 1e3);
      out += buf;
      continue;
    }
    // Trace-event ts/dur are microseconds; keep ns precision as fractions.
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": %s, \"cat\": \"apamm\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                  json_quote(ev.name).c_str(), ev.tid,
                  (static_cast<double>(ev.start_ns) - static_cast<double>(t0)) /
                      1e3,
                  static_cast<double>(ev.dur_ns) / 1e3);
    out += buf;
    if (ev.id >= 0) {
      std::snprintf(buf, sizeof(buf), ", \"args\": {\"id\": %lld}",
                    static_cast<long long>(ev.id));
      out += buf;
    }
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  return write_chrome_trace(path, {});
}

bool write_chrome_trace(const std::string& path,
                        const TraceExportOptions& options) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace output %s\n", path.c_str());
    return false;
  }
  const std::string json = chrome_trace_json(options);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace apa::obs
