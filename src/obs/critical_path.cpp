#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace harvest::obs {

namespace {

bool name_contains(std::string_view name, std::string_view needle) {
  return name.find(needle) != std::string_view::npos;
}

struct SpanRow {
  std::string name;
  double dur_us = 0.0;
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;
};

}  // namespace

const char* segment_name(Segment segment) {
  switch (segment) {
    case Segment::kQueue: return "queue";
    case Segment::kPreprocess: return "preprocess";
    case Segment::kInference: return "inference";
    case Segment::kTransmit: return "transmit";
    case Segment::kBackoff: return "backoff";
    case Segment::kOther: return "other";
    case Segment::kSegmentCount: return "container";
  }
  return "?";
}

Segment classify_segment(std::string_view span_name) {
  // Containers wrap the whole attempt / request; their duration IS the
  // end-to-end time, so summing them would double count.
  if (span_name == "request" || span_name == "client_request") {
    return Segment::kSegmentCount;
  }
  if (name_contains(span_name, "backoff")) return Segment::kBackoff;
  if (name_contains(span_name, "queue")) return Segment::kQueue;
  if (name_contains(span_name, "preproc")) return Segment::kPreprocess;
  if (name_contains(span_name, "infer")) return Segment::kInference;
  if (name_contains(span_name, "transmit") ||
      name_contains(span_name, "uplink") ||
      name_contains(span_name, "downlink") ||
      name_contains(span_name, "respond") ||
      name_contains(span_name, "deliver") ||
      name_contains(span_name, "offload") ||
      name_contains(span_name, "migrate")) {
    return Segment::kTransmit;
  }
  return Segment::kOther;
}

std::vector<std::uint64_t> trace_ids(const core::Json& trace_doc) {
  std::vector<std::uint64_t> ids;
  std::unordered_set<std::uint64_t> seen;
  if (!trace_doc.is_object()) return ids;
  const core::Json* events = trace_doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) return ids;
  for (const core::Json& event : events->as_array()) {
    if (!event.is_object()) continue;
    const core::Json* args = event.find("args");
    if (args == nullptr || !args->is_object()) continue;
    const std::int64_t trace_id = args->get_int("trace_id", 0);
    if (trace_id <= 0) continue;
    if (seen.insert(static_cast<std::uint64_t>(trace_id)).second) {
      ids.push_back(static_cast<std::uint64_t>(trace_id));
    }
  }
  return ids;
}

core::Result<CriticalPath> critical_path(const core::Json& trace_doc,
                                         std::uint64_t trace_id) {
  const core::Json* events =
      trace_doc.is_object() ? trace_doc.find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) {
    return core::Status::invalid_argument(
        "trace document has no traceEvents array");
  }

  std::vector<SpanRow> spans;
  std::unordered_set<std::uint64_t> span_ids;
  for (const core::Json& event : events->as_array()) {
    if (!event.is_object()) continue;
    if (event.get_string("ph", "") != "X") continue;
    const core::Json* args = event.find("args");
    if (args == nullptr || !args->is_object()) continue;
    if (static_cast<std::uint64_t>(args->get_int("trace_id", 0)) != trace_id) {
      continue;
    }
    SpanRow row;
    row.name = event.get_string("name", "");
    row.dur_us = event.get_number("dur", 0.0);
    row.span_id = static_cast<std::uint64_t>(args->get_int("span_id", 0));
    row.parent = static_cast<std::uint64_t>(args->get_int("parent", 0));
    if (row.span_id != 0) span_ids.insert(row.span_id);
    spans.push_back(std::move(row));
  }
  if (spans.empty()) {
    return core::Status::not_found("trace id not present in trace document");
  }

  // Root: the widest span whose parent is absent from the tree (0, or a
  // frontend id that was never exported). With retries, that is the
  // client_request span covering every attempt.
  const SpanRow* root = nullptr;
  for (const SpanRow& row : spans) {
    if (row.parent != 0 && span_ids.count(row.parent) != 0) continue;
    if (root == nullptr || row.dur_us > root->dur_us) root = &row;
  }
  if (root == nullptr) {
    return core::Status::not_found("trace tree has no root span");
  }

  CriticalPath path;
  path.trace_id = trace_id;
  path.root_span_id = root->span_id;
  path.root_name = root->name;
  path.end_to_end_us = root->dur_us;
  path.span_count = spans.size();
  for (const SpanRow& row : spans) {
    if (&row != root && row.name == "request") ++path.attempts;
    if (&row == root) continue;
    const Segment segment = classify_segment(row.name);
    if (segment == Segment::kSegmentCount) continue;
    path.segment_us[static_cast<int>(segment)] += row.dur_us;
  }
  if (root->name == "request") path.attempts += 1;
  path.unattributed_us = path.end_to_end_us - path.attributed_us();
  return path;
}

double CriticalPath::attributed_us() const {
  double sum = 0.0;
  for (double v : segment_us) sum += v;
  return sum;
}

std::string CriticalPath::to_string() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace %llu (%s): %.1f us end-to-end, %zu spans, %zu attempts",
                static_cast<unsigned long long>(trace_id), root_name.c_str(),
                end_to_end_us, span_count, attempts);
  std::string out = line;
  for (int i = 0; i < static_cast<int>(Segment::kSegmentCount); ++i) {
    if (segment_us[i] <= 0.0) continue;
    std::snprintf(line, sizeof(line), "\n  %-10s %10.1f us (%5.1f%%)",
                  segment_name(static_cast<Segment>(i)), segment_us[i],
                  end_to_end_us > 0.0 ? 100.0 * segment_us[i] / end_to_end_us
                                      : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "\n  %-10s %10.1f us\n", "unattrib",
                unattributed_us);
  out += line;
  return out;
}

}  // namespace harvest::obs
