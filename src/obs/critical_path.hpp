#pragma once

/// \file critical_path.hpp
/// Post-hoc critical-path analysis over an exported execution trace.
///
/// Given the Chrome-trace JSON produced by `TraceRecorder::to_json()`
/// and a trace id, `critical_path` collects every span stamped with that
/// id, finds the request's root span, and attributes the end-to-end
/// latency to segments: time queued, preprocessing, inferring,
/// transmitting (uplink/respond, and `deliver`: the response's trip from
/// the executor's hand-off back to the client thread), and backing off
/// between retry attempts. The segment sums tile the root span when the
/// pipeline is sequential; any residue shows up as `unattributed_us`
/// (client-side submit overhead before an attempt's `request` span,
/// gaps between attempts) and overlap (pipelined preprocess) can push
/// the sum *above* the end-to-end time — both are reported, not hidden.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.hpp"
#include "core/status.hpp"

namespace harvest::obs {

/// Latency segments a request span can be attributed to.
enum class Segment {
  kQueue = 0,
  kPreprocess,
  kInference,
  kTransmit,
  kBackoff,
  kOther,
  kSegmentCount,
};

const char* segment_name(Segment segment);

/// Classify a span by name. Container spans ("request",
/// "client_request") return kSegmentCount and are never summed.
Segment classify_segment(std::string_view span_name);

/// Attribution of one request tree's end-to-end latency.
struct CriticalPath {
  std::uint64_t trace_id = 0;
  std::uint64_t root_span_id = 0;
  std::string root_name;
  double end_to_end_us = 0.0;  ///< duration of the root span
  /// Summed span time per segment, indexed by Segment.
  double segment_us[static_cast<int>(Segment::kSegmentCount)] = {};
  /// end_to_end - sum(segments); near zero for a sequential pipeline,
  /// negative when stages overlap.
  double unattributed_us = 0.0;
  std::size_t span_count = 0;  ///< spans in the tree (incl. containers)
  std::size_t attempts = 0;    ///< "request" spans (retries show up here)

  double segment(Segment s) const { return segment_us[static_cast<int>(s)]; }
  double attributed_us() const;
  /// Multi-line human-readable breakdown (for bench output).
  std::string to_string() const;
};

/// All distinct trace ids appearing in a trace document, in first-seen
/// order.
std::vector<std::uint64_t> trace_ids(const core::Json& trace_doc);

/// Analyze the request tree `trace_id` inside `trace_doc` (the parsed
/// `TraceRecorder` export). Fails when the id is absent or has no root.
core::Result<CriticalPath> critical_path(const core::Json& trace_doc,
                                         std::uint64_t trace_id);

}  // namespace harvest::obs
