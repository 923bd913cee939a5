// Folds QueryService span trees into per-layer self times.
//
// Span names and the layer each one's self time goes to:
//   query, attempt          -> exec.service_ms   (worker-side service work)
//   locks                   -> exec.lock_wait_ms (engine lock acquisition)
//   scope                   -> core.scope_ms     (SCOPE routing, CAST rewrite)
//   cast                    -> core.cast_ms      (model conversion, temp store)
//   shim:*                  -> core.shim_ms      (engine fetch shims)
//   exec                    -> <module>.exec_ms  (island execution, by island)
//   anything else           -> core.other_ms     (breaker, backoff, fault, ...)

#include <cstdlib>

#include "bench.h"

namespace perfbench {

namespace {

// The module whose code an island's `exec` span runs.
std::string ExecLayer(const std::string& island) {
  if (island == "RELATIONAL" || island == "POSTGRES") return "relational.exec_ms";
  if (island == "ARRAY" || island == "SCIDB") return "array.exec_ms";
  if (island == "TEXT") return "kvstore.exec_ms";
  if (island == "D4M") return "d4m.exec_ms";
  if (island == "MYRIA") return "myria.exec_ms";
  if (island == "STREAM") return "stream.island_ms";
  return "core.other_ms";
}

}  // namespace

const std::vector<std::string>& LayerFold::Layers() {
  static const std::vector<std::string> kLayers = {
      "exec.service_ms",   "exec.lock_wait_ms", "core.scope_ms",
      "core.cast_ms",      "core.shim_ms",      "relational.exec_ms",
      "array.exec_ms",     "kvstore.exec_ms",   "d4m.exec_ms",
      "myria.exec_ms",     "stream.island_ms",  "core.other_ms"};
  return kLayers;
}

void LayerFold::Absorb(std::vector<obs::TraceSpan> traces) {
  if (traces.empty()) return;
  for (const obs::TraceSpan& root : traces) {
    ++traces_;
    query_ms_ += root.duration_ms;
    Fold(root, "");
  }
}

void LayerFold::Fold(const obs::TraceSpan& span, const std::string& island) {
  double child_ms = 0;
  for (const obs::TraceSpan& child : span.children) child_ms += child.duration_ms;
  const double self_ms = span.duration_ms - child_ms;

  std::string layer = "core.other_ms";
  std::string child_island = island;
  if (span.name == "query" || span.name == "attempt") {
    layer = "exec.service_ms";
  } else if (span.name == "locks") {
    layer = "exec.lock_wait_ms";
  } else if (span.name == "scope") {
    layer = "core.scope_ms";
    if (const std::string* tag = span.FindTag("island")) child_island = *tag;
  } else if (span.name == "cast") {
    layer = "core.cast_ms";
    if (const std::string* bytes = span.FindTag("bytes")) {
      cast_bytes_ += std::strtod(bytes->c_str(), nullptr);
    }
  } else if (span.name.rfind("shim:", 0) == 0) {
    layer = "core.shim_ms";
  } else if (span.name == "exec") {
    layer = ExecLayer(island);
  }
  self_ms_[layer] += self_ms;
  for (const obs::TraceSpan& child : span.children) Fold(child, child_island);
}

int64_t LayerFold::traces() const {
  return traces_;
}

double LayerFold::MeanMs(const std::string& layer) const {
  auto it = self_ms_.find(layer);
  if (traces_ == 0 || it == self_ms_.end()) return 0;
  return it->second / static_cast<double>(traces_);
}

double LayerFold::MeanQueryMs() const {
  return traces_ == 0 ? 0 : query_ms_ / static_cast<double>(traces_);
}

double LayerFold::MeanCastBytes() const {
  return traces_ == 0 ? 0 : cast_bytes_ / static_cast<double>(traces_);
}

}  // namespace perfbench
