// The traced mode's layer replay: a workload's request stream is pushed
// through the public functions of each serving layer, one call at a time,
// with a span around every call:
//
//   replay.request                      one request, end to end
//     v1.parse | v2.decode              protocol.h / binary_protocol.h
//     cache.lookup                      a harness-owned ResultCache
//     admission.admit                   a harness-owned AdmissionController
//     engine.queue_wait                 ConcurrentEngine::SubmitAsync -> start
//     engine.lease                      ConcurrentEngine::Lease
//     search.path | search.dist | matrix  the leased backend
//     engine.release                    the lease returned to the pool
//     cache.insert
//     admission.release
//     v1.format | v2.encode
//
// Requests run from as many threads as the workload has query connections,
// against the live stack's engine, so queue waits are taken under the
// workload's concurrency. The same stream is first replayed with only the
// replay.bare span around each request, so the spans' own cost shows
// (trace.*). A last pass times ServerStack::Submit / SubmitDecoded to
// callback, in process, with no socket.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Replays `stream` through every layer it passes and adds the layer
/// figures to `out` (µs unless the name says otherwise). Sets *ok false on
/// an error reply, a wrong distance or a refused admission.
void ReplayLayers(Served& served, const ReplayStream& stream, Tracer& tracer,
                  std::map<std::string, double>* out, bool* ok);

}  // namespace perfbench
