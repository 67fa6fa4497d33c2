#ifndef PERFBENCH_REQUEST_PATH_H_
#define PERFBENCH_REQUEST_PATH_H_

#include <cstdint>

#include "report.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "trace.h"

namespace perfbench {

/// Traced run only: takes one validate request through the layers a request
/// crosses inside ValidationEngine::Handle, calling and timing each from the
/// benchmark — CSV parse, schema copy, row decode, compiled kernel — then
/// Handle itself and the response encoding. Spans share `request_id`. The
/// row-decode span's self time excludes the CSV parse that DecodeRows makes
/// internally, so each layer's figure is its own.
/// Returns Handle's response.
guardrail::serve::ValidateResponse TraceRequestPath(
    const guardrail::serve::ProgramSnapshot& snapshot,
    guardrail::serve::ValidationEngine* engine,
    const guardrail::serve::ValidateRequest& request, uint64_t request_id,
    Tracer* tracer, RunLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_REQUEST_PATH_H_
