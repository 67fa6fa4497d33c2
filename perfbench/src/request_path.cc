#include "request_path.h"

#include "common/csv.h"
#include "core/batch_eval.h"

namespace perfbench {

namespace serve = guardrail::serve;

serve::ValidateResponse TraceRequestPath(const serve::ProgramSnapshot& snapshot,
                                         serve::ValidationEngine* engine,
                                         const serve::ValidateRequest& request,
                                         uint64_t request_id, Tracer* tracer,
                                         RunLog* log) {
  int32_t parse_span = -1;
  if (request.format == serve::RowFormat::kCsv) {
    parse_span = tracer->Begin("common.csv_parse", request_id);
    const bool parsed = guardrail::ParseCsv(request.payload).ok();
    tracer->End(parse_span);
    log->Check(parsed, "request CSV parses");
  }
  guardrail::Schema working = [&] {
    ScopedSpan span(tracer, "table.schema_copy", request_id);
    return snapshot.schema;
  }();
  const int32_t decode_span = tracer->Begin("serve.decode_rows", request_id);
  auto rows = serve::DecodeRows(request.format, request.payload, &working,
                                engine->options().max_batch_rows);
  tracer->End(decode_span);
  // DecodeRows parses a CSV payload itself; its self time leaves that parse
  // to common.csv_parse.
  tracer->Exclude(decode_span, parse_span);
  if (log->Check(rows.ok(), "request rows decode")) {
    guardrail::core::BatchVerdict verdict;
    ScopedSpan span(tracer, "core.request_kernel", request_id);
    snapshot.compiled->EvaluateRows(*rows, 0, rows->size(), &verdict);
  }
  serve::ValidateResponse response = [&] {
    ScopedSpan span(tracer, "serve.handle", request_id);
    return engine->Handle(request);
  }();
  {
    ScopedSpan span(tracer, "serve.encode_response", request_id);
    log->Check(!serve::EncodeValidateResponse(response).empty(),
               "response encodes");
  }
  return response;
}

}  // namespace perfbench
