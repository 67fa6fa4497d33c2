// stream_drift: the streaming synthesizer under a drifting source, with
// reads beside the writes.
//
// Set-up bootstraps stream::IncrementalSynthesizer from a clean prefix and
// publishes its program. Each round then replays one fixed script from that
// bootstrapped state: kBatches batches, the source shifting to a fresh
// MakeDriftedSem variant (one structural function re-salted) every
// kShiftEvery batches after the first kCleanBatches. Every batch is
// ingested and refreshed; every changed program is certificate-checked and
// published through the registry's gate; between batches, low-cardinality
// validate requests run through ValidationEngine::Handle against the live
// version. All on one thread.

#include <memory>
#include <string>
#include <vector>

#include "analysis/semantic.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/serialization.h"
#include "oracle.h"
#include "request_path.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/incremental.h"
#include "table/sem_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = guardrail::core;
namespace serve = guardrail::serve;
namespace stream = guardrail::stream;
using guardrail::Rng;
using guardrail::StopWatch;
using guardrail::Table;

constexpr int kPairs = 8;
constexpr int64_t kBootstrapRows = 12000;
constexpr int64_t kBatchRows = 600;
constexpr int kBatches = 24;
constexpr int kCleanBatches = 6;
constexpr int kShiftEvery = 9;
// Request mix, an assumption: nothing in the repository records a read to
// write ratio or a format split. Four 512-row reads per 600-row batch keep
// reads and writes of the same order. Every request is CSV, the format
// `guardrail validate` sends unless told otherwise, so the p50 and p90 are
// two points of one latency distribution rather than of two formats.
// Schemes alternate ignore / rectify: the report-only and the repairing
// path, the two the serving documentation shows.
constexpr int kRequestsPerBatch = 4;
constexpr int kRowsPerRequest = 512;
constexpr int kRequestPool = 8;
constexpr int kSetupReps = 3;
constexpr char kDataset[] = "stream";
// The ingest script (source model, shifts, bootstrap prefix and batches) is
// fixed; the run's seed drives the validate requests. Which refreshes
// escalate to a full resynthesis (~0.9 s each, against ~12 ms for an
// incremental one) is a discrete function of the sampled batches: over
// seeded scripts it ranged from 0 to 10 per round, so update_s would
// measure the draw rather than the code.
constexpr uint64_t kScriptSeed = 1;

/// kPairs functional pairs (root of 6 labels -> child of 6 labels, 1% noise)
/// plus two free roots: chain-free, so every shift stays local to one pair.
guardrail::SemModel StreamSem(uint64_t seed) {
  std::vector<guardrail::SemNode> nodes;
  for (int i = 0; i < kPairs; ++i) {
    const std::string base = "p" + std::to_string(i);
    const auto root = static_cast<guardrail::AttrIndex>(nodes.size());
    nodes.push_back(guardrail::SemNode{base + "_src", 6, {}, 0.0});
    nodes.push_back(guardrail::SemNode{base + "_dst", 6, {root}, 0.01});
  }
  nodes.push_back(guardrail::SemNode{"free0", 4, {}, 0.0});
  nodes.push_back(guardrail::SemNode{"free1", 3, {}, 0.0});
  return guardrail::SemModel(std::move(nodes), seed ^ 0xC0FFEEULL);
}

stream::IncrementalOptions StreamOptions() {
  stream::IncrementalOptions options;
  options.synthesis.num_threads = 1;
  options.synthesis.pc.num_threads = 1;
  options.synthesis.fill.num_threads = 1;
  options.drift.min_window_rows = kBatchRows;
  return options;
}

struct Request {
  serve::ValidateRequest request;
  /// Row labels in schema order, for the reference evaluator.
  std::vector<std::vector<std::string>> labels;
};

/// Plain alphanumeric labels joined by commas: the CSV record of a row, as
/// no label here needs quoting.
std::string CsvRecord(const std::vector<std::string>& labels) {
  std::string out;
  for (size_t c = 0; c < labels.size(); ++c) {
    out += (c > 0 ? "," : "") + labels[c];
  }
  return out;
}

/// CSV requests drawn from `sem` with 1% of cells replaced by unseen labels.
std::vector<Request> MakeRequests(const guardrail::SemModel& sem, Rng* rng) {
  std::vector<Request> out;
  for (int i = 0; i < kRequestPool; ++i) {
    Table rows = sem.Sample(kRowsPerRequest, rng);
    Request req;
    req.request.dataset = kDataset;
    req.request.format = serve::RowFormat::kCsv;
    req.request.scheme = i % 2 == 0 ? core::ErrorPolicy::kIgnore
                                    : core::ErrorPolicy::kRectify;
    std::string& payload = req.request.payload;
    payload = CsvRecord(rows.schema().AttributeNames()) + "\n";
    for (guardrail::RowIndex r = 0; r < rows.num_rows(); ++r) {
      std::vector<std::string> labels;
      for (guardrail::AttrIndex c = 0; c < rows.num_columns(); ++c) {
        labels.push_back(rng->NextBernoulli(0.01)
                             ? "bad" + std::to_string(rng->NextUint64(100))
                             : rows.GetLabel(r, c));
      }
      payload += CsvRecord(labels) + "\n";
      req.labels.push_back(std::move(labels));
    }
    out.push_back(std::move(req));
  }
  return out;
}

/// What Handle must return for one request row: the reference verdict and,
/// under rectify, the reference repair as a CSV record (empty when the row
/// is left as it is).
serve::RowResult ExpectedRowResult(const serve::ProgramSnapshot& snapshot,
                                   const std::vector<std::string>& labels,
                                   core::ErrorPolicy scheme) {
  serve::RowResult out;
  const guardrail::Row row = EncodeLabels(snapshot.schema, labels);
  out.violations =
      static_cast<uint16_t>(ReferenceViolations(snapshot.program, row));
  if (out.violations == 0) return out;
  out.verdict = serve::RowVerdict::kViolation;
  const guardrail::Row repaired =
      ReferenceRepair(snapshot.program, row, scheme);
  if (repaired == row) return out;
  std::vector<std::string> fields = labels;
  for (size_t c = 0; c < row.size(); ++c) {
    if (repaired[c] == row[c]) continue;
    const auto attr = static_cast<guardrail::AttrIndex>(c);
    fields[c] = repaired[c] == guardrail::kNullValue
                    ? ""
                    : snapshot.schema.attribute(attr).label(repaired[c]);
  }
  out.detail = CsvRecord(fields);
  return out;
}

/// Everything a round replays: the bootstrapped synthesizer, the batch
/// script and the validate requests for each segment of the script.
struct Script {
  std::unique_ptr<stream::IncrementalSynthesizer> bootstrapped;
  std::vector<Table> batches;
  /// Per batch: index into `segments`.
  std::vector<int> segment_of_batch;
  std::vector<std::vector<Request>> segments;
};

int SegmentOf(int batch) {
  return batch < kCleanBatches ? 0 : 1 + (batch - kCleanBatches) / kShiftEvery;
}

std::unique_ptr<Script> MakeScript(uint64_t seed, RunLog* log) {
  auto script = std::make_unique<Script>();
  Rng script_rng(kScriptSeed);
  std::vector<guardrail::SemModel> sems = {StreamSem(kScriptSeed)};
  guardrail::SemDriftOptions drift;
  drift.changed_fraction = 0.01;  // Exactly one node per shift.
  for (int b = 0; b < kBatches; ++b) {
    const int segment = SegmentOf(b);
    while (static_cast<int>(sems.size()) <= segment) {
      sems.push_back(MakeDriftedSem(sems.back(), drift, &script_rng).model);
    }
    script->segment_of_batch.push_back(segment);
  }
  Rng request_rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  for (const guardrail::SemModel& sem : sems) {
    script->segments.push_back(MakeRequests(sem, &request_rng));
  }
  Table prefix = sems[0].Sample(kBootstrapRows, &script_rng);
  for (int b = 0; b < kBatches; ++b) {
    script->batches.push_back(
        sems[static_cast<size_t>(script->segment_of_batch[static_cast<size_t>(
                 b)])]
            .Sample(kBatchRows, &script_rng));
  }
  script->bootstrapped =
      std::make_unique<stream::IncrementalSynthesizer>(StreamOptions());
  log->Attempt("ingest");
  guardrail::Status ingested = script->bootstrapped->IngestTable(prefix);
  if (!ingested.ok()) {
    log->Fail("ingest", ingested.ToString());
    return nullptr;
  }
  log->Attempt("synthesize");
  auto boot = script->bootstrapped->Bootstrap();
  if (!boot.ok()) {
    log->Fail("synthesize", boot.status().ToString());
    return nullptr;
  }
  return script;
}

/// Per-round tallies, compared across rounds for determinism.
struct RoundTally {
  int refreshes[4] = {0, 0, 0, 0};  // Indexed by RefreshAction.
  int changed = 0;
  int64_t refilled = 0;
  int64_t reused = 0;
  int64_t rows_retained = 0;
  std::string final_text;

  bool operator==(const RoundTally& o) const {
    for (int i = 0; i < 4; ++i) {
      if (refreshes[i] != o.refreshes[i]) return false;
    }
    return changed == o.changed && refilled == o.refilled &&
           reused == o.reused && rows_retained == o.rows_retained &&
           final_text == o.final_text;
  }
};

const char* RefreshSpanName(stream::RefreshAction action) {
  switch (action) {
    case stream::RefreshAction::kNoop:
      return "stream.refresh_noop";
    case stream::RefreshAction::kIncremental:
      return "stream.refresh_incremental";
    case stream::RefreshAction::kFull:
      return "stream.refresh_full";
    default:
      return "stream.refresh_none";
  }
}

}  // namespace

std::vector<Metric> RunStreamDrift(const RunConfig& config, RunLog* log) {
  Tracer tracer(config.trace);
  EndToEnd e2e;

  std::unique_ptr<Script> script;
  serve::ProgramRegistry registry;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    StopWatch watch;
    script = MakeScript(config.seed, log);
    if (script == nullptr) return {};
    log->Attempt("publish");
    auto version = registry.LoadFromText(
        kDataset, script->bootstrapped->program_text(),
        script->bootstrapped->schema(), "",
        script->bootstrapped->certificate_text());
    e2e.setup_seconds.push_back(watch.ElapsedSeconds());
    if (!version.ok()) {
      log->Fail("publish", version.status().ToString());
      return {};
    }
  }
  serve::ValidationEngine engine(&registry, serve::EngineOptions());
  // Traced run only: a localhost server over the same engine, so each traced
  // request can also take the wire and show what the socket adds.
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;
  if (config.trace) {
    server = std::make_unique<serve::Server>(&registry, &engine,
                                             serve::ServerOptions());
    guardrail::Status started = server->Start();
    if (!log->Check(started.ok(), "server starts: " + started.ToString())) {
      return {};
    }
    auto connected = serve::Client::Connect("127.0.0.1", server->port());
    if (!log->Check(connected.ok(), "client connects")) return {};
    client = std::make_unique<serve::Client>(std::move(*connected));
  }

  RoundTally first_tally;
  int rounds = 0;
  StopWatch run_watch;
  for (int round = 0;; ++round) {
    const bool warmup = round == 0;
    if (!warmup && rounds > 0 && run_watch.ElapsedSeconds() >= config.seconds) {
      break;
    }
    if (round == 1) run_watch.Restart();

    // Every round starts from the bootstrapped state with its program live.
    stream::IncrementalSynthesizer synth = *script->bootstrapped;
    log->Attempt("publish");
    auto reset = registry.LoadFromText(kDataset, synth.program_text(),
                                       synth.schema(), "",
                                       synth.certificate_text());
    if (!reset.ok()) log->Fail("publish", reset.status().ToString());

    RoundTally tally;
    double update_seconds = 0.0;
    double validate_seconds = 0.0;
    std::vector<double> validate_ms;
    int64_t rows_validated = 0;
    uint64_t step = 0;
    for (int b = 0; b < kBatches; ++b) {
      ++step;
      log->Attempt("ingest");
      guardrail::Status ingested = [&] {
        ScopedSpan span(&tracer, "stream.ingest", step);
        return synth.IngestTable(script->batches[static_cast<size_t>(b)]);
      }();
      if (!ingested.ok()) log->Fail("ingest", ingested.ToString());

      const std::string before = synth.program_text();
      log->Attempt("refresh");
      StopWatch refresh_watch;
      const int32_t refresh_span = tracer.Begin("stream.refresh", step);
      auto refreshed = synth.Refresh();
      tracer.End(refresh_span);
      update_seconds += refresh_watch.ElapsedSeconds();
      if (!refreshed.ok()) {
        log->Fail("refresh", refreshed.status().ToString());
        continue;
      }
      tracer.Rename(refresh_span, RefreshSpanName(refreshed->action));
      ++tally.refreshes[static_cast<int>(refreshed->action)];
      tally.refilled += refreshed->statements_refilled;
      tally.reused += refreshed->statements_reused;
      if (refreshed->action == stream::RefreshAction::kNoop ||
          refreshed->action == stream::RefreshAction::kNone) {
        log->Check(!refreshed->published_changed &&
                       synth.program_text() == before,
                   "a no-op refresh leaves the served bytes identical");
      }
      if (refreshed->published_changed) {
        ++tally.changed;
        {
          // Independent of the registry's own gate: the certificate must
          // prove the served program equivalent to the ensemble it minimized.
          guardrail::Schema schema = synth.schema();
          auto parsed = core::DeserializeProgram(synth.program_text(), &schema);
          ScopedSpan span(&tracer, "analysis.certify", step);
          log->Check(parsed.ok() && guardrail::analysis::VerifyCertificate(
                                        synth.certificate_text(), *parsed,
                                        schema)
                                        .ok(),
                     "refreshed program's certificate verifies");
        }
        log->Attempt("publish");
        StopWatch publish_watch;
        auto version = [&] {
          ScopedSpan span(&tracer, "serve.publish", step);
          return registry.LoadFromText(kDataset, synth.program_text(),
                                       synth.schema(), "",
                                       synth.certificate_text());
        }();
        update_seconds += publish_watch.ElapsedSeconds();
        if (!version.ok()) log->Fail("publish", version.status().ToString());
      }

      auto snapshot = registry.Get(kDataset);
      const std::vector<Request>& requests =
          script->segments[static_cast<size_t>(
              script->segment_of_batch[static_cast<size_t>(b)])];
      for (int q = 0; q < kRequestsPerBatch; ++q) {
        const Request& req =
            requests[static_cast<size_t>((b * kRequestsPerBatch + q) %
                                         kRequestPool)];
        log->Attempt("validate");
        StopWatch watch;
        serve::ValidateResponse response =
            config.trace ? TraceRequestPath(*snapshot, &engine, req.request,
                                            step, &tracer, log)
                         : engine.Handle(req.request);
        const double ms = watch.ElapsedMillis();
        validate_ms.push_back(ms);
        validate_seconds += ms / 1e3;
        if (response.code != guardrail::StatusCode::kOk) {
          log->Fail("validate", response.error);
          continue;
        }
        rows_validated += static_cast<int64_t>(response.rows.size());
        bool match = response.rows.size() == req.labels.size() &&
                     response.program_version == snapshot->version;
        for (size_t r = 0; match && r < req.labels.size(); ++r) {
          match = response.rows[r] == ExpectedRowResult(*snapshot,
                                                        req.labels[r],
                                                        req.request.scheme);
        }
        log->Check(match,
                   "Handle verdicts and repairs match the reference");
        if (client != nullptr) {
          auto remote = [&] {
            ScopedSpan span(&tracer, "serve.roundtrip", step);
            return client->Validate(req.request);
          }();
          log->Check(remote.ok() && remote->rows == response.rows,
                     "the wire returns Handle's verdicts");
        }
      }
    }
    tally.rows_retained = synth.rows_ingested();
    tally.final_text = synth.program_text();
    if (warmup) {
      first_tally = tally;
      continue;
    }
    log->Check(tally == first_tally, "every round replays the same refreshes");
    ++rounds;
    e2e.AddRound(update_seconds, rows_validated, validate_seconds,
                 std::move(validate_ms));
  }
  std::fprintf(stderr,
               "stream_drift per round: %d noop, %d incremental, %d full "
               "refreshes, %d changed the served program\n",
               first_tally.refreshes[1], first_tally.refreshes[2],
               first_tally.refreshes[3], first_tally.changed);

  if (!config.trace) return e2e.Metrics();
  const double all_rounds = static_cast<double>(rounds + 1);
  auto median_us = [&](const char* span) {
    return Median(tracer.SelfMicros(span));
  };
  const int work = first_tally.refreshes[2] + first_tally.refreshes[3];
  std::vector<Metric> out = {
      {"analysis.certify_s", tracer.TotalSelfSeconds("analysis.certify") /
                                 all_rounds,
       "s"},
      {"serve.publish_s", tracer.TotalSelfSeconds("serve.publish") / all_rounds,
       "s"},
      {"common.csv_parse_us", median_us("common.csv_parse"), "us"},
      {"serve.decode_rows_us", median_us("serve.decode_rows"), "us"},
      {"table.schema_copy_us", median_us("table.schema_copy"), "us"},
      {"core.request_kernel_us", median_us("core.request_kernel"), "us"},
      {"serve.handle_us", median_us("serve.handle"), "us"},
      {"serve.encode_response_us", median_us("serve.encode_response"), "us"},
      {"serve.wire_us",
       median_us("serve.roundtrip") - median_us("serve.handle"), "us"},
      {"stream.ingest_us", median_us("stream.ingest"), "us"},
      {"stream.refresh_noop_ms", median_us("stream.refresh_noop") / 1e3, "ms"},
      {"stream.refresh_incremental_ms",
       median_us("stream.refresh_incremental") / 1e3, "ms"},
      {"stream.refresh_full_ms", median_us("stream.refresh_full") / 1e3, "ms"},
      {"stream.refreshes_noop", static_cast<double>(first_tally.refreshes[1]),
       "count"},
      {"stream.refreshes_incremental",
       static_cast<double>(first_tally.refreshes[2]), "count"},
      {"stream.refreshes_full", static_cast<double>(first_tally.refreshes[3]),
       "count"},
      {"stream.refresh_useful_ratio",
       work > 0 ? static_cast<double>(first_tally.changed) / work : 0.0,
       "ratio"},
      {"stream.statements_refilled", static_cast<double>(first_tally.refilled),
       "count"},
      {"stream.statements_reused", static_cast<double>(first_tally.reused),
       "count"},
      {"stream.rows_retained", static_cast<double>(first_tally.rows_retained),
       "rows"},
  };
  AppendTraceOverhead(tracer, &out);
  return out;
}

}  // namespace perfbench
